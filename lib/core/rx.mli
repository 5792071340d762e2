(** Rx-style recovery on top of DPMR detection (§1.5, Chapter 6): on a
    DPMR detection, re-execute from the initial state in a diversified
    environment — escalating program-wide heap padding — until a run
    completes cleanly. *)

open Dpmr_ir

(** Clone the program with every heap request padded by at least the
    given number of bytes. *)
val pad_heap_requests : Prog.t -> int -> Prog.t

type recovery_result = {
  first : Dpmr_vm.Outcome.run;  (** the original (detecting) run *)
  final : Dpmr_vm.Outcome.run;  (** the last run performed *)
  recovered_with : int option;  (** the heap pad, in bytes, that produced a clean run *)
  attempts : int;
}

(** [escalation] lists the program-wide heap pads, in bytes, tried in
    order after a DPMR detection. *)
val run_with_recovery :
  ?seed:int64 ->
  ?budget:int64 ->
  ?args:string list ->
  Config.t ->
  Prog.t ->
  escalation:int list ->
  recovery_result
