(** Rx-style recovery on top of DPMR detection (§1.5, Chapter 6): on a
    DPMR detection, re-execute from the initial state in a diversified
    environment — escalating program-wide heap padding — until a run
    completes cleanly. *)

open Dpmr_ir

(** Clone the program with every heap request padded by at least the
    given number of bytes. *)
val pad_heap_requests : Prog.t -> int -> Prog.t

(** An Rx environment change: program-wide heap padding, or a registered
    diversity family applied as a whole-program rewrite. *)
type env_change = Pad of int | Family of string

val env_change_name : env_change -> string

(** Apply an environment change to a (cloned) program; [None] for an
    unregistered family.  Such escalation steps are skipped by
    {!run_with_recovery} without counting as attempts. *)
val apply_env_change : Prog.t -> seed:int64 -> env_change -> Prog.t option

type recovery_result = {
  first : Dpmr_vm.Outcome.run;  (** the original (detecting) run *)
  final : Dpmr_vm.Outcome.run;  (** the last run performed *)
  recovered_with : env_change option;
      (** environment change that produced a clean run *)
  attempts : int;
}

val run_with_recovery :
  ?seed:int64 ->
  ?budget:int64 ->
  ?args:string list ->
  Config.t ->
  Prog.t ->
  escalation:env_change list ->
  recovery_result
