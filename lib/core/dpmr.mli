(** Top-level DPMR driver: transform a program and run it with the full
    runtime (base mini-libc + external function wrappers) registered. *)

open Dpmr_ir
module Vm = Dpmr_vm.Vm
module Extern = Dpmr_vm.Extern
module Outcome = Dpmr_vm.Outcome

exception Unsupported of string

(** [transform cfg prog] returns the DPMR-instrumented program; [prog]
    is not modified.  See {!Transform.transform} for [fault]. *)
val transform :
  ?excluded:(string -> Inst.reg -> bool) ->
  ?fault:Transform.fault ->
  Config.t ->
  Prog.t ->
  Prog.t

(** VM for an untransformed program (golden / fi-stdapp builds).
    [lowered] lets callers that run the same program repeatedly lower it
    once (see {!Vm.create}). *)
val vm_plain :
  ?seed:int64 -> ?budget:int64 -> ?lowered:Dpmr_vm.Lower.prog -> Prog.t -> Vm.t

(** VM for a transformed program: base externs plus the design's external
    function wrappers. *)
val vm_dpmr :
  ?seed:int64 ->
  ?budget:int64 ->
  ?lowered:Dpmr_vm.Lower.prog ->
  mode:Config.mode ->
  ?replicas:int ->
  Prog.t ->
  Vm.t

(** Run a program untransformed. *)
val run_plain :
  ?seed:int64 ->
  ?budget:int64 ->
  ?args:string list ->
  ?lowered:Dpmr_vm.Lower.prog ->
  Prog.t ->
  Outcome.run

(** Run an {e already-transformed} program with the design's wrappers —
    the repeat-run path: callers transform (and lower) once, then run per
    seed. *)
val run_transformed :
  ?seed:int64 ->
  ?budget:int64 ->
  ?args:string list ->
  ?lowered:Dpmr_vm.Lower.prog ->
  mode:Config.mode ->
  ?replicas:int ->
  Prog.t ->
  Outcome.run

(** Transform under a configuration, then run. *)
val run_dpmr :
  ?seed:int64 -> ?budget:int64 -> ?args:string list -> Config.t -> Prog.t -> Outcome.run

(** {1 Snapshot/fork campaign execution}

    Watched baselines and snapshot forks — see {!Vm.run_watched} and
    {!Vm.resume}.  A fork is bit-identical to the corresponding from-zero
    run with the same seed. *)

val watched_plain :
  ?seed:int64 ->
  ?budget:int64 ->
  ?args:string list ->
  ?lowered:Dpmr_vm.Lower.prog ->
  Prog.t ->
  (string, int array) Hashtbl.t array ->
  Vm.watch_result array

val watched_transformed :
  ?seed:int64 ->
  ?budget:int64 ->
  ?args:string list ->
  ?lowered:Dpmr_vm.Lower.prog ->
  mode:Config.mode ->
  ?replicas:int ->
  Prog.t ->
  (string, int array) Hashtbl.t array ->
  Vm.watch_result array

val resume_plain :
  ?seed:int64 ->
  ?budget:int64 ->
  ?lowered:Dpmr_vm.Lower.prog ->
  Prog.t ->
  Vm.snapshot ->
  Outcome.run

val resume_transformed :
  ?seed:int64 ->
  ?budget:int64 ->
  ?lowered:Dpmr_vm.Lower.prog ->
  mode:Config.mode ->
  ?replicas:int ->
  Prog.t ->
  Vm.snapshot ->
  Outcome.run
