(** Top-level DPMR driver: transform a program and run it with the full
    runtime (base libc + external function wrappers) registered. *)

module Vm = Dpmr_vm.Vm
module Extern = Dpmr_vm.Extern
module Outcome = Dpmr_vm.Outcome

exception Unsupported = Transform.Unsupported

(** [transform cfg prog] returns the DPMR-instrumented program; [prog] is
    not modified. *)
let transform = Transform.transform

(** Create a VM for an *untransformed* program (golden / fi-stdapp).
    [lowered] lets callers that run the same program repeatedly lower it
    once (see {!Vm.create}). *)
let vm_plain ?seed ?budget ?lowered prog =
  let vm = Vm.create ?seed ?budget ?lowered prog in
  Extern.register_base vm;
  vm

(** Create a VM for a *transformed* program: base externs plus the
    external function wrappers for the given design. *)
let vm_dpmr ?seed ?budget ?lowered ~mode ?replicas prog =
  let vm = Vm.create ?seed ?budget ?lowered prog in
  Extern.register_base vm;
  Ext_wrappers.register ~mode ?replicas vm;
  vm

(** Convenience: run [prog] untransformed. *)
let run_plain ?seed ?budget ?args ?lowered prog =
  Vm.run ?args (vm_plain ?seed ?budget ?lowered prog)

(** Run an {e already-transformed} program with the design's wrappers —
    the repeat-run path: callers transform (and lower) once, then run per
    seed. *)
let run_transformed ?seed ?budget ?args ?lowered ~mode ?replicas tp =
  Vm.run ?args (vm_dpmr ?seed ?budget ?lowered ~mode ?replicas tp)

(** Convenience: transform [prog] under [cfg] and run it. *)
let run_dpmr ?seed ?budget ?args (cfg : Config.t) prog =
  run_transformed ?seed ?budget ?args ~mode:cfg.Config.mode
    ~replicas:cfg.Config.replicas (transform cfg prog)

(** {1 Snapshot/fork campaign execution} *)

(** Run an untransformed program watched for a whole group (see
    {!Vm.run_watched}): one copy-on-write snapshot per member, captured
    at that member's own divergence frontier. *)
let watched_plain ?seed ?budget ?args ?lowered prog limitss =
  Vm.run_watched ?args (vm_plain ?seed ?budget ?lowered prog) limitss

(** Same for an already-transformed program. *)
let watched_transformed ?seed ?budget ?args ?lowered ~mode ?replicas tp limitss =
  Vm.run_watched ?args (vm_dpmr ?seed ?budget ?lowered ~mode ?replicas tp) limitss

(** Fork an untransformed program from a snapshot: build its VM, swap in
    the captured state, run to completion.  Bit-identical to
    {!run_plain} with the same seed. *)
let resume_plain ?seed ?budget ?lowered prog snap =
  Vm.resume (vm_plain ?seed ?budget ?lowered prog) snap

(** Same for an already-transformed program vs {!run_transformed}. *)
let resume_transformed ?seed ?budget ?lowered ~mode ?replicas tp snap =
  Vm.resume (vm_dpmr ?seed ?budget ?lowered ~mode ?replicas tp) snap
