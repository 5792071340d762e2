(** Experiment runner: builds the §3.5 variants, runs them, classifies
    each run with the Table 3.2 random variables. *)

open Dpmr_ir
module Config = Dpmr_core.Config
module Outcome = Dpmr_vm.Outcome

type workload = {
  name : string;
  build : unit -> Prog.t;  (** fresh program per call; never mutated *)
  args : string list;
}

val workload : ?args:string list -> string -> (unit -> Prog.t) -> workload

(** The §3.5 variant classes. *)
type variant =
  | Golden
  | Fi_stdapp of Inject.kind * Inject.site
  | Nofi_dpmr of Config.t
  | Fi_dpmr of Config.t * Inject.kind * Inject.site

(** One run, classified (§3.6). *)
type classification = {
  sf : bool;  (** successful fault injection *)
  co : bool;  (** correct output (vs. the golden run) *)
  ndet : bool;  (** natural detection: crash / error exit *)
  ddet : bool;  (** DPMR detection *)
  timeout : bool;
  t2d : int64 option;  (** time to fault detection, cost units *)
  cost : int64;
  peak_heap : int;
}

(** One requested run of a supervised campaign: a real classification,
    or an explicit hole for a job the supervisor gave up on (deadline,
    quarantine, retries exhausted).  Figures render [Job_failed] as a
    marked gap — never a silent drop, never a batch abort. *)
type job_failure = {
  fail_reason : string;  (** supervisor classification, e.g. ["deadline"] *)
  fail_attempts : int;
  fail_error : string;  (** rendering of the last exception *)
}

type run_result = Run of classification | Job_failed of job_failure

val result_classification : run_result -> classification option

(** A variant's program, built and lowered once per {!prepare} call;
    callers that rerun a variant (reps, run-seed sweeps) reuse the
    result rather than rebuilding. *)
type prepared = {
  pprog : Prog.t;
  plowered : Dpmr_vm.Lower.prog;
  pmode : Config.mode option;  (** [Some mode] iff the DPMR wrappers apply *)
}

type t = {
  wk : workload;
  base : Prog.t;
  golden : Outcome.run;
  budget : int64;  (** ~20x the golden cost (§3.6's timeout) *)
  seed : int64;
}

(** Build the experiment context: verifies the program and takes the
    golden run (raises if it does not exit normally). *)
val make : ?seed:int64 -> workload -> t

val classify : t -> Outcome.run -> classification
val prepare : t -> variant -> prepared
val run_variant : ?seed:int64 -> t -> variant -> classification
val sites : t -> Inject.kind -> Inject.site list

val overheads_of_classification : t -> classification -> float * float
(** (runtime, memory) overhead ratios of an already-classified non-FI
    run against the golden run. *)

val overheads : t -> Config.t -> float * float
(** Both overhead ratios from a {e single} [Nofi_dpmr] run — use this
    when both are needed; [overhead] and [memory_overhead] each cost a
    full run. *)

(** Mean variant cost over golden cost, non-FI runs (Equation 3.1). *)
val overhead : t -> Config.t -> float

val memory_overhead : t -> Config.t -> float

(** [StdNotAllDet] for one fault: fi-stdapp produced incorrect output
    without natural detection. *)
val std_not_all_det : t -> Inject.kind -> Inject.site -> bool

(** {1 Snapshot/fork campaign execution}

    A campaign cell's members (same workload, seeds, budget and variant
    class) differ only by injection site: each one's executed
    instruction stream is bit-identical to the {e uninjected} baseline
    until it first reaches its own divergence position.  {!plan_group}
    runs one watched baseline per cell and captures a copy-on-write
    snapshot at the first arrival at any member's position; feasible
    members then {!run_member} by resuming from the capture instead of
    replaying the shared warmup.  Every infeasibility degrades to
    from-zero execution with identical results. *)

val run_prepared : ?seed:int64 -> t -> prepared -> classification

type member_plan =
  | Zero
  | Inherit of Outcome.run
  | Fork of Dpmr_vm.Vm.snapshot

type group = {
  g_variants : variant array;
  g_prepared : prepared array;
  g_plans : member_plan array;
}

(** Content hash of the snapshot member [i] forks from, when one was
    captured — a finer-grained cache-key component. *)
val member_snapshot_hash : group -> int -> int64 option

val plan_group : ?seed:int64 -> t -> variant array -> group
val run_member : ?seed:int64 -> t -> group -> int -> classification
