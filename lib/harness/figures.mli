(** One driver per evaluation table/figure of Chapters 3 and 4.

    Each entry re-runs the underlying experiment and prints the series
    the paper plots.  Results are cost-model units; the reproduced
    quantities are the shapes (see EXPERIMENTS.md). *)

type ctx
(** Caches per-variant classifications so overlapping figures share
    work; experiment contexts (golden runs) come from the engine's
    per-domain table ({!Dpmr_engine.Engine.experiment_for}). *)

(** [reps] repeats every fault-injection run with distinct seeds — the
    run-number dimension RN of the §3.6 experiment tuple.  [engine] runs
    all job batches (parallel workers + persistent result cache); when
    absent, a serial uncached engine reproduces the historical driver
    behaviour exactly. *)
val create :
  ?scale:int ->
  ?seed:int64 ->
  ?reps:int ->
  ?engine:Dpmr_engine.Engine.t ->
  unit ->
  ctx

(** (id, description, driver) for every experiment. *)
val all : (string * string * (ctx -> unit)) list

val ids : string list

(** Run one experiment by id; raises on unknown ids. *)
val run : ctx -> string -> unit

val run_all : ctx -> unit

val nversion_surface : ctx -> unit
(** Detection coverage of the layout-perm and pad-jitter diversities
    beside no diversity (SDS), on the resize and free fault models.  Not
    part of {!all} for the same byte-stability reason as {!forensics}. *)

val forensics : ctx -> string -> unit
(** [forensics ctx fig] re-runs [fig]'s fault grid under the baseline
    configuration with a trace sink installed on every run, printing one
    row per (app, site): the named corruption, the first divergent
    replica byte, the trace-derived corruption→detection distance and
    whether it agrees with the classification's t2d, and an explanation
    for every miss.  Not part of {!all}: [report all] output stays
    byte-identical whether or not tracing exists. *)
