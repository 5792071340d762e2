(** Experiment runner: builds variants (§3.5), runs them, and classifies
    each run with the Table 3.2 random variables. *)

open Dpmr_ir
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome

type workload = {
  name : string;
  build : unit -> Prog.t;  (** fresh program each call; never mutated by us *)
  args : string list;
}

let workload ?(args = [ "prog" ]) name build = { name; build; args }

(** Variant classes of §3.5.  [Golden] = unmodified, standard compilation;
    [Fi_stdapp] = fault injection only; [Nofi_dpmr] = DPMR only;
    [Fi_dpmr] = fault injection then DPMR. *)
type variant =
  | Golden
  | Fi_stdapp of Inject.kind * Inject.site
  | Nofi_dpmr of Config.t
  | Fi_dpmr of Config.t * Inject.kind * Inject.site

(** Classification of one run (Table 3.2 / §3.6). *)
type classification = {
  sf : bool;  (** successful fault injection: injected code executed *)
  co : bool;  (** correct output: output and exit match the golden run *)
  ndet : bool;  (** natural detection: crash or error-indicating exit *)
  ddet : bool;  (** DPMR detection *)
  timeout : bool;
  t2d : int64 option;  (** time to fault detection, cost units *)
  cost : int64;
  peak_heap : int;
}

(** What a supervised campaign records for one requested run: either a
    real classification, or an explicit hole.  A job the engine's
    supervisor gave up on (deadline, quarantine, retries exhausted) is
    carried through to the figures as [Job_failed] — a marked gap in the
    table, never a silent drop and never a batch abort. *)
type job_failure = {
  fail_reason : string;  (** supervisor classification, e.g. ["deadline"] *)
  fail_attempts : int;
  fail_error : string;  (** rendering of the last exception *)
}

type run_result = Run of classification | Job_failed of job_failure

let result_classification = function Run c -> Some c | Job_failed _ -> None

(** A variant's program, built and lowered once per {!prepare} call: the
    injection and DPMR transformation passes — and the VM's lowering —
    depend only on the variant, not on the run seed, so callers that
    rerun a variant (reps, seed sweeps) reuse the result.  Execution
    never mutates the program, so sharing across runs is safe. *)
type prepared = {
  pprog : Prog.t;
  plowered : Dpmr_vm.Lower.prog;
  pmode : Config.mode option;  (** [Some mode] iff the DPMR wrappers apply *)
}

type t = {
  wk : workload;
  base : Prog.t;  (** pristine program *)
  golden : Outcome.run;  (** reference run for correct-output and budget *)
  budget : int64;  (** ~20x the golden running time (§3.6's timeout) *)
  seed : int64;
}

let make ?(seed = 42L) wk =
  let base = wk.build () in
  Verifier.check_prog base;
  let golden = Dpmr.run_plain ~seed ~args:wk.args base in
  if golden.Outcome.outcome <> Outcome.Normal then
    invalid_arg
      (Printf.sprintf "Experiment.make: golden run of %s did not exit normally (%s)"
         wk.name
         (Outcome.to_string golden.Outcome.outcome));
  let budget = Int64.mul 20L (Int64.max golden.Outcome.cost 10_000L) in
  { wk; base; golden; budget; seed }

let classify t (r : Outcome.run) =
  let co = r.Outcome.outcome = Outcome.Normal && r.Outcome.output = t.golden.Outcome.output in
  let ndet =
    (not co)
    && (match r.Outcome.outcome with
       | Outcome.Crash _ | Outcome.App_exit _ -> true
       | Outcome.Normal | Outcome.Dpmr_detect _ | Outcome.Timeout -> false)
  in
  let ddet = (not co) && Outcome.is_dpmr_detect r in
  let t2d =
    match ((ndet || ddet), r.Outcome.fi_first_cost) with
    | true, Some first -> Some (Int64.sub r.Outcome.cost first)
    | _ -> None
  in
  {
    sf = r.Outcome.fi_first_cost <> None;
    co;
    ndet;
    ddet;
    timeout = r.Outcome.outcome = Outcome.Timeout;
    t2d;
    cost = r.Outcome.cost;
    peak_heap = r.Outcome.peak_heap_bytes;
  }

(* Deliberately not memoized per variant: the engine schedules repeat
   runs of one variant consecutively inside a batch, so callers that
   need reuse hold on to the result themselves, and retaining every
   variant's build for the experiment's lifetime measurably slows full
   sweeps down (major-heap growth across thousands of variants). *)
let prepare t variant =
  let plain prog =
    { pprog = prog; plowered = Dpmr_vm.Lower.lower_prog prog; pmode = None }
  in
  let dpmr ?fault (cfg : Config.t) prog =
    let tp = Dpmr.transform ?fault cfg prog in
    {
      pprog = tp;
      plowered = Dpmr_vm.Lower.lower_prog tp;
      pmode = Some cfg.Config.mode;
    }
  in
  match variant with
  | Golden -> plain t.base
  | Fi_stdapp (kind, site) -> plain (Inject.apply t.base kind site)
  | Nofi_dpmr cfg -> dpmr cfg t.base
  | Fi_dpmr (cfg, kind, site) ->
      (* numbering the fault's code last keeps the member positionally
         equal to its uninjected baseline outside that code *)
      let prog, fault = Inject.locate t.base kind site in
      dpmr ~fault cfg prog

(** Run one variant to completion. *)
let run_variant ?seed t variant =
  let seed = Option.value seed ~default:t.seed in
  let p = prepare t variant in
  let r =
    match p.pmode with
    | None ->
        Dpmr.run_plain ~seed ~budget:t.budget ~args:t.wk.args
          ~lowered:p.plowered p.pprog
    | Some mode ->
        Dpmr.run_transformed ~seed ~budget:t.budget ~args:t.wk.args
          ~lowered:p.plowered ~mode p.pprog
  in
  classify t r

(** All injectable sites of the pristine program for a fault type. *)
let sites t kind = Inject.sites kind t.base

(** Runtime and memory overhead ratios of a classified non-FI run
    against this experiment's golden run. *)
let overheads_of_classification t (c : classification) =
  ( Int64.to_float c.cost /. Int64.to_float t.golden.Outcome.cost,
    float_of_int c.peak_heap /. float_of_int t.golden.Outcome.peak_heap_bytes )

(** Both overhead ratios of a configuration from a single run. *)
let overheads t cfg = overheads_of_classification t (run_variant t (Nofi_dpmr cfg))

(** Overhead of a configuration on this workload: mean DPMR cost over mean
    golden cost, non-fault-injection runs (Equation 3.1). *)
let overhead t cfg = fst (overheads t cfg)

(** Memory overhead (peak heap) of a configuration. *)
let memory_overhead t cfg = snd (overheads t cfg)

(** [StdNotAllDet] for one fault: under the fi-stdapp variant the fault
    produced incorrect output without natural detection (the deterministic
    single-run reading of Table 3.2's definition). *)
let std_not_all_det t kind site =
  let c = run_variant t (Fi_stdapp (kind, site)) in
  c.sf && (not c.co) && not c.ndet

(* ------------------------------------------------------------------ *)
(* Snapshot/fork campaign execution                                    *)
(* ------------------------------------------------------------------ *)

(** Run an already-{!prepare}d variant from zero. *)
let run_prepared ?seed t p =
  let seed = Option.value seed ~default:t.seed in
  let r =
    match p.pmode with
    | None ->
        Dpmr.run_plain ~seed ~budget:t.budget ~args:t.wk.args
          ~lowered:p.plowered p.pprog
    | Some mode ->
        Dpmr.run_transformed ~seed ~budget:t.budget ~args:t.wk.args
          ~lowered:p.plowered ~mode p.pprog
  in
  classify t r

(** How one member of a snapshot group executes. *)
type member_plan =
  | Zero  (** no usable shared prefix: run from zero *)
  | Inherit of Outcome.run
      (** the watched baseline ended without reaching this member's
          divergence frontier, so the member's run is bit-identical to
          the baseline's — this outcome {e is} the member's outcome *)
  | Fork of Dpmr.Vm.snapshot
      (** copy-on-write state captured at the member's frontier; the
          member resumes from it *)

type group = {
  g_variants : variant array;
  g_prepared : prepared array;
  g_plans : member_plan array;
}

let member_snapshot_hash g i =
  match g.g_plans.(i) with
  | Fork snap -> Some (Dpmr.Vm.snapshot_hash snap)
  | Zero | Inherit _ -> None

(** Plan one snapshot group: the members of a (workload, seeds, budget,
    variant-class) campaign cell.  Prepares every member, computes each
    one's structural divergence frontier against the class baseline —
    the same program {e without} the injection — and runs ONE watched
    baseline that captures the VM copy-on-write at the first arrival at
    each member's own frontier.  Execution up to a member's frontier is
    bit-identical to that member's from-zero run, so forks inherit the
    shared warmup instead of replaying it; members whose frontier is
    never reached inherit the baseline's entire outcome, and the
    baseline stops early once every member is resolved.  Anything that
    makes sharing unsound (differing globals or signatures, capture
    inside an extern callback, active tracing) degrades that member —
    or the whole plan — to from-zero execution: identical results, just
    no speedup. *)
let plan_group ?seed t variants =
  let seed = Option.value seed ~default:t.seed in
  let prepared = Array.map (prepare t) variants in
  let plans = Array.map (fun _ -> Zero) variants in
  let group = { g_variants = variants; g_prepared = prepared; g_plans = plans } in
  (* the cell is homogeneous by construction (one variant class, one
     config), so the first member names the baseline; Golden and
     Nofi_dpmr members diff empty against it and ride the baseline run
     as whole-outcome inherits *)
  let bv =
    match variants.(0) with
    | Golden | Fi_stdapp _ -> Golden
    | Nofi_dpmr cfg | Fi_dpmr (cfg, _, _) -> Nofi_dpmr cfg
  in
  let bp = prepare t bv in
  (let limits =
     Array.map (fun p -> Dpmr_vm.Lower.diff_limits bp.plowered p.plowered) prepared
   in
   let feas =
     List.filter
       (fun i -> limits.(i) <> None)
       (List.init (Array.length variants) Fun.id)
   in
   if feas <> [] then
     let limitss = Array.of_list (List.map (fun i -> Option.get limits.(i)) feas) in
     let watched () =
       match bp.pmode with
       | None ->
           Dpmr.watched_plain ~seed ~budget:t.budget ~args:t.wk.args
             ~lowered:bp.plowered bp.pprog limitss
       | Some mode ->
           Dpmr.watched_transformed ~seed ~budget:t.budget ~args:t.wk.args
             ~lowered:bp.plowered ~mode bp.pprog limitss
     in
     match watched () with
     | results ->
         List.iteri
           (fun j i ->
             plans.(i) <-
               (match results.(j) with
               | Dpmr.Vm.Wsnap snap -> Fork snap
               | Dpmr.Vm.Wshared r -> Inherit r
               | Dpmr.Vm.Wzero -> Zero))
           feas
     | exception Dpmr.Vm.Watch_infeasible -> ());
  group

(** Run member [i] of a planned group.  Deterministic — safe to re-run
    on supervisor retries — and bit-identical to
    [run_variant ~seed t g.g_variants.(i)]. *)
let run_member ?seed t g i =
  let seed = Option.value seed ~default:t.seed in
  let p = g.g_prepared.(i) in
  match g.g_plans.(i) with
  | Zero -> run_prepared ~seed t p
  | Inherit r -> classify t r
  | Fork snap ->
      let r =
        match p.pmode with
        | None ->
            Dpmr.resume_plain ~seed ~budget:t.budget ~lowered:p.plowered p.pprog snap
        | Some mode ->
            Dpmr.resume_transformed ~seed ~budget:t.budget ~lowered:p.plowered ~mode
              p.pprog snap
      in
      classify t r
