(** One driver per evaluation table/figure.

    Every figure and table of Chapters 3 and 4 has an entry here that
    re-runs the underlying experiment and prints the series the paper
    plots.  Results are cost-model units (not milliseconds); the shapes —
    who wins, by what factor, where crossovers fall — are the reproduced
    quantity (see EXPERIMENTS.md). *)

module Config = Dpmr_core.Config
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Metrics = Dpmr_fi.Metrics
module Workloads = Dpmr_workloads.Workloads
module Engine = Dpmr_engine.Engine
module Job = Dpmr_engine.Job
module T = Table_fmt

type ctx = {
  scale : int;
  seed : int64;
  reps : int;
      (** repetitions per (site, variant) with distinct seeds — the run
          number RN of the (W, C, D, I, RN) experiment tuple (§3.6) *)
  engine : Engine.t;  (** runs every job batch: parallelism + result cache *)
  class_cache : (string, Experiment.run_result list) Hashtbl.t;
  snad_cache : (string, bool list) Hashtbl.t;  (** StdNotAllDet per site *)
}

let create ?(scale = 1) ?(seed = 42L) ?(reps = 1) ?engine () =
  let engine =
    (* absent an explicit engine, behave exactly like the historical
       serial driver: one worker, no persistent cache *)
    match engine with
    | Some e -> e
    | None -> Engine.create ~jobs:1 ~use_cache:false ~progress:false ()
  in
  {
    scale;
    seed;
    reps = max 1 reps;
    engine;
    class_cache = Hashtbl.create 64;
    snad_cache = Hashtbl.create 16;
  }

(* The calling domain's context for site enumeration and golden
   baselines: the engine's own per-domain one, which the same domain
   also executes jobs against.  Only the workload, scale and seed pick
   the context. *)
let experiment ctx name =
  Engine.experiment_for
    {
      Job.workload = name;
      scale = ctx.scale;
      exp_seed = ctx.seed;
      run_seed = ctx.seed;
      budget = 0L;
      variant = Experiment.Golden;
    }

(* ---------------- variant sets ---------------- *)

let diversities =
  [
    ("no-diversity", Config.No_diversity);
    ("zero-before-free", Config.Zero_before_free);
    ("rearrange-heap", Config.Rearrange_heap);
    ("pad-malloc-8", Config.Pad_malloc 8);
    ("pad-malloc-32", Config.Pad_malloc 32);
    ("pad-malloc-256", Config.Pad_malloc 256);
    ("pad-malloc-1024", Config.Pad_malloc 1024);
  ]

let policies =
  [
    ("all-loads", Config.All_loads);
    ("temporal-1/8", Config.Temporal Config.temporal_mask_1_8);
    ("temporal-1/2", Config.Temporal Config.temporal_mask_1_2);
    ("temporal-7/8", Config.Temporal Config.temporal_mask_7_8);
    ("static-10%", Config.Static 0.10);
    ("static-50%", Config.Static 0.50);
    ("static-90%", Config.Static 0.90);
  ]

let div_cfg mode d = { Config.default with Config.mode; diversity = d }

(* the policy study fixes rearrange-heap, the best diversity transform (§3.8) *)
let pol_cfg mode pol =
  { Config.default with Config.mode; diversity = Config.Rearrange_heap; policy = pol }

let apps = [ "art"; "bzip2"; "equake"; "mcf" ]

let kind_resize = Inject.Heap_array_resize 50
let kind_free = Inject.Immediate_free

let kind_tag = function
  | Inject.Heap_array_resize _ -> "resize"
  | Inject.Immediate_free -> "free"
  | Inject.Off_by_one -> "off-by-one"
  | Inject.Wild_store _ -> "wild-store"

(* ---------------- engine-batched data collection ---------------- *)

(** A cell is one (app, kind, variant) series: an in-process memo key
    plus the job specs that produce it.  Figures collect every cell they
    need and submit them to the engine as one batch, so the whole grid
    parallelizes and dedups across the figure, not per series. *)
type cell = { ckey : string; specs : Job.spec list }

(** Fault-injection cell: all sites × reps under one variant. *)
let fi_cell ctx app kind variant_key mk_variant =
  let ckey = Printf.sprintf "%s/%s/%s" app (kind_tag kind) variant_key in
  let specs =
    if Hashtbl.mem ctx.class_cache ckey then []
    else
      let e = experiment ctx app in
      List.concat_map
        (fun site ->
          List.init ctx.reps (fun rn ->
              let run_seed = Int64.add ctx.seed (Int64.of_int rn) in
              Job.make e ~workload:app ~scale:ctx.scale ~run_seed (mk_variant site)))
        (Experiment.sites e kind)
  in
  { ckey; specs }

let stdapp_cell ctx app kind =
  fi_cell ctx app kind "stdapp" (fun site -> Experiment.Fi_stdapp (kind, site))

let dpmr_cell ctx app kind cfg =
  fi_cell ctx app kind (Config.name cfg) (fun site ->
      Experiment.Fi_dpmr (cfg, kind, site))

(** Non-FI cell: a single DPMR run of a configuration (overhead/memory). *)
let nofi_cell ctx app cfg =
  let ckey = Printf.sprintf "nofi/%s/%s" app (Config.name cfg) in
  let specs =
    if Hashtbl.mem ctx.class_cache ckey then []
    else
      let e = experiment ctx app in
      [ Job.make e ~workload:app ~scale:ctx.scale ~run_seed:ctx.seed
          (Experiment.Nofi_dpmr cfg) ]
  in
  { ckey; specs }

(** Run every not-yet-memoized cell through the engine as one batch and
    memoize the per-cell result lists (holes included, so positional
    site x rep alignment survives failed jobs). *)
let ensure ctx cells =
  let pending =
    List.filter (fun c -> c.specs <> [] && not (Hashtbl.mem ctx.class_cache c.ckey)) cells
  in
  (* a cell can appear twice in one figure; keep the first occurrence *)
  let seen = Hashtbl.create 16 in
  let pending =
    List.filter
      (fun c ->
        if Hashtbl.mem seen c.ckey then false
        else begin
          Hashtbl.replace seen c.ckey ();
          true
        end)
      pending
  in
  let results = Engine.run_specs_r ctx.engine (List.concat_map (fun c -> c.specs) pending) in
  let rec split cells results =
    match cells with
    | [] -> ()
    | c :: rest ->
        let k = List.length c.specs in
        let mine = List.filteri (fun i _ -> i < k) results in
        let others = List.filteri (fun i _ -> i >= k) results in
        Hashtbl.replace ctx.class_cache c.ckey mine;
        split rest others
  in
  split pending results

let cell_results ctx cell =
  ensure ctx [ cell ];
  Hashtbl.find ctx.class_cache cell.ckey

(** Classifications of the runs that completed. *)
let ok_of rs = List.filter_map Experiment.result_classification rs

(** Number of holes ([Job_failed]) in a result list. *)
let failed_of rs =
  List.fold_left
    (fun n -> function Experiment.Job_failed _ -> n + 1 | Experiment.Run _ -> n)
    0 rs

let stdapp_results ctx app kind = cell_results ctx (stdapp_cell ctx app kind)
let dpmr_results ctx app kind cfg = cell_results ctx (dpmr_cell ctx app kind cfg)

(** (runtime, memory) overhead ratios of a configuration, engine-cached;
    [None] when the supervised run failed (hole in the table). *)
let overheads ctx app cfg =
  match cell_results ctx (nofi_cell ctx app cfg) with
  | Experiment.Run c :: _ ->
      Some (Experiment.overheads_of_classification (experiment ctx app) c)
  | _ -> None

let overhead ctx app cfg = Option.map fst (overheads ctx app cfg)
let memory_overhead ctx app cfg = Option.map snd (overheads ctx app cfg)

(** How a failed job renders: an explicit hole marker, never a silent
    drop and never a batch abort. *)
let hole = "!"

let ratio_cell = function Some x -> T.f2 x | None -> hole

(** StdNotAllDet flags, per site (the conditional-coverage filter). *)
let snad ctx app kind =
  let key = Printf.sprintf "%s/%s" app (kind_tag kind) in
  match Hashtbl.find_opt ctx.snad_cache key with
  | Some l -> l
  | None ->
      let l =
        (* per the Table 3.2 definition, a fault is StdNotAllDet if ANY
           stdapp run of it silently corrupts; with reps > 1 the flag is
           the per-site disjunction, replicated per repetition to align
           with the classification lists.  Computed over the FULL result
           list — a failed stdapp run cannot claim SNAD — so positions
           stay aligned with the (site x rep) grid even under holes *)
        let per_run =
          List.map
            (function
              | Experiment.Run (c : Experiment.classification) ->
                  c.Experiment.sf && (not c.Experiment.co) && not c.Experiment.ndet
              | Experiment.Job_failed _ -> false)
            (stdapp_results ctx app kind)
        in
        let n_sites = List.length per_run / ctx.reps in
        List.concat
          (List.init n_sites (fun s ->
               let site_any =
                 List.exists
                   (fun r -> List.nth per_run ((s * ctx.reps) + r))
                   (List.init ctx.reps (fun r -> r))
               in
               List.init ctx.reps (fun _ -> site_any)))
      in
      Hashtbl.replace ctx.snad_cache key l;
      l

(** Positional filter over a FULL result list (holes included), so the
    i-th result still answers the i-th (site, rep) slot. *)
let filter_snad ctx app kind rs =
  List.filteri
    (fun i _ -> match List.nth_opt (snad ctx app kind) i with Some b -> b | None -> false)
    rs

(* ---------------- coverage figures ---------------- *)

let cov_cells ?(failed = 0) cov =
  [
    T.f2 (Metrics.co_frac cov);
    T.f2 (Metrics.ndet_frac cov);
    T.f2 (Metrics.ddet_frac cov);
    T.f2 (Metrics.total cov);
    (* failed jobs are marked in the sample-size column ("115!3" = 115
       successful injections, 3 runs lost), so a degraded series is
       visibly degraded instead of silently smaller *)
    (if failed = 0 then string_of_int cov.Metrics.n_sf
     else Printf.sprintf "%d%s%d" cov.Metrics.n_sf hole failed);
  ]

let cov_header = [ "variant"; "app"; "CO"; "NatDet"; "DpmrDet"; "total"; "n" ]

(** Per-app coverage figure (3.6/3.7/3.11/3.12 and the 4.x analogues). *)
let coverage_figure ctx ~title ~kind ~variants ~mk_cfg =
  T.print_section title;
  ensure ctx
    (List.map (fun app -> stdapp_cell ctx app kind) apps
    @ List.concat_map
        (fun (_, v) -> List.map (fun app -> dpmr_cell ctx app kind (mk_cfg v)) apps)
        variants);
  let rows = ref [] in
  let row label app rs =
    rows := ([ label; app ] @ cov_cells ~failed:(failed_of rs) (Metrics.of_list (ok_of rs))) :: !rows
  in
  List.iter (fun app -> row "stdapp" app (stdapp_results ctx app kind)) apps;
  List.iter
    (fun (vname, v) ->
      List.iter (fun app -> row vname app (dpmr_results ctx app kind (mk_cfg v))) apps)
    variants;
  print_string (T.render (cov_header :: List.rev !rows))

(** Aggregated conditional coverage (3.8/3.9/3.13/3.14 and 4.x). *)
let cond_coverage_figure ctx ~title ~kind ~variants ~mk_cfg =
  T.print_section title;
  ensure ctx
    (List.map (fun app -> stdapp_cell ctx app kind) apps
    @ List.concat_map
        (fun (_, v) -> List.map (fun app -> dpmr_cell ctx app kind (mk_cfg v)) apps)
        variants);
  let rows = ref [] in
  let agg label results_of =
    let rs = List.concat_map (fun app -> filter_snad ctx app kind (results_of app)) apps in
    rows :=
      ([ label; "all" ] @ cov_cells ~failed:(failed_of rs) (Metrics.of_list (ok_of rs)))
      :: !rows
  in
  agg "stdapp" (fun app -> stdapp_results ctx app kind);
  List.iter
    (fun (vname, v) -> agg vname (fun app -> dpmr_results ctx app kind (mk_cfg v)))
    variants;
  print_string (T.render (cov_header :: List.rev !rows))

(* ---------------- overhead figures ---------------- *)

let overhead_figure ctx ~title ~variants ~mk_cfg =
  T.print_section title;
  ensure ctx
    (List.concat_map
       (fun (_, v) -> List.map (fun app -> nofi_cell ctx app (mk_cfg v)) apps)
       variants);
  let header = "variant" :: apps in
  let rows =
    ("golden" :: List.map (fun _ -> "1.00") apps)
    :: List.map
         (fun (vname, v) ->
           vname :: List.map (fun app -> ratio_cell (overhead ctx app (mk_cfg v))) apps)
         variants
  in
  print_string (T.render (header :: rows))

(** Side-by-side SDS/MDS overheads (Figures 4.3/4.4). *)
let side_by_side_overhead ctx ~title ~variants ~mk_cfg =
  T.print_section title;
  ensure ctx
    (List.concat_map
       (fun (_, v) ->
         List.concat_map
           (fun app ->
             [ nofi_cell ctx app (mk_cfg Config.Sds v);
               nofi_cell ctx app (mk_cfg Config.Mds v) ])
           apps)
       variants);
  let header = "variant" :: List.concat_map (fun a -> [ a ^ "/sds"; a ^ "/mds" ]) apps in
  let rows =
    List.map
      (fun (vname, v) ->
        vname
        :: List.concat_map
             (fun app ->
               [
                 ratio_cell (overhead ctx app (mk_cfg Config.Sds v));
                 ratio_cell (overhead ctx app (mk_cfg Config.Mds v));
               ])
             apps)
      variants
  in
  print_string (T.render (header :: rows))

(* ---------------- detection-latency tables ---------------- *)

let t2d_table ctx ~title ~variants ~mk_cfg =
  T.print_section title;
  ensure ctx
    (List.concat_map
       (fun kind ->
         List.concat_map
           (fun (_, v) -> List.map (fun app -> dpmr_cell ctx app kind (mk_cfg v)) apps)
           variants)
       [ kind_resize; kind_free ]);
  let header = [ "kind"; "variant" ] @ apps in
  let rows =
    List.concat_map
      (fun kind ->
        List.map
          (fun (vname, v) ->
            [ kind_tag kind; vname ]
            @ List.map
                (fun app ->
                  let rs = dpmr_results ctx app kind (mk_cfg v) in
                  match Metrics.mean_t2d (ok_of rs) with
                  | Some t -> Printf.sprintf "%.0f" t
                  | None -> if failed_of rs > 0 then hole else "--")
                apps)
          variants)
      [ kind_resize; kind_free ]
  in
  print_string (T.render (header :: rows))

(* ---------------- misc tables ---------------- *)

let table_3_1 () =
  T.print_section "Table 3.1: testbed specifications (simulated)";
  print_string
    (T.render
       [
         [ "component"; "value" ];
         [ "execution"; "deterministic IR interpreter (cost-unit clock)" ];
         [ "cost: load/store"; Printf.sprintf "%d/%d units" Dpmr_vm.Cost.load Dpmr_vm.Cost.store ];
         [ "cost: branch/cond-branch"; Printf.sprintf "%d/%d units" Dpmr_vm.Cost.branch Dpmr_vm.Cost.cond_branch ];
         [ "cost: malloc"; "40 + bytes/32 units (fresh chunk)" ];
         [ "heap"; "binned first-fit, 16-byte chunk headers, min payload 24B" ];
         [ "memory"; "demand-mapped 4 KiB pages, flat 64-bit space" ];
         [ "timeout"; "20x golden cost (deterministic)" ];
       ])

let table_3_2 () =
  T.print_section "Table 3.2: measurement components";
  print_string
    (T.render
       [
         [ "symbol"; "meaning" ];
         [ "SF"; "successful fault injection: injected code executed at least once" ];
         [ "CO"; "correct output: output and exit status match the golden run" ];
         [ "NatDet"; "natural detection: crash or error-indicating exit status" ];
         [ "DpmrDet"; "a DPMR load check or wrapper check aborted the program" ];
         [ "T2D"; "total cost minus cost at first successful injection" ];
         [ "StdNotAllDet"; "fi-stdapp produced incorrect output without natural detection" ];
         [ "overhead"; "mean variant cost / mean golden cost, non-FI runs" ];
       ])

let fig_3_16 () =
  T.print_section "Figure 3.16: periodicity-optimized temporal checking";
  let counter, periodic = Periodicity.measure () in
  print_string
    (T.render
       [
         [ "codegen"; "cost"; "relative" ];
         [ "counter-gated (Fig 3.16a)"; Int64.to_string counter; "1.00" ];
         [
           "unrolled periodic (Fig 3.16b)";
           Int64.to_string periodic;
           T.f2 (Int64.to_float periodic /. Int64.to_float counter);
         ];
       ])

(* ---------------- registry ---------------- *)

let sds = Config.Sds
let mds = Config.Mds

let all : (string * string * (ctx -> unit)) list =
  [
    ("table-3.1", "testbed specifications", fun _ -> table_3_1 ());
    ("table-3.2", "measurement components", fun _ -> table_3_2 ());
    ( "fig-3.6",
      "mean heap array resize coverage of diversity transformations (SDS)",
      fun ctx ->
        coverage_figure ctx
          ~title:"Figure 3.6: heap array resize coverage, diversity transforms (SDS)"
          ~kind:kind_resize ~variants:diversities ~mk_cfg:(div_cfg sds) );
    ( "fig-3.7",
      "mean immediate free coverage of diversity transformations (SDS)",
      fun ctx ->
        coverage_figure ctx
          ~title:"Figure 3.7: immediate free coverage, diversity transforms (SDS)"
          ~kind:kind_free ~variants:diversities ~mk_cfg:(div_cfg sds) );
    ( "fig-3.8",
      "conditional heap array resize coverage of diversity transformations (SDS)",
      fun ctx ->
        cond_coverage_figure ctx
          ~title:"Figure 3.8: conditional resize coverage, diversity transforms (SDS)"
          ~kind:kind_resize ~variants:diversities ~mk_cfg:(div_cfg sds) );
    ( "fig-3.9",
      "conditional immediate free coverage of diversity transformations (SDS)",
      fun ctx ->
        cond_coverage_figure ctx
          ~title:"Figure 3.9: conditional immediate-free coverage, diversity transforms (SDS)"
          ~kind:kind_free ~variants:diversities ~mk_cfg:(div_cfg sds) );
    ( "fig-3.10",
      "overhead of diversity transformations (SDS)",
      fun ctx ->
        overhead_figure ctx ~title:"Figure 3.10: overhead of diversity transforms (SDS)"
          ~variants:diversities ~mk_cfg:(div_cfg sds) );
    ( "table-3.3",
      "mean time to detection of diversity transformations (SDS)",
      fun ctx ->
        t2d_table ctx ~title:"Table 3.3: mean time to detection, diversity transforms (SDS)"
          ~variants:diversities ~mk_cfg:(div_cfg sds) );
    ( "fig-3.11",
      "heap array resize coverage of state comparison policies (SDS)",
      fun ctx ->
        coverage_figure ctx
          ~title:"Figure 3.11: resize coverage, comparison policies (SDS, rearrange-heap)"
          ~kind:kind_resize ~variants:policies ~mk_cfg:(pol_cfg sds) );
    ( "fig-3.12",
      "immediate free coverage of state comparison policies (SDS)",
      fun ctx ->
        coverage_figure ctx
          ~title:"Figure 3.12: immediate-free coverage, comparison policies (SDS)"
          ~kind:kind_free ~variants:policies ~mk_cfg:(pol_cfg sds) );
    ( "fig-3.13",
      "conditional resize coverage of state comparison policies (SDS)",
      fun ctx ->
        cond_coverage_figure ctx
          ~title:"Figure 3.13: conditional resize coverage, comparison policies (SDS)"
          ~kind:kind_resize ~variants:policies ~mk_cfg:(pol_cfg sds) );
    ( "fig-3.14",
      "conditional immediate-free coverage of state comparison policies (SDS)",
      fun ctx ->
        cond_coverage_figure ctx
          ~title:"Figure 3.14: conditional immediate-free coverage, comparison policies (SDS)"
          ~kind:kind_free ~variants:policies ~mk_cfg:(pol_cfg sds) );
    ( "fig-3.15",
      "overhead of state comparison policies (SDS)",
      fun ctx ->
        overhead_figure ctx
          ~title:"Figure 3.15: overhead of comparison policies (SDS, rearrange-heap)"
          ~variants:policies ~mk_cfg:(pol_cfg sds) );
    ("fig-3.16", "periodicity-optimized temporal checking", fun _ -> fig_3_16 ());
    ( "table-3.4",
      "mean time to detection of state comparison policies (SDS)",
      fun ctx ->
        t2d_table ctx ~title:"Table 3.4: mean time to detection, comparison policies (SDS)"
          ~variants:policies ~mk_cfg:(pol_cfg sds) );
    ( "fig-4.3",
      "side-by-side diversity transformation overheads of SDS and MDS",
      fun ctx ->
        side_by_side_overhead ctx
          ~title:"Figure 4.3: SDS vs MDS diversity overheads"
          ~variants:
            [
              ("no-diversity", Config.No_diversity);
              ("zero-before-free", Config.Zero_before_free);
              ("rearrange-heap", Config.Rearrange_heap);
              ("pad-malloc-32", Config.Pad_malloc 32);
            ]
          ~mk_cfg:div_cfg );
    ( "fig-4.4",
      "side-by-side comparison policy overheads of SDS and MDS",
      fun ctx ->
        side_by_side_overhead ctx
          ~title:"Figure 4.4: SDS vs MDS comparison-policy overheads (rearrange-heap)"
          ~variants:
            [
              ("static-10%", Config.Static 0.10);
              ("static-50%", Config.Static 0.50);
              ("static-90%", Config.Static 0.90);
              ("all-loads", Config.All_loads);
            ]
          ~mk_cfg:pol_cfg );
    ( "fig-4.5",
      "MDS overhead of diversity transformations",
      fun ctx ->
        overhead_figure ctx ~title:"Figure 4.5: overhead of diversity transforms (MDS)"
          ~variants:diversities ~mk_cfg:(div_cfg mds) );
    ( "fig-4.6",
      "MDS overhead of state comparison policies",
      fun ctx ->
        overhead_figure ctx ~title:"Figure 4.6: overhead of comparison policies (MDS)"
          ~variants:policies ~mk_cfg:(pol_cfg mds) );
    ( "fig-4.7",
      "mean MDS heap array resize coverage of diversity transformations",
      fun ctx ->
        coverage_figure ctx
          ~title:"Figure 4.7: resize coverage, diversity transforms (MDS)" ~kind:kind_resize
          ~variants:diversities ~mk_cfg:(div_cfg mds) );
    ( "fig-4.8",
      "mean MDS immediate free coverage of diversity transformations",
      fun ctx ->
        coverage_figure ctx
          ~title:"Figure 4.8: immediate-free coverage, diversity transforms (MDS)"
          ~kind:kind_free ~variants:diversities ~mk_cfg:(div_cfg mds) );
    ( "fig-4.9",
      "conditional MDS resize coverage of diversity transformations",
      fun ctx ->
        cond_coverage_figure ctx
          ~title:"Figure 4.9: conditional resize coverage, diversity transforms (MDS)"
          ~kind:kind_resize ~variants:diversities ~mk_cfg:(div_cfg mds) );
    ( "fig-4.10",
      "conditional MDS immediate-free coverage of diversity transformations",
      fun ctx ->
        cond_coverage_figure ctx
          ~title:"Figure 4.10: conditional immediate-free coverage, diversity transforms (MDS)"
          ~kind:kind_free ~variants:diversities ~mk_cfg:(div_cfg mds) );
    ( "fig-4.11",
      "MDS resize coverage of state comparison policies",
      fun ctx ->
        coverage_figure ctx
          ~title:"Figure 4.11: resize coverage, comparison policies (MDS)" ~kind:kind_resize
          ~variants:policies ~mk_cfg:(pol_cfg mds) );
    ( "fig-4.12",
      "MDS immediate-free coverage of state comparison policies",
      fun ctx ->
        coverage_figure ctx
          ~title:"Figure 4.12: immediate-free coverage, comparison policies (MDS)"
          ~kind:kind_free ~variants:policies ~mk_cfg:(pol_cfg mds) );
    ( "fig-4.13",
      "conditional MDS resize coverage of state comparison policies",
      fun ctx ->
        cond_coverage_figure ctx
          ~title:"Figure 4.13: conditional resize coverage, comparison policies (MDS)"
          ~kind:kind_resize ~variants:policies ~mk_cfg:(pol_cfg mds) );
    ( "fig-4.14",
      "conditional MDS immediate-free coverage of state comparison policies",
      fun ctx ->
        cond_coverage_figure ctx
          ~title:"Figure 4.14: conditional immediate-free coverage, comparison policies (MDS)"
          ~kind:kind_free ~variants:policies ~mk_cfg:(pol_cfg mds) );
    ( "table-4.5",
      "mean time to detection of diversity transformations under MDS",
      fun ctx ->
        t2d_table ctx ~title:"Table 4.5: mean time to detection, diversity transforms (MDS)"
          ~variants:diversities ~mk_cfg:(div_cfg mds) );
    ( "table-4.6",
      "mean time to detection of state comparison policies under MDS",
      fun ctx ->
        t2d_table ctx ~title:"Table 4.6: mean time to detection, comparison policies (MDS)"
          ~variants:policies ~mk_cfg:(pol_cfg mds) );
    ( "ext-off-by-one",
      "extension: coverage of off-by-one under-allocations (both designs)",
      fun ctx ->
        coverage_figure ctx
          ~title:"Extension: off-by-one coverage, rearrange-heap (SDS)"
          ~kind:Inject.Off_by_one
          ~variants:[ ("sds/rearrange", Config.Rearrange_heap) ]
          ~mk_cfg:(div_cfg sds);
        coverage_figure ctx
          ~title:"Extension: off-by-one coverage, rearrange-heap (MDS)"
          ~kind:Inject.Off_by_one
          ~variants:[ ("mds/rearrange", Config.Rearrange_heap) ]
          ~mk_cfg:(div_cfg mds) );
    ( "ext-wild-store",
      "extension: coverage of wild-pointer writes (both designs)",
      fun ctx ->
        coverage_figure ctx
          ~title:"Extension: wild-store coverage, no-diversity (SDS)"
          ~kind:(Inject.Wild_store 4096)
          ~variants:[ ("sds/no-diversity", Config.No_diversity) ]
          ~mk_cfg:(div_cfg sds);
        coverage_figure ctx
          ~title:"Extension: wild-store coverage, no-diversity (MDS)"
          ~kind:(Inject.Wild_store 4096)
          ~variants:[ ("mds/no-diversity", Config.No_diversity) ]
          ~mk_cfg:(div_cfg mds) );
    ( "detect-conditions",
      "§2.5 detection-conditions ablation (write/read/free manifestation classes)",
      fun ctx -> Detect_conditions.report ~engine:ctx.engine () );
    ( "rx-recovery",
      "extension: Rx-style recovery from DPMR detections (§1.5 pairing)",
      fun ctx ->
        T.print_section "Rx-style recovery from DPMR-detected resize faults";
        let kind = kind_resize in
        let cfg = div_cfg sds Config.No_diversity in
        (* enumerate (app, site, budget) on the main domain, then run the
           recovery attempts through the engine pool; each task rebuilds
           its program so no Prog.t crosses domains *)
        let work =
          List.concat_map
            (fun app ->
              let e = experiment ctx app in
              List.map
                (fun site -> (app, site, e.Experiment.budget))
                (Experiment.sites e kind))
            apps
        in
        let scale = ctx.scale in
        let results =
          Engine.run_tasks ctx.engine
            (List.map
               (fun (app, site, budget) () ->
                 let p = (Workloads.find app).Workloads.build ~scale () in
                 let injected = Dpmr_fi.Inject.apply p kind site in
                 Dpmr_core.Rx.run_with_recovery ~budget cfg injected
                   ~escalation:[ 8; 64; 1024 ])
               work)
        in
        let rows =
          List.filter_map
            (fun ((app, site, _), res) ->
              if Dpmr_vm.Outcome.is_dpmr_detect res.Dpmr_core.Rx.first then
                Some
                  [
                    app;
                    Dpmr_fi.Inject.site_name site;
                    (match res.Dpmr_core.Rx.recovered_with with
                    | Some pad -> Printf.sprintf "recovered (pad %d)" pad
                    | None -> "NOT recovered");
                    string_of_int res.Dpmr_core.Rx.attempts;
                  ]
              else None)
            (List.combine work results)
        in
        print_string
          (T.render ([ "app"; "detected fault site"; "outcome"; "re-executions" ] :: rows)) );
    ( "memory",
      "memory overhead of SDS and MDS (the §4.1 2x-4x / 2x claim)",
      fun ctx ->
        T.print_section "Memory overhead (peak heap bytes vs golden)";
        ensure ctx
          (List.concat_map
             (fun app ->
               [ nofi_cell ctx app (div_cfg sds Config.No_diversity);
                 nofi_cell ctx app (div_cfg mds Config.No_diversity) ])
             apps);
        let header = [ "app"; "sds"; "mds" ] in
        let rows =
          List.map
            (fun app ->
              [
                app;
                ratio_cell (memory_overhead ctx app (div_cfg sds Config.No_diversity));
                ratio_cell (memory_overhead ctx app (div_cfg mds Config.No_diversity));
              ])
            apps
        in
        print_string (T.render (header :: rows)) );
  ]

let ids = List.map (fun (id, _, _) -> id) all

let run ctx id =
  match List.find_opt (fun (i, _, _) -> i = id) all with
  | Some (_, _, f) -> f ctx
  | None -> invalid_arg (Printf.sprintf "Figures.run: unknown experiment %S" id)

let run_all ctx = List.iter (fun (id, _, _) -> run ctx id) all

(* ---------------- detection forensics ----------------

   Deliberately not in [all]: [report all]'s stdout is a byte-stable
   contract checked by CI golden diffs, and traced runs are a diagnostic
   view layered on top of it ([dpmr report forensics <fig-id>]). *)

module Forensics = Dpmr_fi.Forensics
module Telemetry = Dpmr_engine.Telemetry
module Analysis = Dpmr_trace.Forensics

(* Map a figure id onto the fault kind and design mode its grid uses:
   the registry descriptions name both. *)
let forensics_params fig =
  let desc =
    match List.find_opt (fun (i, _, _) -> i = fig) all with
    | Some (_, d, _) -> d
    | None -> invalid_arg (Printf.sprintf "Figures.forensics: unknown experiment %S" fig)
  in
  let has sub =
    let n = String.length sub and m = String.length desc in
    let rec go i = i + n <= m && (String.sub desc i n = sub || go (i + 1)) in
    go 0
  in
  let kind =
    if fig = "ext-off-by-one" then Inject.Off_by_one
    else if fig = "ext-wild-store" then Inject.Wild_store 4096
    else if has "free" then kind_free
    else kind_resize
  in
  let mode = if has "MDS" || has "mds" then mds else sds in
  (kind, mode)

(** Traced re-run of one figure's fault grid: every (app, site) cell of
    [fig]'s fault kind under the baseline configuration, each run with a
    trace sink installed, forensics-analyzed, and cross-checked against
    its classification's t2d.  One engine task per app (the experiment
    and its golden run are rebuilt inside the worker domain, like the
    rx-recovery figure, so no program crosses domains); per-domain sink
    summaries merge through the engine's telemetry. *)
let forensics ctx fig =
  let kind, mode = forensics_params fig in
  let cfg = div_cfg mode Config.No_diversity in
  T.print_section
    (Printf.sprintf "Detection forensics: %s faults, %s (grid of %s)" (kind_tag kind)
       (Config.mode_name mode) fig);
  let scale = ctx.scale and seed = ctx.seed in
  let per_app =
    Engine.run_tasks ctx.engine
      (List.map
         (fun app () ->
           let entry = Workloads.find app in
           let wk =
             Experiment.workload app (fun () -> entry.Workloads.build ~scale ())
           in
           let e = Experiment.make ~seed wk in
           let traced =
             List.map
               (fun site ->
                 (site, Forensics.run_variant e (Experiment.Fi_dpmr (cfg, kind, site))))
               (Experiment.sites e kind)
           in
           let summary =
             List.fold_left
               (fun acc (_, tr) -> Dpmr_trace.Trace.add_summary acc tr.Forensics.summary)
               Dpmr_trace.Trace.zero_summary traced
           in
           Telemetry.record_trace (Engine.telemetry ctx.engine) summary;
           traced)
         apps)
  in
  let fmt_corruption (tr : Forensics.traced) =
    match
      (tr.Forensics.report.Analysis.corruption, tr.Forensics.report.Analysis.first_bad_store)
    with
    | Some c, _ -> Fmt.str "%a" Analysis.pp_corruption c
    | None, Some (_, c) -> Fmt.str "%a" Analysis.pp_corruption c
    | None, None -> "-"
  in
  let fmt_divergence (tr : Forensics.traced) =
    match tr.Forensics.report.Analysis.detection with
    | Some { Analysis.addr = Some a; off = Some o; _ } ->
        Printf.sprintf "0x%Lx+%d" a o
    | _ -> "-"
  in
  let fmt_opt = function Some d -> string_of_int d | None -> "-" in
  let rows =
    List.concat
      (List.map2
         (fun app traced ->
           List.map
             (fun (site, tr) ->
               let c = tr.Forensics.classification in
               [
                 app;
                 Inject.site_name site;
                 Forensics.fate tr;
                 fmt_corruption tr;
                 fmt_divergence tr;
                 fmt_opt tr.Forensics.distance;
                 (match c.Experiment.t2d with
                 | Some t -> Int64.to_string t
                 | None -> "-");
                 (if tr.Forensics.consistent then "yes" else "NO");
               ])
             traced)
         apps per_app)
  in
  print_string
    (T.render
       ([
          "app"; "fault site"; "fate"; "corruption"; "divergent byte"; "trace dist";
          "t2d"; "agree";
        ]
       :: rows));
  let bad = List.filter (fun row -> List.nth row 7 = "NO") rows in
  if bad <> [] then
    Printf.printf "!! %d run(s) where trace distance disagrees with t2d\n"
      (List.length bad)

(* ---------------- extension-diversity detection surface ----------------

   Like forensics, deliberately not in [all]: [report all]'s stdout is a
   byte-stable golden contract, and the surface is the extension
   diversities' own figure ([dpmr report nversion-surface]). *)

(** Detection coverage of layout-perm and pad-jitter beside no
    diversity (SDS), per fault model, against the stdapp baseline.
    Every row is an ordinary engine-batched fault grid — cached,
    chaos-safe and distributable like any other figure. *)
let nversion_surface ctx =
  T.print_section "Extension-diversity detection surface (SDS)";
  let kinds = [ kind_resize; kind_free ] in
  let points =
    List.concat_map
      (fun kind ->
        List.map (fun d -> (kind, div_cfg sds d)) Config.[ No_diversity; Layout_perm; Pad_jitter ])
      kinds
  in
  ensure ctx
    (List.map (fun app -> stdapp_cell ctx app kind_resize) apps
    @ List.map (fun app -> stdapp_cell ctx app kind_free) apps
    @ List.concat_map (fun (kind, cfg) -> List.map (fun app -> dpmr_cell ctx app kind cfg) apps) points);
  let row kind label rs =
    [ kind_tag kind; label ] @ cov_cells ~failed:(failed_of rs) (Metrics.of_list (ok_of rs))
  in
  let stdapp_rows =
    List.map
      (fun kind -> row kind "stdapp" (List.concat_map (fun app -> stdapp_results ctx app kind) apps))
      kinds
  in
  let diversity_rows =
    List.map
      (fun (kind, cfg) ->
        row kind
          (Config.diversity_name cfg.Config.diversity)
          (List.concat_map (fun app -> dpmr_results ctx app kind cfg) apps))
      points
  in
  print_string
    (T.render
       ([ "kind"; "diversity"; "CO"; "NatDet"; "DpmrDet"; "total"; "n" ]
       :: (stdapp_rows @ diversity_rows)))
