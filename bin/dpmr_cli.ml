(** Command-line interface to the DPMR reproduction.

    - [dpmr run <workload>] — run a workload golden or under a DPMR config;
    - [dpmr transform <workload>] — print the transformed IR;
    - [dpmr sites <workload>] — list fault-injection sites;
    - [dpmr inject <workload> --site N] — run one fault-injection experiment;
    - [dpmr dsa <workload>] — Data Structure Analysis exclusion ratios;
    - [dpmr recover <workload>] — inject, detect, recover Rx-style;
    - [dpmr report <id>|all] — regenerate a paper table/figure, in
      parallel and backed by the result cache ([--jobs]/[--no-cache]);
      supervised runs accept [--deadline] and chaos injection
      ([--chaos]/[DPMR_CHAOS]); [--telemetry-json FILE] dumps the
      engine telemetry as JSON;
    - [dpmr report forensics [FIG]] — traced re-run of a figure's fault
      grid with per-run corruption→detection forensics;
    - [dpmr trace run <workload>] — record an execution trace, print
      cost profiles, export Chrome trace-event / Perfetto JSON;
    - [dpmr trace validate FILE] — schema-check an exported trace;
    - [dpmr cache stats|verify|clear] — inspect, check or wipe the
      result cache ([verify] exits nonzero on damage);
    - [dpmr list] — list workloads and experiment ids. *)

open Cmdliner
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome
module Workloads = Dpmr_workloads.Workloads
module Inject = Dpmr_fi.Inject
module Experiment = Dpmr_fi.Experiment
module Figures = Dpmr_harness.Figures
module Engine = Dpmr_engine.Engine
module Cache = Dpmr_engine.Cache
module Job = Dpmr_engine.Job
module Chaos = Dpmr_engine.Chaos
module Supervisor = Dpmr_engine.Supervisor
module Dispatch = Dpmr_engine.Dispatch
module Telemetry = Dpmr_engine.Telemetry
module Remote = Dpmr_server.Remote
module Trace = Dpmr_trace.Trace
module Export = Dpmr_trace.Export
module Json_check = Dpmr_trace.Json_check
module Analysis = Dpmr_trace.Forensics
module Forensics = Dpmr_fi.Forensics
module Drain = Dpmr_server.Drain

(* ---- shared options ---- *)

let scale_t =
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Workload scale factor.")

let seed_t =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

(* a variant atom, parsed by the module that owns its type (the same
   parser the wire protocol calls) and printed so that it parses back *)
let atom what parse print =
  let parse s =
    match parse s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "bad %s %S" what s))
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (print v))

let mode_t =
  Arg.(
    value
    & opt (atom "mode" Config.mode_of_string Config.mode_name) Config.Sds
    & info [ "mode" ] ~doc:"Replication design: sds or mds.")

let diversity_t =
  Arg.(
    value
    & opt (atom "diversity" Config.diversity_of_string Config.diversity_name) Config.No_diversity
    & info [ "diversity" ]
        ~doc:"none | zero-before-free | rearrange-heap | layout-perm | pad-jitter | \
              pad-<bytes> | pad-stack-<bytes> (also spelled pad-malloc-<bytes> and \
              pad-alloca-<bytes>; sizes are non-negative).")

let policy_t =
  Arg.(
    value
    & opt (atom "policy" Config.policy_of_string Config.policy_repr) Config.All_loads
    & info [ "policy" ]
        ~doc:"all-loads | temporal-1/8 | temporal-1/2 | temporal-7/8 | static-<pct> \
              (a non-negative decimal), or the exact hex atom of a cache key.")

let kind_t =
  Arg.(
    value
    & opt (atom "fault kind" Inject.kind_of_string Inject.kind_repr) (Inject.Heap_array_resize 50)
    & info [ "kind" ]
        ~doc:"resize (= resize-50) | resize-<pct kept, 1-99> | free | off-by-one | \
              wild-store-<bytes>.")

let plain_t =
  Arg.(value & flag & info [ "plain" ] ~doc:"Run without the DPMR transformation.")

let cfg_of mode diversity policy seed =
  { Config.mode; diversity; policy; seed }

let workload_t =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let die fmt = Printf.ksprintf (fun m -> Printf.eprintf "dpmr: %s\n" m; exit 2) fmt

let build_workload name scale =
  match List.find_opt (fun (e : Workloads.entry) -> e.Workloads.name = name) Workloads.all with
  | Some entry -> entry.Workloads.build ~scale ()
  | None ->
      die "unknown workload %S (try: %s)" name (String.concat ", " Workloads.names)

let report_run (r : Outcome.run) =
  Printf.printf "outcome : %s\n" (Outcome.to_string r.Outcome.outcome);
  Printf.printf "cost    : %Ld units\n" r.Outcome.cost;
  Printf.printf "heap    : %d bytes peak\n" r.Outcome.peak_heap_bytes;
  Printf.printf "output  :\n%s" r.Outcome.output

(* ---- commands ---- *)

let run_cmd =
  let go name scale seed mode diversity policy plain =
    let prog = build_workload name scale in
    let r =
      if plain then Dpmr.run_plain ~seed prog
      else Dpmr.run_dpmr ~seed (cfg_of mode diversity policy seed) prog
    in
    report_run r
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a workload, optionally under DPMR.")
    Term.(
      const go $ workload_t $ scale_t $ seed_t $ mode_t $ diversity_t $ policy_t $ plain_t)

let transform_cmd =
  let go name scale seed mode diversity policy =
    let prog = build_workload name scale in
    let tp = Dpmr.transform (cfg_of mode diversity policy seed) prog in
    print_string (Dpmr_ir.Text.emit tp)
  in
  Cmd.v (Cmd.info "transform" ~doc:"Print the DPMR-transformed IR of a workload.")
    Term.(const go $ workload_t $ scale_t $ seed_t $ mode_t $ diversity_t $ policy_t)

let sites_cmd =
  let go name scale =
    let prog = build_workload name scale in
    List.iter
      (fun kind ->
        Printf.printf "%s:\n" (Inject.kind_name kind);
        List.iteri
          (fun i s -> Printf.printf "  [%d] %s\n" i (Inject.site_name s))
          (Inject.sites kind prog))
      [ Inject.Heap_array_resize 50; Inject.Immediate_free ]
  in
  Cmd.v (Cmd.info "sites" ~doc:"List fault-injection sites of a workload.")
    Term.(const go $ workload_t $ scale_t)

let inject_cmd =
  let site_t = Arg.(value & opt int 0 & info [ "site" ] ~docv:"N" ~doc:"Site index.") in
  let go name scale seed mode diversity policy plain kind site_idx =
    let wk = Experiment.workload name (fun () -> build_workload name scale) in
    let e = Experiment.make ~seed wk in
    let sites = Experiment.sites e kind in
    match List.nth_opt sites site_idx with
    | None -> Printf.eprintf "no such site (have %d)\n" (List.length sites)
    | Some site ->
        let variant =
          if plain then Experiment.Fi_stdapp (kind, site)
          else Experiment.Fi_dpmr (cfg_of mode diversity policy seed, kind, site)
        in
        let c = Experiment.run_variant e variant in
        Printf.printf "site    : %s\n" (Inject.site_name site);
        Printf.printf "sf      : %b\n" c.Experiment.sf;
        Printf.printf "correct : %b\n" c.Experiment.co;
        Printf.printf "natdet  : %b\n" c.Experiment.ndet;
        Printf.printf "dpmrdet : %b\n" c.Experiment.ddet;
        Printf.printf "timeout : %b\n" c.Experiment.timeout;
        (match c.Experiment.t2d with
        | Some t -> Printf.printf "t2d     : %Ld units\n" t
        | None -> ())
  in
  Cmd.v (Cmd.info "inject" ~doc:"Run one fault-injection experiment.")
    Term.(
      const go $ workload_t $ scale_t $ seed_t $ mode_t $ diversity_t $ policy_t $ plain_t
      $ kind_t $ site_t)

let dump_cmd =
  let go name scale =
    print_string (Dpmr_ir.Text.emit (build_workload name scale))
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Serialize a workload to the textual IR format.")
    Term.(const go $ workload_t $ scale_t)

let runfile_cmd =
  let file_t = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ir") in
  let go file seed mode diversity policy plain =
    let ic = open_in file in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    let prog =
      try Dpmr_ir.Text.parse src
      with Dpmr_ir.Text.Parse_error (line, msg) ->
        Printf.eprintf "%s:%d: %s\n" file line msg;
        exit 1
    in
    Dpmr_vm.Extern.declare_signatures prog;
    Dpmr_ir.Verifier.check_prog prog;
    let r =
      if plain then Dpmr.run_plain ~seed prog
      else Dpmr.run_dpmr ~seed (cfg_of mode diversity policy seed) prog
    in
    report_run r
  in
  Cmd.v
    (Cmd.info "runfile" ~doc:"Parse a textual-IR file and run it (optionally under DPMR).")
    Term.(const go $ file_t $ seed_t $ mode_t $ diversity_t $ policy_t $ plain_t)

let dsa_cmd =
  let dump_t =
    Arg.(value & flag & info [ "dump" ] ~doc:"Also print each function's DS graph.")
  in
  let go name scale dump =
    let prog = build_workload name scale in
    let scope = Dpmr_dsa.Scope.compute prog in
    Printf.printf "%-16s %s\n" "function" "excluded DS nodes";
    Dpmr_ir.Prog.iter_funcs prog (fun f ->
        let fname = f.Dpmr_ir.Func.name in
        Printf.printf "%-16s %14.0f%%\n" fname
          (100.0 *. Dpmr_dsa.Scope.exclusion_ratio scope fname));
    if dump then begin
      let summary = Dpmr_dsa.Interproc.analyze prog in
      Dpmr_ir.Prog.iter_funcs prog (fun f ->
          let fname = f.Dpmr_ir.Func.name in
          match Hashtbl.find_opt summary.Dpmr_dsa.Interproc.results fname with
          | Some res ->
              Printf.printf "\nDS graph for %s:\n" fname;
              Fmt.pr "%a@." Dpmr_dsa.Graph.pp res.Dpmr_dsa.Local.graph
          | None -> ())
    end
  in
  Cmd.v
    (Cmd.info "dsa" ~doc:"Run Data Structure Analysis and print exclusion ratios.")
    Term.(const go $ workload_t $ scale_t $ dump_t)

let recover_cmd =
  let site_t = Arg.(value & opt int 0 & info [ "site" ] ~docv:"N" ~doc:"Site index.") in
  let go name scale seed mode diversity policy kind site_idx =
    let wk = Experiment.workload name (fun () -> build_workload name scale) in
    let e = Experiment.make ~seed wk in
    match List.nth_opt (Experiment.sites e kind) site_idx with
    | None -> Printf.eprintf "no such site\n"
    | Some site ->
        let injected = Dpmr_fi.Inject.apply e.Experiment.base kind site in
        let cfg = cfg_of mode diversity policy seed in
        (* the paper's Rx environment change: escalating heap pads *)
        let res =
          Dpmr_core.Rx.run_with_recovery ~budget:e.Experiment.budget cfg injected
            ~escalation:[ 8; 64; 1024; 8192 ]
        in
        Printf.printf "first run : %s\n"
          (Outcome.to_string res.Dpmr_core.Rx.first.Outcome.outcome);
        Printf.printf "attempts  : %d\n" res.Dpmr_core.Rx.attempts;
        (match res.Dpmr_core.Rx.recovered_with with
        | Some pad -> Printf.printf "recovered : yes, with pad %d\n" pad
        | None -> Printf.printf "recovered : no\n");
        Printf.printf "final     : %s\n"
          (Outcome.to_string res.Dpmr_core.Rx.final.Outcome.outcome)
  in
  Cmd.v
    (Cmd.info "recover" ~doc:"Inject a fault, detect it with DPMR, recover Rx-style.")
    Term.(
      const go $ workload_t $ scale_t $ seed_t $ mode_t $ diversity_t $ policy_t $ kind_t
      $ site_t)

let jobs_t =
  Arg.(
    value
    & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains that execute experiment runs: the calling domain and N - 1 workers \
           (0 = one per recommended core).")

let no_cache_t =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the on-disk result cache.")

let no_snapshot_t =
  Arg.(
    value & flag
    & info [ "no-snapshot" ]
        ~doc:
          "Run every grid job from zero instead of forking fault-injection \
           cells from a shared copy-on-write baseline snapshot.  Output is \
           byte-identical either way.")

let report_cmd =
  let id_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID|all|forensics")
  in
  let fig_t =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FIG"
          ~doc:"Figure whose fault grid 'report forensics' re-runs (default fig-3.6).")
  in
  let telemetry_json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-json" ] ~docv:"FILE"
          ~doc:
            "Write the engine telemetry (jobs, retries, cache hit rate, wall \
             time, GC counts, trace totals) as JSON to $(docv).")
  in
  let reps_t =
    Arg.(value & opt int 1 & info [ "reps" ] ~docv:"N"
           ~doc:"Repetitions per injection with distinct seeds (the RN dimension).")
  in
  let chaos_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"P[,SEED]"
          ~doc:
            "Deterministically inject faults into the engine's own workers and \
             cache writes with probability $(docv) (0 disables; overrides \
             DPMR_CHAOS).  Output must survive unchanged.")
  in
  let deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:"Per-attempt wall-clock deadline for supervised jobs (0 = none).")
  in
  let retries_t =
    Arg.(
      value
      & opt int Supervisor.default_policy.Supervisor.max_retries
      & info [ "retries" ] ~docv:"N"
          ~doc:"Extra attempts granted to transiently failing jobs.")
  in
  let backoff_ms_t =
    Arg.(
      value
      & opt float (Supervisor.default_policy.Supervisor.backoff *. 1000.)
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base backoff between retry attempts, milliseconds (doubles per \
                attempt, deterministically jittered).")
  in
  let remote_workers_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "workers" ] ~docv:"HOST:PORT,..."
          ~doc:
            "Scatter cache misses to resident dpmr_serve workers \
             (comma-separated $(i,HOST:PORT) or $(i,unix:PATH) addresses) and \
             gather their verdicts; the local pool remains the degradation \
             path.  Output is byte-identical to a local run.")
  in
  let min_workers_t =
    Arg.(
      value & opt int 0
      & info [ "min-workers" ] ~docv:"N"
          ~doc:
            "Fail jobs (explicit '!' holes, never an aborted batch) instead of \
             running them locally once fewer than $(docv) workers stay \
             healthy.  0 = degrade to local execution silently.")
  in
  let window_t =
    Arg.(
      value & opt int Dispatch.default_policy.Dispatch.window
      & info [ "window" ] ~docv:"N"
          ~doc:"Outstanding chunks per worker (its scatter window).")
  in
  let chunk_t =
    Arg.(
      value & opt int 0
      & info [ "chunk" ] ~docv:"N"
          ~doc:"Jobs per dispatched chunk (0 = size automatically from the \
                batch and worker count).")
  in
  let hedge_ms_t =
    Arg.(
      value
      & opt float (Dispatch.default_policy.Dispatch.hedge_after *. 1000.)
      & info [ "hedge-ms" ] ~docv:"MS"
          ~doc:"Duplicate a straggling chunk onto a second healthy worker \
                after $(docv) milliseconds; first result wins (0 disables).")
  in
  let go id fig scale seed reps jobs no_cache no_snapshot
      chaos deadline retries backoff_ms telemetry_json remote_workers
      min_workers window chunk hedge_ms =
    (match chaos with
    | None -> () (* DPMR_CHAOS, if set, still applies via Chaos.active *)
    | Some "0" -> Chaos.set None
    | Some s -> (
        match Chaos.parse s with
        | Some c -> Chaos.set (Some c)
        | None -> die "bad --chaos %S (want P or P,SEED with 0 < P <= 1)" s));
    let policy =
      let base = Supervisor.default_policy in
      let backoff = Float.max 0. (backoff_ms /. 1000.) in
      {
        Supervisor.max_retries = max 0 retries;
        backoff;
        backoff_max = Float.max base.Supervisor.backoff_max (backoff *. 10.);
        deadline =
          (match deadline with
          | None -> base.Supervisor.deadline
          | Some d when d <= 0. -> None
          | Some d -> Some d);
      }
    in
    let jobs = if jobs <= 0 then Engine.default_jobs () else jobs in
    let dispatcher =
      match remote_workers with
      | None -> None
      | Some spec ->
          let hosts =
            String.split_on_char ',' spec
            |> List.map String.trim
            |> List.filter (fun h -> h <> "")
          in
          if hosts = [] then die "bad --workers %S (want HOST:PORT,...)" spec;
          let dpolicy =
            {
              Dispatch.default_policy with
              Dispatch.base = policy;
              window = max 1 window;
              chunk_jobs = max 0 chunk;
              hedge_after = Float.max 0. (hedge_ms /. 1000.);
              min_workers = max 0 min_workers;
            }
          in
          let timeout =
            (* generous per-socket timeout: a worker that stalls past it is
               treated as down, re-dispatched, and probed back to health *)
            match policy.Supervisor.deadline with
            | Some d -> Float.max 30. (4. *. d)
            | None -> 120.
          in
          Some (Dispatch.create ~policy:dpolicy (Remote.transport ~timeout ()) ~hosts)
    in
    let engine =
      Engine.create ~jobs ~use_cache:(not no_cache)
        ~snapshots:(not no_snapshot)
        ~policy ?dispatcher ()
    in
    let write_telemetry () =
      match telemetry_json with
      | None -> ()
      | Some file ->
          let oc = open_out file in
          output_string oc
            (Telemetry.to_json (Engine.telemetry engine) ~workers:(Engine.jobs engine)
               ~cache:(Engine.cache_stats engine)
               ~tier:(Dpmr_vm.Vm.tier_stats ())
               ?dispatch:(Engine.dispatcher engine));
          close_out oc
    in
    (* a SIGINT/SIGTERM mid-grid keeps everything finished so far: the
       cache frames reach disk and the telemetry snapshot is written —
       the same wind-down the serving daemon performs on drain *)
    Drain.on_cleanup (fun () ->
        Engine.drain engine;
        write_telemetry ());
    Drain.graceful_exit ();
    let ctx = Figures.create ~scale ~seed ~reps ~engine () in
    (if id = "all" then Figures.run_all ctx
     else if id = "forensics" then
       Figures.forensics ctx (Option.value fig ~default:"fig-3.6")
     else if id = "nversion-surface" then Figures.nversion_surface ctx
     else if List.mem id Figures.ids then Figures.run ctx id
     else die "unknown experiment %S (see 'dpmr list')" id);
    Engine.print_summary engine;
    write_telemetry ();
    Engine.close engine
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate a paper table/figure ('all' for everything; 'forensics \
             FIG' for a traced fault grid).")
    Term.(
      const go $ id_t $ fig_t $ scale_t $ seed_t $ reps_t
      $ jobs_t $ no_cache_t $ no_snapshot_t $ chaos_t
      $ deadline_t $ retries_t $ backoff_ms_t $ telemetry_json_t
      $ remote_workers_t $ min_workers_t $ window_t $ chunk_t $ hedge_ms_t)

let cache_cmd =
  let action_t =
    Arg.(required
         & pos 0 (some (enum [ ("stats", `Stats); ("verify", `Verify); ("clear", `Clear) ])) None
         & info [] ~docv:"stats|verify|clear")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Machine-readable output (stats only): one JSON object on stdout.")
  in
  let dir_t =
    Arg.(
      value
      & opt string Cache.default_dir
      & info [ "dir" ] ~docv:"DIR" ~doc:"Cache directory to inspect.")
  in
  let print_disk_stats (s : Cache.disk_stats) =
    Printf.printf "dir     : %s (%d file(s) of %d shards)\n" s.Cache.path s.Cache.files
      Cache.shard_count;
    Printf.printf "entries : %d (%d current, %d stale-salt)\n" s.Cache.total
      s.Cache.current s.Cache.stale;
    Printf.printf "damaged : %d line(s)%s\n" s.Cache.damaged
      (if s.Cache.torn_tail then " + torn tail" else "");
    (* hit rate of the persisted entries: the share a next run can serve
       from cache (stale-salt and damaged lines miss) *)
    let pct part =
      if s.Cache.total = 0 then 0.
      else 100. *. float_of_int part /. float_of_int s.Cache.total
    in
    Printf.printf "rate    : %.1f%% current (servable), %.1f%% stale-salt\n"
      (pct s.Cache.current) (pct s.Cache.stale);
    let populated =
      Array.fold_left
        (fun n (sh : Cache.shard_stats) -> if sh.Cache.sh_records > 0 then n + 1 else n)
        0 s.Cache.per_shard
    in
    let widest =
      Array.fold_left
        (fun m (sh : Cache.shard_stats) -> max m sh.Cache.sh_records)
        0 s.Cache.per_shard
    in
    Printf.printf "shards  : %d/%d populated (largest %d record(s))\n" populated
      Cache.shard_count widest;
    Printf.printf "size    : %d bytes\n" s.Cache.bytes;
    Printf.printf "salt    : %s\n" Job.default_salt
  in
  let go action json dir =
    match action with
    | `Stats ->
        let s = Cache.disk_stats ~dir ~salt:Job.default_salt () in
        if json then print_string (Cache.disk_stats_to_json s) else print_disk_stats s
    | `Verify ->
        (* read-only integrity check: nonzero exit when any line fails
           CRC/format validation or the tail is torn (the next engine run
           would repair it; verify only reports) *)
        let s = Cache.disk_stats ~dir ~salt:Job.default_salt () in
        print_disk_stats s;
        if s.Cache.damaged > 0 || s.Cache.torn_tail then begin
          Printf.printf "verdict : DAMAGED (a supervised run will repair on load)\n";
          exit 1
        end
        else Printf.printf "verdict : clean\n"
    | `Clear ->
        let n = Cache.clear ~dir () in
        Printf.printf "removed %d cached result(s)\n" n
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Inspect (stats), integrity-check (verify) or wipe (clear) the result cache.")
    Term.(const go $ action_t $ json_t $ dir_t)

let trace_cmd =
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the Chrome trace-event / Perfetto JSON to $(docv).")
  in
  let capacity_t =
    Arg.(
      value
      & opt int Forensics.default_capacity
      & info [ "capacity" ] ~docv:"SLOTS"
          ~doc:"Ring capacity in event slots (rounded up to a power of two).")
  in
  let sample_t =
    Arg.(
      value
      & opt int 64
      & info [ "sample" ] ~docv:"N"
          ~doc:"Record one block-retirement event in $(docv) (power of two).")
  in
  let top_t =
    Arg.(value & opt int 12 & info [ "top" ] ~docv:"N" ~doc:"Profile rows to print.")
  in
  let site_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "site" ] ~docv:"N"
          ~doc:
            "Inject a $(b,--kind) fault at site $(docv) before running, and \
             run the forensics pass on the recorded trace.")
  in
  let print_summary_and_profile records summary top =
    Printf.printf "events  : %d recorded (%d dropped), %d comparison(s), %d detection(s)\n"
      summary.Trace.s_emitted summary.Trace.s_dropped summary.Trace.s_comparisons
      summary.Trace.s_detections;
    print_newline ();
    Fmt.pr "%a" (Export.pp_profile ~top) (Export.profile records)
  in
  let run_go name scale seed mode diversity policy plain kind site capacity sample
      out top =
    let records =
      match site with
      | Some site_idx ->
          (* traced fault-injection run + forensics chain *)
          let wk = Experiment.workload name (fun () -> build_workload name scale) in
          let e = Experiment.make ~seed wk in
          let sites = Experiment.sites e kind in
          let site =
            match List.nth_opt sites site_idx with
            | Some s -> s
            | None -> die "no such site (have %d)" (List.length sites)
          in
          let variant =
            if plain then Experiment.Fi_stdapp (kind, site)
            else Experiment.Fi_dpmr (cfg_of mode diversity policy seed, kind, site)
          in
          let tr = Forensics.run_variant ~capacity ~sample_every:sample e variant in
          Printf.printf "site    : %s\n" (Inject.site_name site);
          Printf.printf "fate    : %s\n" (Forensics.fate tr);
          Fmt.pr "%a" Analysis.pp_report tr.Forensics.report;
          (if not tr.Forensics.consistent then
             Printf.printf "!! trace distance disagrees with classification t2d\n");
          print_summary_and_profile tr.Forensics.records tr.Forensics.summary top;
          tr.Forensics.records
      | None ->
          let sink = Trace.create ~capacity ~sample_every:sample () in
          let prog = build_workload name scale in
          let r =
            Trace.with_sink sink (fun () ->
                if plain then Dpmr.run_plain ~seed prog
                else Dpmr.run_dpmr ~seed (cfg_of mode diversity policy seed) prog)
          in
          Printf.printf "outcome : %s\n" (Outcome.to_string r.Outcome.outcome);
          Printf.printf "cost    : %Ld units\n" r.Outcome.cost;
          let records = Trace.snapshot sink in
          print_summary_and_profile records (Trace.summary sink) top;
          records
    in
    match out with
    | None -> ()
    | Some file ->
        Export.write_chrome_json file records;
        Printf.printf "\ntrace   : %s (open in https://ui.perfetto.dev or chrome://tracing)\n"
          file
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:"Run a workload with the trace sink installed; print cost profiles \
               and optionally export Perfetto JSON.")
      Term.(
        const run_go $ workload_t $ scale_t $ seed_t $ mode_t $ diversity_t
        $ policy_t $ plain_t $ kind_t $ site_t $ capacity_t $ sample_t $ out_t
        $ top_t)
  in
  let validate_go file =
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json_check.validate_trace s with
    | Ok n -> Printf.printf "ok: %d trace event(s), schema valid\n" n
    | Error e ->
        Printf.eprintf "invalid trace %s: %s\n" file e;
        exit 1
  in
  let validate_cmd =
    let file_t = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
    Cmd.v
      (Cmd.info "validate"
         ~doc:"Check a JSON file against the Chrome trace-event schema.")
      Term.(const validate_go $ file_t)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Record, export and validate execution traces.")
    [ run_cmd; validate_cmd ]

let list_cmd =
  let go () =
    print_endline "workloads:";
    List.iter
      (fun (e : Workloads.entry) ->
        Printf.printf "  %-8s %s\n" e.Workloads.name e.Workloads.description)
      Workloads.all;
    print_endline "experiments:";
    List.iter
      (fun (id, desc, _) -> Printf.printf "  %-12s %s\n" id desc)
      Figures.all;
    Printf.printf "  %-12s %s\n" "nversion-surface"
      "detection surface of the layout-perm and pad-jitter diversities per fault model"
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and experiment ids.") Term.(const go $ const ())

let () =
  let info = Cmd.info "dpmr" ~doc:"Diverse Partial Memory Replication reproduction." in
  exit (Cmd.eval (Cmd.group info [ run_cmd; transform_cmd; sites_cmd; inject_cmd; dsa_cmd; recover_cmd; dump_cmd; runfile_cmd; report_cmd; cache_cmd; trace_cmd; list_cmd ]))
