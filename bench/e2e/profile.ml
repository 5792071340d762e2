(* The traced run's whole procedure and its per-layer metrics:

   1. untraced [report all --jobs 1 --no-cache] three times, alternating
      with two traced campaigns (Traced.campaign): the reference bytes,
      and the baseline wall time for the tracing overhead;
   2. untraced cold [report all --jobs J]: the pool's busy and wall
      time from its telemetry, and a real cache to read back;
   3. probe passes over what the traced campaign executed;
   4. the serve ladder: the reference rung's split of latency into
      service and waiting, and the highest rate meeting the limit.

   Checks: the traced figures are byte-identical to the untraced runs
   (and to the golden file at the golden seed), and the two traced runs
   print the same bytes and count the same work; the traced simulated
   units equal the untraced [cost_units]; the traced fork count equals
   the fork records the untraced run's snapshot planner wrote; every
   executed job is found in that cache; the trace file validates. *)

module Job = Dpmr_engine.Job
module Cache = Dpmr_engine.Cache

(* One sidecar record per member the planner forked (Job.fork_hash). *)
let fork_records dir =
  Array.fold_left
    (fun n f ->
      if String.starts_with ~prefix:"results-" f then
        List.fold_left
          (fun n line ->
            match Job.entry_of_line line with
            | Some e when String.starts_with ~prefix:"fork:" e.Job.spec_repr -> n + 1
            | _ -> n)
          n
          (String.split_on_char '\n' (Proc.read_file (Filename.concat dir f)))
      else n)
    0 (Sys.readdir dir)

let run (env : Env.t) ~trace_file =
  let tally = Tally.create () in
  let root = Proc.fresh_dir (Filename.concat env.work "trace") in
  let sub name = Proc.fresh_dir (Filename.concat root name) in
  let golden = Env.golden_for env "report-all.txt" in
  let jobs1 name = Batch.report env tally ~dir:(sub name) ~no_cache:true ~jobs:1 "all" in
  let traced name =
    let file = Filename.concat root name in
    let st, wall = Traced.campaign ~seed:env.seed file in
    (st, wall, Proc.read_file file)
  in
  (* untraced and traced runs alternate, U T U T U, so a drift in machine
     speed does not read as tracing overhead; the per-layer numbers are
     the first traced run's, the second checks that its counts repeat *)
  let r1, tel1 = jobs1 "jobs1-a" in
  let st, wall, out = traced "traced-a.txt" in
  let r2, tel2 = jobs1 "jobs1-b" in
  let st', wall', out' = traced "traced-b.txt" in
  let r3, _ = jobs1 "jobs1-c" in
  let untraced_wall = (r1.Proc.wall +. r2.Proc.wall +. r3.Proc.wall) /. 3. in
  let traced_wall = (wall +. wall') /. 2. in
  List.iter
    (fun (r : Proc.run) ->
      Tally.check tally (String.equal r1.Proc.out r.out) "report all --jobs 1 is not deterministic")
    [ r2; r3 ];
  Tally.check tally (String.equal out out') "the two traced runs printed different bytes";
  let counts (s : Traced.state) =
    (s.Traced.units, s.Traced.make_calls, s.Traced.members, s.Traced.forked, s.Traced.inherited,
     s.Traced.planned_zero, s.Traced.zero_calls, List.length s.Traced.cells, List.length s.Traced.executed)
  in
  Tally.check tally (counts st = counts st') "the two traced runs counted differently";
  let dj = sub "jobsJ" in
  let rj, telj = Batch.report env tally ~dir:dj "all" in
  let real_cache = Filename.concat dj Cache.default_dir in
  let executed = List.length st.Traced.executed in
  tally.Tally.attempted <- tally.Tally.attempted + executed;
  Tally.check tally (String.equal out r1.Proc.out) "traced output differs from report all --jobs 1";
  Tally.check tally (String.equal out rj.Proc.out) "traced output differs from report all --jobs %d" env.jobs;
  Option.iter
    (fun g -> Tally.check tally (String.equal out g) "traced output differs from the golden file")
    golden;
  let units = Int64.to_float st.Traced.units in
  Tally.check tally (units = tel1.Batch.cost_units && units = telj.Batch.cost_units)
    "traced vm.units %.0f differ from the untraced cost_units (%.0f, %.0f)" units
    tel1.Batch.cost_units telj.Batch.cost_units;
  let forks = fork_records real_cache in
  Tally.check tally (st.Traced.forked = forks)
    "traced plan.forked %d differs from the planner's %d fork records" st.Traced.forked forks;
  let p = Traced.create_probes () in
  Traced.variant_probes st p;
  Traced.cache_probes st p ~scratch:(sub "cache-probe") ~real:real_cache;
  Tally.check tally (p.Traced.hit_ratio = 1.) "only %.4f of the executed jobs are in the cold run's cache"
    p.Traced.hit_ratio;
  let cache_bytes = (Cache.disk_stats ~dir:real_cache ~salt:Job.default_salt ()).Cache.bytes in
  let server = Serve.trace_climb env tally in
  (match Traced.write_trace st trace_file with
  | Ok _ -> ()
  | Error msg -> Tally.problem tally "trace file %s does not validate: %s" trace_file msg);
  Proc.rm_rf root;
  let f = float_of_int in
  let ratio a b = if b = 0. then 0. else a /. b in
  let metrics =
    [
      ("experiment.make_s", st.Traced.make_s);
      ("experiment.make_calls", f st.Traced.make_calls);
      ("inject.apply_s", p.Traced.inject_s);
      ("inject.apply_calls", f p.Traced.inject_calls);
      ("transform.s", p.Traced.transform_s);
      ("transform.calls", f p.Traced.transform_calls);
      ("transform.insts_ratio", ratio (f p.Traced.insts_out) (f p.Traced.insts_in));
      ("lower.s", p.Traced.lower_s);
      ("lower.calls", f p.Traced.lower_calls);
      ("plan.s", st.Traced.plan_s);
      ("plan.self_s", st.Traced.plan_s -. p.Traced.cell_prepare_s);
      ("plan.cells", f (List.length st.Traced.cells));
      ("plan.members", f st.Traced.members);
      ("plan.forked", f st.Traced.forked);
      ("plan.inherited", f st.Traced.inherited);
      ("plan.zero", f st.Traced.planned_zero);
      ("plan.fork_ratio", ratio (f st.Traced.forked) (f st.Traced.members));
      ("vm.resume_s", st.Traced.resume_s);
      ("vm.resume_calls", f st.Traced.resume_calls);
      ("vm.zero_s", st.Traced.zero_s);
      ("vm.zero_calls", f st.Traced.zero_calls);
      ("vm.inherit_calls", f st.Traced.inherit_calls);
      ("vm.units", units);
      ("vm.zero_units_per_s", ratio (Int64.to_float st.Traced.zero_units) st.Traced.zero_s);
      ("job.hash_s", p.Traced.hash_s);
      ("cache.load_s", p.Traced.load_s);
      ("cache.find_s", p.Traced.find_s);
      ("cache.hit_ratio", p.Traced.hit_ratio);
      ("cache.add_s", p.Traced.add_s);
      ("cache.flush_s", p.Traced.flush_s);
      ("cache.bytes", f cache_bytes);
      ("pool.busy_s", telj.Batch.busy_seconds);
      ("pool.wall_s", telj.Batch.wall_seconds);
      ("pool.efficiency", ratio telj.Batch.busy_seconds (telj.Batch.wall_seconds *. f env.jobs));
      ( "pool.speedup",
        ratio ((tel1.Batch.wall_seconds +. tel2.Batch.wall_seconds) /. 2.) telj.Batch.wall_seconds );
      ( "figures.other_s",
        wall -. st.Traced.make_s -. st.Traced.plan_s -. st.Traced.vm_s );
    ]
    @ server
    @ [
        ("trace.wall_s", traced_wall);
        ("trace.overhead_pct", 100. *. (traced_wall -. untraced_wall) /. untraced_wall);
      ]
  in
  List.iter (fun (name, v) -> Tally.add tally name v) metrics;
  tally
