(* dpmr_bench — the end-to-end benchmark of the DPMR reproduction.

     dpmr_bench run   [--workload W]... --seed S [--seconds N] [--json FILE]
     dpmr_bench trace --seed S [--trace-file FILE]
     dpmr_bench smoke --benchmark BENCHMARK.json --fig-golden FILE
     dpmr_bench --workload W --seed S --seconds N --trace 0|1

   [run] measures workloads against the built dpmr_cli / dpmr_serve
   binaries as fresh processes and prints every end-to-end metric with
   its unit, median, quartiles and sample count; [trace] is the separate
   in-process run that splits the campaign by layer; [smoke] is the
   test [dune runtest] runs.  The last form runs one workload ([--trace
   0]) or the traced run ([--trace 1]) and ends its output with one JSON
   line: {"correct", "attempted", "failed", "metrics"}.  Any wrong
   output makes the exit status non-zero. *)

let usage =
  "dpmr_bench [run|trace|smoke] [--workload W]... [--seed S] [--seconds N] [--trace 0|1] \
   [--json FILE] [--trace-file FILE] [--bin DIR] [--work DIR] [--golden DIR] [--benchmark FILE] \
   [--fig-golden FILE]"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("dpmr_bench: " ^ m); exit 2) fmt

let workload_run name =
  match name with
  | "grid-cold" -> Batch.grid_cold
  | "grid-warm" -> Batch.grid_warm
  | "overhead-x4" -> Batch.overhead_x4
  | "serve-open" -> Serve.serve_open
  | w -> die "unknown workload %S (have %s)" w (String.concat ", " Catalog.workload_names)

(* ---------------- reporting ---------------- *)

(** Figures a workload recorded beside its metrics (serve-open's
    per-rung latencies and max_rps): reported, not gated. *)
let extras (metrics : Catalog.metric list) tally =
  List.sort compare
    (List.filter_map
       (fun (name, _) ->
         if List.exists (fun (m : Catalog.metric) -> m.Catalog.name = name) metrics then None
         else Some name)
       tally.Tally.samples)

let print_table title (metrics : Catalog.metric list) tally =
  Printf.printf "== %s\n%-28s %-8s %14s %14s %14s %6s\n" title "metric" "unit" "median" "q1" "q3" "n";
  let row name unit_ =
    let xs = Tally.samples tally name in
    let q1, q3 = Stats.quartiles xs in
    Printf.printf "%-28s %-8s %14.6g %14.6g %14.6g %6d\n" name unit_ (Stats.median xs) q1 q3
      (List.length xs)
  in
  List.iter (fun (m : Catalog.metric) -> row m.Catalog.name m.Catalog.unit_) metrics;
  List.iter (fun name -> row name "") (extras metrics tally);
  Printf.printf "attempted %d, failed %d\n" tally.Tally.attempted tally.Tally.failed;
  List.iter (fun p -> Printf.printf "PROBLEM: %s\n" p) tally.Tally.problems

(* A metric with no sample is itself a problem: every run reports every
   metric. *)
let complete (metrics : Catalog.metric list) tally =
  List.iter
    (fun (m : Catalog.metric) ->
      let xs = Tally.samples tally m.Catalog.name in
      if xs = [] || not (Float.is_finite (Stats.median xs)) then
        Tally.problem tally "no finite value for %s" m.Catalog.name)
    metrics

let result_line (metrics : Catalog.metric list) tally =
  Stats.obj
    [
      ("correct", string_of_bool (Tally.correct tally));
      ("attempted", string_of_int (max 1 tally.Tally.attempted));
      ("failed", string_of_int tally.Tally.failed);
      ( "metrics",
        Stats.obj
          (List.map
             (fun (m : Catalog.metric) ->
               ( m.Catalog.name,
                 Stats.obj
                   [
                     ("value", Stats.num (Stats.median (Tally.samples tally m.Catalog.name)));
                     ("unit", Stats.str m.Catalog.unit_);
                   ] ))
             metrics) );
    ]

let json_report (env : Env.t) results =
  let metric_json (m : Catalog.metric) tally =
    let xs = Tally.samples tally m.Catalog.name in
    let q1, q3 = Stats.quartiles xs in
    ( m.Catalog.name,
      Stats.obj
        [
          ("unit", Stats.str m.Catalog.unit_);
          ("better", Stats.str (Catalog.better_name m.Catalog.better));
          ("median", Stats.num (Stats.median xs));
          ("q1", Stats.num q1);
          ("q3", Stats.num q3);
          ("n", string_of_int (List.length xs));
          (* per-repetition values; the daemon's per-request latencies
             are too many to list *)
          ("samples", if List.length xs <= 100 then Stats.arr (List.map Stats.num xs) else "null");
        ] )
  in
  Stats.obj
    [
      ("schema", Stats.str "dpmr-bench/1");
      ("seed", string_of_int env.Env.seed);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("jobs", string_of_int env.Env.jobs);
      ("seconds", Stats.num env.Env.seconds);
      ( "results",
        Stats.arr
          (List.map
             (fun (name, metrics, tally) ->
               Stats.obj
                 [
                   ("name", Stats.str name);
                   ("correct", string_of_bool (Tally.correct tally));
                   ("attempted", string_of_int tally.Tally.attempted);
                   ("failed", string_of_int tally.Tally.failed);
                   ("problems", Stats.arr (List.map Stats.str tally.Tally.problems));
                   ("metrics", Stats.obj (List.map (fun m -> metric_json m tally) metrics));
                   ( "figures",
                     Stats.obj
                       (List.map
                          (fun name -> (name, Stats.num (Stats.median (Tally.samples tally name))))
                          (extras metrics tally)) );
                 ])
             results) );
    ]
  ^ "\n"

(* ---------------- main ---------------- *)

let () =
  (* as in the CLI and the daemon, so the traced run allocates like them *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  Dpmr_nversion.Families.ensure ();
  let mode = ref None and workloads = ref [] and seed = ref Env.golden_seed in
  let seconds = ref 15. and trace = ref 0 and json = ref None in
  let trace_file = ref ".bench_run/dpmr_bench.trace.json" in
  let bin = ref "_build/default/bin" and work = ref ".bench_run" and golden = ref "bench/e2e/golden" in
  let benchmark = ref "BENCHMARK.json" and fig_golden = ref "test/golden/fig-3.6.txt" in
  let specs =
    [
      ("--workload", Arg.String (fun w -> workloads := !workloads @ [ w ]), "W workload (repeatable)");
      ("--seed", Arg.Set_int seed, "S workload seed");
      ("--seconds", Arg.Set_float seconds, "N measuring time per workload run");
      ("--trace", Arg.Set_int trace, "0|1 1 runs the traced per-layer run");
      ("--json", Arg.String (fun f -> json := Some f), "FILE write the run report as JSON");
      ("--trace-file", Arg.Set_string trace_file, "FILE where the traced run's spans go");
      ("--bin", Arg.Set_string bin, "DIR directory of dpmr_cli.exe and dpmr_serve.exe");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--golden", Arg.Set_string golden, "DIR golden outputs");
      ("--benchmark", Arg.Set_string benchmark, "FILE BENCHMARK.json to validate (smoke)");
      ("--fig-golden", Arg.Set_string fig_golden, "FILE golden fig-3.6 output (smoke)");
    ]
  in
  Arg.parse specs
    (fun a ->
      match (a, !mode) with
      | ("run" | "trace" | "smoke"), None -> mode := Some a
      | _ -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let abs d = if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d in
  let env =
    {
      Env.bin = abs !bin;
      work = !work;
      golden = !golden;
      seed = !seed;
      seconds = Float.max 1. !seconds;
      jobs = Env.default_jobs ();
    }
  in
  let check_binaries () =
    List.iter
      (fun exe -> if not (Sys.file_exists exe) then die "%s not found (build it first)" exe)
      [ Env.cli env; Env.serve env ]
  in
  let header what =
    Printf.printf "# %s, seed %d, %.0f s, J=%d of nproc %d\n%!" what env.Env.seed env.Env.seconds
      env.Env.jobs (Domain.recommended_domain_count ())
  in
  let traced () =
    check_binaries ();
    Proc.mkdir_p (Filename.dirname !trace_file);
    header "traced run";
    let tally = Profile.run env ~trace_file:!trace_file in
    complete Catalog.layer_metrics tally;
    print_table "per-layer" Catalog.layer_metrics tally;
    Printf.printf "trace: %s\n" !trace_file;
    (Catalog.layer_metrics, tally)
  in
  let measured names =
    check_binaries ();
    List.map
      (fun name ->
        let run = workload_run name in
        header name;
        let tally = run env in
        complete Catalog.end_to_end tally;
        print_table name Catalog.end_to_end tally;
        (name, Catalog.end_to_end, tally))
      names
  in
  let ok results = List.for_all (fun (_, _, t) -> Tally.correct t) results in
  let finish results =
    Option.iter (fun f -> Proc.write_file f (json_report env results)) !json;
    exit (if ok results then 0 else 1)
  in
  match !mode with
  | Some "smoke" -> (
      match Smoke.run ~benchmark:!benchmark ~fig_golden:!fig_golden with
      | [] -> print_endline "dpmr_bench smoke: ok"
      | ps ->
          List.iter (fun p -> prerr_endline ("dpmr_bench smoke: " ^ p)) ps;
          exit 1)
  | Some "trace" ->
      let metrics, tally = traced () in
      finish [ ("trace", metrics, tally) ]
  | Some _ -> finish (measured (if !workloads = [] then Catalog.workload_names else !workloads))
  | None -> (
      (* one run, in the form BENCHMARK.json's command takes *)
      match (!workloads, !trace) with
      | [ w ], (0 | 1) ->
          let (_ : Env.t -> Tally.t) = workload_run w in
          let name, metrics, tally =
            if !trace = 1 then
              let metrics, tally = traced () in
              (w, metrics, tally)
            else List.hd (measured [ w ])
          in
          print_endline (result_line metrics tally);
          finish [ (name, metrics, tally) ]
      | _ -> die "usage: %s" usage)
