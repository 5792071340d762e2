(* lib/trace: ring-buffer mechanics, pay-for-use installation, Chrome
   trace-event export, cost profiles, telemetry merging, and the
   detection-forensics acceptance grid: across all four workloads, every
   detected fault-injection run's trace must name the injected
   corruption and measure an instruction distance equal to the Metrics
   detection latency; every missed run must be explained. *)

module Trace = Dpmr_trace.Trace
module Export = Dpmr_trace.Export
module Json_check = Dpmr_trace.Json_check
module Analysis = Dpmr_trace.Forensics
module Forensics = Dpmr_fi.Forensics
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome
module Progs = Dpmr_testprogs.Progs
module Workloads = Dpmr_workloads.Workloads
module Telemetry = Dpmr_engine.Telemetry

let sds = Config.default

(* --- ring buffer --- *)

let test_ring_wrap () =
  let t = Trace.create ~capacity:8 ~sample_every:1 () in
  for i = 0 to 19 do
    Trace.emit_fi_mark t ~cost:i
  done;
  Alcotest.(check int) "capacity" 8 (Trace.capacity t);
  Alcotest.(check int) "emitted" 20 (Trace.emitted t);
  Alcotest.(check int) "dropped" 12 (Trace.dropped t);
  let recs = Trace.snapshot t in
  Alcotest.(check int) "snapshot keeps the last capacity events" 8
    (Array.length recs);
  Array.iteri
    (fun i (r : Trace.record) ->
      Alcotest.(check int) "chronological, oldest first" (12 + i) r.Trace.cost)
    recs

let test_capacity_rounding () =
  let t = Trace.create ~capacity:9 () in
  Alcotest.(check int) "rounded up to a power of two" 16 (Trace.capacity t)

let test_block_sampling () =
  let t = Trace.create ~capacity:64 ~sample_every:4 () in
  for i = 0 to 15 do
    Trace.sample_block t ~cost:i ~fname:"f" ~blk:0
  done;
  Alcotest.(check int) "one-in-four block events" 4 (Trace.emitted t)

let test_snapshot_does_not_consume () =
  let t = Trace.create ~capacity:8 () in
  Trace.emit_fi_mark t ~cost:1;
  let a = Trace.snapshot t and b = Trace.snapshot t in
  Alcotest.(check int) "same length" (Array.length a) (Array.length b)

(* --- domain-local installation --- *)

let test_with_sink_restores () =
  Alcotest.(check bool) "no sink installed by default" true
    (Trace.current () = None);
  let outer = Trace.create () and inner = Trace.create () in
  let installed s =
    match Trace.current () with Some c -> c == s | None -> false
  in
  Trace.with_sink outer (fun () ->
      Alcotest.(check bool) "outer installed" true (installed outer);
      Trace.with_sink inner (fun () ->
          Alcotest.(check bool) "inner shadows outer" true (installed inner));
      Alcotest.(check bool) "outer restored" true (installed outer));
  Alcotest.(check bool) "None restored" true (Trace.current () = None)

let test_with_sink_restores_on_raise () =
  let s = Trace.create () in
  (try Trace.with_sink s (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after an exception" true (Trace.current () = None)

(* --- pay-for-use: tracing must not perturb the run --- *)

let test_traced_run_identical () =
  let run () = Dpmr.run_dpmr sds (Progs.linked_list ()) in
  let plain = run () in
  let sink = Trace.create () in
  let traced = Trace.with_sink sink (fun () -> run ()) in
  Alcotest.(check bool) "same outcome" true
    (plain.Outcome.outcome = traced.Outcome.outcome);
  Alcotest.(check int64) "same cost" plain.Outcome.cost traced.Outcome.cost;
  Alcotest.(check string) "same output" plain.Outcome.output traced.Outcome.output;
  Alcotest.(check bool) "and the sink saw the run" true (Trace.emitted sink > 0)

(* --- export + schema validation --- *)

let traced_records () =
  let sink = Trace.create () in
  let r =
    Trace.with_sink sink (fun () -> Dpmr.run_dpmr sds (Progs.linked_list ()))
  in
  Alcotest.(check bool) "run normal" true (r.Outcome.outcome = Outcome.Normal);
  Trace.snapshot sink

let test_export_validates () =
  let json = Export.chrome_json (traced_records ()) in
  match Json_check.validate_trace json with
  | Ok n -> Alcotest.(check bool) "has events" true (n > 0)
  | Error m -> Alcotest.failf "export did not validate: %s" m

let test_validate_rejects_garbage () =
  Alcotest.(check bool) "truncated JSON" true
    (Result.is_error (Json_check.validate_trace "{\"traceEvents\":["));
  Alcotest.(check bool) "not an object" true
    (Result.is_error (Json_check.validate_trace "[1,2]"));
  Alcotest.(check bool) "missing traceEvents" true
    (Result.is_error (Json_check.validate_trace "{}"));
  Alcotest.(check bool) "bad phase letter" true
    (Result.is_error
       (Json_check.validate_trace
          {|{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":1,"tid":1}]}|}));
  Alcotest.(check bool) "ts must be a number" true
    (Result.is_error
       (Json_check.validate_trace
          {|{"traceEvents":[{"name":"x","ph":"B","ts":"0","pid":1,"tid":1}]}|}))

let test_profile_sane () =
  let frames = Export.profile (traced_records ()) in
  Alcotest.(check bool) "has frames" true (frames <> []);
  Alcotest.(check bool) "main appears" true
    (List.exists (fun (f : Export.frame) -> f.Export.fn = "main") frames);
  List.iter
    (fun (f : Export.frame) ->
      Alcotest.(check bool) (f.Export.fn ^ " calls >= 1") true (f.Export.calls >= 1);
      Alcotest.(check bool)
        (f.Export.fn ^ " exclusive <= inclusive")
        true
        (f.Export.exclusive <= f.Export.inclusive))
    frames

(* --- summaries + telemetry --- *)

let test_summary_merge () =
  let s = Trace.create ~capacity:8 () in
  Trace.emit_fi_mark s ~cost:1;
  Trace.emit_compare s ~cost:2 ~app:(-1L) ~rep:(-1L) ~len:0;
  Trace.emit_detect s ~cost:3 ~what:"t" ~addr:(-1L) ~off:(-1);
  let sum = Trace.summary s in
  Alcotest.(check int) "emitted" 3 sum.Trace.s_emitted;
  Alcotest.(check int) "fi marks" 1 sum.Trace.s_fi_marks;
  Alcotest.(check int) "comparisons" 1 sum.Trace.s_comparisons;
  Alcotest.(check int) "detections" 1 sum.Trace.s_detections;
  let two = Trace.add_summary sum sum in
  Alcotest.(check int) "merge adds" 6 two.Trace.s_emitted;
  Alcotest.(check bool) "zero is the identity" true
    (Trace.add_summary Trace.zero_summary sum = sum)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_telemetry_trace_line_gated () =
  let t = Telemetry.create () in
  let lines = Telemetry.summary_lines t ~workers:1 ~cache:None in
  Alcotest.(check bool) "no trace line when nothing was traced" false
    (List.exists (contains ~needle:"trace:") lines)

let test_telemetry_trace_line () =
  let t = Telemetry.create () in
  Telemetry.record_trace t
    {
      Trace.s_emitted = 5;
      s_dropped = 1;
      s_detections = 1;
      s_comparisons = 2;
      s_fi_marks = 1;
    };
  let lines = Telemetry.summary_lines t ~workers:1 ~cache:None in
  Alcotest.(check bool) "trace line present" true
    (List.exists (contains ~needle:"trace: 5 events") lines);
  Alcotest.(check bool) "gc line present" true
    (List.exists (contains ~needle:"[engine] gc: ") lines);
  let json = Telemetry.to_json t ~workers:1 ~cache:None in
  Alcotest.(check bool) "json parses" true (Result.is_ok (Json_check.parse json));
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in json") true (contains ~needle json))
    [
      "dpmr-telemetry/1";
      "\"comparisons\": 2";
      "\"fi_marks\": 1";
      "\"workers\": 1";
      "\"minor_collections\": ";
      "\"promoted_words\": ";
    ]

(* --- forensics: unit-level --- *)

let test_forensics_classify () =
  let heap_base = 0x80000000L in
  let chunks =
    Analysis.I64Map.of_seq
      (List.to_seq [ (0x80000010L, (32, true)); (0x80000100L, (16, false)) ])
  in
  let cl ?(truncated = false) addr bytes =
    Analysis.classify chunks ~truncated ~heap_base ~addr ~bytes
  in
  Alcotest.(check bool) "below heap: not heap traffic" true (cl 0x1000L 8 = None);
  Alcotest.(check bool) "inside live payload: fine" true (cl 0x80000018L 8 = None);
  Alcotest.(check bool) "running past the end: overflow" true
    (cl 0x8000002cL 8 = Some (Analysis.Overflow 0x80000010L));
  Alcotest.(check bool) "freed chunk" true
    (cl 0x80000104L 4 = Some (Analysis.In_freed 0x80000100L));
  Alcotest.(check bool) "header below a payload" true
    (cl 0x80000000L 8 = Some (Analysis.Chunk_header 0x80000010L));
  Alcotest.(check bool) "far off: wilderness" true
    (cl 0x90000000L 8 = Some Analysis.Wilderness);
  (* a wrapped ring lost the chunks allocated before its window: only
     stores against chunks the map knows are named *)
  let cl = cl ~truncated:true in
  Alcotest.(check bool) "truncated: overflow kept" true
    (cl 0x8000002cL 8 = Some (Analysis.Overflow 0x80000010L));
  Alcotest.(check bool) "truncated: freed chunk kept" true
    (cl 0x80000104L 4 = Some (Analysis.In_freed 0x80000100L));
  Alcotest.(check bool) "truncated: no header named" true (cl 0x80000000L 8 = None);
  Alcotest.(check bool) "truncated: no wilderness named" true (cl 0x90000000L 8 = None);
  (* the same through [analyze]: a dropped event truncates the map *)
  let records =
    [|
      { Trace.cost = 1; ev = Trace.Malloc { addr = 0x80000010L; requested = 32; granted = 32; live = 1 } };
      { Trace.cost = 2; ev = Trace.Fi_mark };
      { Trace.cost = 3; ev = Trace.Store { addr = 0x90000000L; bytes = 8 } };
    |]
  in
  let first_bad dropped =
    Option.map snd (Analysis.analyze ~heap_base ~dropped records).Analysis.first_bad_store
  in
  Alcotest.(check bool) "analyze: wilderness store named" true
    (first_bad 0
    = Some (Analysis.Displaced_store { addr = 0x90000000L; bytes = 8; target = Analysis.Wilderness }));
  Alcotest.(check bool) "analyze ~dropped:1: not named" true (first_bad 1 = None)

(* --- the acceptance grid ---

   A sampled grid of injected faults across all four workloads; for
   every run the trace-derived distance must agree exactly with the
   classification's t2d, detections must name a corruption of the
   injected kind, and misses must carry an explanation. *)

let sample_sites sites =
  match sites with
  | [] | [ _ ] -> sites
  | _ ->
      let n = List.length sites in
      List.sort_uniq compare [ 0; n / 2; n - 1 ] |> List.map (List.nth sites)

(* one experiment context per workload, shared by the grid and the
   pinned counts *)
let experiments =
  lazy
    (List.map
       (fun app ->
         let entry = Workloads.find app in
         ( app,
           Experiment.make
             (Experiment.workload app (fun () -> entry.Workloads.build ?scale:None ())) ))
       Workloads.names)

let experiment app = List.assoc app (Lazy.force experiments)

(* A traced run must be the run it traces: same classification as the
   untraced run of the same variant, and every block sample names a
   real block. *)
let check_traced_run name e variant (tr : Forensics.traced) =
  Alcotest.(check bool)
    (name ^ ": classification = untraced run")
    true
    (tr.Forensics.classification = Experiment.run_variant e variant);
  Alcotest.(check bool)
    (name ^ ": every block sample has an index")
    true
    (Array.for_all
       (fun (r : Trace.record) ->
         match r.Trace.ev with Trace.Block { blk; _ } -> blk >= 0 | _ -> true)
       tr.Forensics.records)

let check_grid_run ~kind ~app ~site (tr : Forensics.traced) =
  let name = Printf.sprintf "%s %s" app (Inject.site_name site) in
  let c = tr.Forensics.classification in
  let rep = tr.Forensics.report in
  check_traced_run name (experiment app) (Experiment.Fi_dpmr (sds, kind, site)) tr;
  Alcotest.(check bool)
    (name ^ ": trace distance agrees with t2d")
    true tr.Forensics.consistent;
  if c.Experiment.ddet then begin
    Alcotest.(check bool) (name ^ ": detected verdict") true
      (rep.Analysis.verdict = Analysis.Detected);
    Alcotest.(check bool) (name ^ ": detection event recorded") true
      (rep.Analysis.detection <> None);
    Alcotest.(check bool)
      (name ^ ": corruption names the injected fault")
      true
      (match (kind, rep.Analysis.corruption) with
      | Inject.Heap_array_resize _, Some (Analysis.Undersized_malloc _) -> true
      | Inject.Immediate_free, Some (Analysis.Injected_free _) -> true
      | _ -> false)
  end
  else if c.Experiment.ndet then
    Alcotest.(check bool) (name ^ ": natural detection resolved") true
      (rep.Analysis.verdict = Analysis.Detected_naturally)
  else if c.Experiment.sf && not c.Experiment.timeout then
    (* a true miss: the analysis must say why *)
    Alcotest.(check bool) (name ^ ": miss explained") true
      (match rep.Analysis.verdict with
      | Analysis.Miss_no_comparison | Analysis.Miss_replica_agreed _ -> true
      | _ -> false)
  else if not c.Experiment.sf then
    Alcotest.(check bool) (name ^ ": never-executed site") true
      (rep.Analysis.verdict = Analysis.Not_injected)

let test_forensics_grid () =
  List.iter
    (fun app ->
      let e = experiment app in
      List.iter
        (fun kind ->
          List.iter
            (fun site ->
              let tr =
                Forensics.run_variant e (Experiment.Fi_dpmr (sds, kind, site))
              in
              check_grid_run ~kind ~app ~site tr)
            (sample_sites (Experiment.sites e kind)))
        [ Inject.Heap_array_resize 50; Inject.Immediate_free ])
    Workloads.names

(* The grid accepts a miss explained either way, so it cannot see a lost
   compare event; these counts can. *)
let test_pinned_counts () =
  List.iter
    (fun (app, comparisons) ->
      let e = experiment app in
      let variant = Experiment.Nofi_dpmr sds in
      let tr = Forensics.run_variant e variant in
      check_traced_run (app ^ " fault-free") e variant tr;
      Alcotest.(check int)
        (app ^ " fault-free: comparisons")
        comparisons tr.Forensics.summary.Trace.s_comparisons)
    [ ("art", 53839); ("bzip2", 77097); ("equake", 33490); ("mcf", 50109) ];
  let e = experiment "art" in
  let kind = Inject.Heap_array_resize 50 in
  let tr =
    Forensics.run_variant e
      (Experiment.Fi_dpmr (sds, kind, List.hd (Experiment.sites e kind)))
  in
  let s = tr.Forensics.summary in
  Alcotest.(check int) "art resize site 0: events" 7202 s.Trace.s_emitted;
  Alcotest.(check int) "art resize site 0: comparisons" 2183 s.Trace.s_comparisons;
  Alcotest.(check (option int)) "art resize site 0: distance" (Some 50058)
    tr.Forensics.distance

let suites =
  [
    ( "trace.ring",
      [
        Alcotest.test_case "wrap + dropped count" `Quick test_ring_wrap;
        Alcotest.test_case "capacity rounding" `Quick test_capacity_rounding;
        Alcotest.test_case "block sampling" `Quick test_block_sampling;
        Alcotest.test_case "snapshot is repeatable" `Quick
          test_snapshot_does_not_consume;
      ] );
    ( "trace.sink",
      [
        Alcotest.test_case "with_sink restores" `Quick test_with_sink_restores;
        Alcotest.test_case "with_sink restores on raise" `Quick
          test_with_sink_restores_on_raise;
        Alcotest.test_case "tracing does not perturb the run" `Quick
          test_traced_run_identical;
      ] );
    ( "trace.export",
      [
        Alcotest.test_case "chrome JSON validates" `Quick test_export_validates;
        Alcotest.test_case "validator rejects bad input" `Quick
          test_validate_rejects_garbage;
        Alcotest.test_case "profile sanity" `Quick test_profile_sane;
      ] );
    ( "trace.telemetry",
      [
        Alcotest.test_case "summary merge" `Quick test_summary_merge;
        Alcotest.test_case "engine line gated on use" `Quick
          test_telemetry_trace_line_gated;
        Alcotest.test_case "engine line + json" `Quick test_telemetry_trace_line;
      ] );
    ( "trace.forensics",
      [
        Alcotest.test_case "store classification" `Quick test_forensics_classify;
        Alcotest.test_case "acceptance grid (4 workloads)" `Slow
          test_forensics_grid;
        Alcotest.test_case "pinned event counts" `Slow test_pinned_counts;
      ] );
  ]
