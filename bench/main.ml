(* Host-side microbenchmarks.

   A Bechamel microbenchmark per table/figure measuring the host-side
   cost of the representative operation behind it (transforming a
   workload, running one instrumented variant, one fault-injection
   experiment, ...), so regressions in the tooling itself are visible.

   Usage:
     dune exec bench/main.exe

   The paper's tables and figures come from [dpmr report <id>]; end-to-end
   timings come from bench/e2e. *)

open Bechamel
open Toolkit
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Workloads = Dpmr_workloads.Workloads
module Job = Dpmr_engine.Job

let sds = Config.default
let mds = { Config.default with Config.mode = Config.Mds }

(* shared, built once *)
let equake = (Workloads.find "equake").Workloads.build ()
let mcf = (Workloads.find "mcf").Workloads.build ()

let run_cfg cfg prog () = ignore (Dpmr.run_dpmr cfg prog)
let transform_only cfg prog () = ignore (Dpmr.transform cfg prog)

let one_injection cfg kind prog () =
  let wk = Experiment.workload "bench" (fun () -> prog) in
  let e = Experiment.make wk in
  match Experiment.sites e kind with
  | site :: _ -> ignore (Experiment.run_variant e (Experiment.Fi_dpmr (cfg, kind, site)))
  | [] -> ()

let div_cfg mode d = { Config.default with Config.mode; diversity = d }
let pol_cfg mode p =
  { Config.default with Config.mode; diversity = Config.Rearrange_heap; policy = p }

(* One Test.make per table/figure: the representative operation whose
   cost dominates regenerating it. *)
let micro_tests =
  let t name f = Test.make ~name (Staged.stage f) in
  [
    t "table-3.1/transform-sds" (transform_only sds equake);
    t "table-3.2/transform-mds" (transform_only mds equake);
    t "fig-3.6/resize-injection-sds" (one_injection sds (Inject.Heap_array_resize 50) equake);
    t "fig-3.7/free-injection-sds" (one_injection sds Inject.Immediate_free equake);
    t "fig-3.8/resize-injection-mcf" (one_injection sds (Inject.Heap_array_resize 50) mcf);
    t "fig-3.9/free-injection-mcf" (one_injection sds Inject.Immediate_free mcf);
    t "fig-3.10/run-no-diversity" (run_cfg (div_cfg Config.Sds Config.No_diversity) equake);
    t "table-3.3/run-rearrange" (run_cfg (div_cfg Config.Sds Config.Rearrange_heap) equake);
    t "fig-3.11/run-pad-1024" (run_cfg (div_cfg Config.Sds (Config.Pad_malloc 1024)) equake);
    t "fig-3.12/run-zero-before-free" (run_cfg (div_cfg Config.Sds Config.Zero_before_free) equake);
    t "fig-3.13/run-temporal-12" (run_cfg (pol_cfg Config.Sds (Config.Temporal Config.temporal_mask_1_2)) equake);
    t "fig-3.14/run-static-10" (run_cfg (pol_cfg Config.Sds (Config.Static 0.1)) equake);
    t "fig-3.15/run-all-loads" (run_cfg (pol_cfg Config.Sds Config.All_loads) equake);
    t "fig-3.16/periodicity" (fun () -> ignore (Dpmr_harness.Periodicity.measure ()));
    t "table-3.4/run-static-90" (run_cfg (pol_cfg Config.Sds (Config.Static 0.9)) equake);
    t "fig-4.3/run-mds-no-diversity" (run_cfg (div_cfg Config.Mds Config.No_diversity) equake);
    t "fig-4.4/run-mds-static-50" (run_cfg (pol_cfg Config.Mds (Config.Static 0.5)) equake);
    t "fig-4.5/run-mds-pad-256" (run_cfg (div_cfg Config.Mds (Config.Pad_malloc 256)) mcf);
    t "fig-4.6/run-mds-temporal-78" (run_cfg (pol_cfg Config.Mds (Config.Temporal Config.temporal_mask_7_8)) mcf);
    t "fig-4.7/resize-injection-mds" (one_injection mds (Inject.Heap_array_resize 50) equake);
    t "fig-4.8/free-injection-mds" (one_injection mds Inject.Immediate_free equake);
    t "fig-4.9/resize-injection-mds-mcf" (one_injection mds (Inject.Heap_array_resize 50) mcf);
    t "fig-4.10/free-injection-mds-mcf" (one_injection mds Inject.Immediate_free mcf);
    t "fig-4.11/run-mds-rearrange" (run_cfg (div_cfg Config.Mds Config.Rearrange_heap) equake);
    t "fig-4.12/run-mds-rearrange-mcf" (run_cfg (div_cfg Config.Mds Config.Rearrange_heap) mcf);
    t "fig-4.13/golden-equake" (fun () -> ignore (Dpmr.run_plain equake));
    t "fig-4.14/golden-mcf" (fun () -> ignore (Dpmr.run_plain mcf));
    t "table-4.5/dsa-scope-equake" (fun () -> ignore (Dpmr_dsa.Scope.compute equake));
    t "table-4.6/dsa-transform-mcf" (fun () -> ignore (Dpmr_dsa.Dsa_dpmr.transform mds mcf));
    (* the default engine (compiled from entry, the closures cached on
       the shared lowering after the first run) vs the reference
       tree-walker, plus the one-time lowering cost itself (amortized
       across runs) *)
    t "vm/lower-mcf" (fun () -> ignore (Dpmr_vm.Lower.lower_prog mcf));
    (t "vm/run-compiled-mcf"
       (let lowered = Dpmr_vm.Lower.lower_prog mcf in
        fun () -> ignore (Dpmr.run_plain ~lowered mcf)));
    (t "vm/run-reference-mcf"
       (fun () ->
         let vm = Dpmr.vm_plain mcf in
         ignore (Dpmr_vm.Vm.run_reference vm)));
    (t "engine/job-hash"
       (let e = Experiment.make (Experiment.workload "equake" (fun () -> (Workloads.find "equake").Workloads.build ())) in
        let spec = Job.make e ~workload:"equake" ~scale:1 ~run_seed:42L (Experiment.Nofi_dpmr sds) in
        fun () -> ignore (Job.hash spec)));
  ]

let run_micro () =
  print_endline "\n=== Bechamel microbenchmarks (host-side tool cost) ===\n";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Printf.printf "%-36s %14s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 54 '-');
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let m = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock m in
          match Analyze.OLS.estimates est with
          | Some (e :: _) ->
              let name = Test.Elt.name elt in
              if e > 1e9 then Printf.printf "%-36s %11.2f s\n" name (e /. 1e9)
              else if e > 1e6 then Printf.printf "%-36s %11.2f ms\n" name (e /. 1e6)
              else Printf.printf "%-36s %11.2f us\n" name (e /. 1e3)
          | _ -> Printf.printf "%-36s %14s\n" (Test.Elt.name elt) "n/a")
        (Test.elements test))
    micro_tests

let () = run_micro ()
