(* Differential tests: the default engine ({!Vm.run}, fused compiled
   blocks from each call's first block) and a watched baseline (the
   compiled tier's steps run one at a time under the frontier hook) must
   both be observationally identical to the reference tree-walking
   engine ({!Vm.run_reference}) — same outcome, output, cost, memory
   footprint, and fault-detection point — across every workload, DPMR
   mode, and injected-fault variant.  The reference engine is the
   executable specification; any divergence here is a lowering or
   compiler bug, and because every figure is computed from these
   fields, equality here is what makes the compiled tier safe to use
   for the experiments.

   [Vm.run] never runs a block step by step, yet the step-by-step
   driver decides visible results: every forked member's state up to
   its frontier, and the whole run of every member that inherits a
   [Wshared] outcome.  It is driven here the way a campaign drives it,
   through {!Vm.run_watched}, with one member whose frontier is never
   reached. *)

module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Vm = Dpmr_vm.Vm
module Outcome = Dpmr_vm.Outcome
module Inject = Dpmr_fi.Inject
module Workloads = Dpmr_workloads.Workloads

let sds = Config.default
let mds = { Config.default with Config.mode = Config.Mds }

(* A whole watched baseline: its one member has an empty limit table,
   so its frontier is never reached and the member inherits the
   baseline's outcome. *)
let run_watched_baseline vm =
  match Vm.run_watched vm [| Hashtbl.create 1 |] with
  | [| Vm.Wshared r |] -> r
  | _ -> Alcotest.fail "watched run: expected the baseline's whole run"

(* Run [prog] on the three legs, each in a fresh VM (a run mutates its
   VM's memory, so sharing one would let one run contaminate the next):
   the default engine, the watched baseline and the reference. *)
let run_legs ?budget ~mode prog =
  let mk () =
    match mode with
    | None -> Dpmr.vm_plain ?budget prog
    | Some m -> Dpmr.vm_dpmr ?budget ~mode:m prog
  in
  (Vm.run (mk ()), run_watched_baseline (mk ()), Vm.run_reference (mk ()))

let check_equal name (default, watched, reference) =
  List.iter
    (fun (leg, r) ->
      let chk sub fmt project =
        Alcotest.check fmt
          (Printf.sprintf "%s: %s %s" name leg sub)
          (project reference) (project r)
      in
      chk "outcome" Alcotest.string (fun r -> Outcome.to_string r.Outcome.outcome);
      chk "output" Alcotest.string (fun r -> r.Outcome.output);
      chk "cost" Alcotest.int64 (fun r -> r.Outcome.cost);
      chk "peak heap" Alcotest.int (fun r -> r.Outcome.peak_heap_bytes);
      chk "mapped pages" Alcotest.int (fun r -> r.Outcome.mapped_pages);
      chk "fi first cost"
        Alcotest.(option int64)
        (fun r -> r.Outcome.fi_first_cost))
    [ ("default", default); ("watched", watched) ]

(* --- every workload, golden and both DPMR designs --- *)

let test_workload wname () =
  let entry = Workloads.find wname in
  let base = entry.Workloads.build ~scale:1 () in
  check_equal (wname ^ " golden") (run_legs ~mode:None base);
  List.iter
    (fun (label, cfg) ->
      let tp = Dpmr.transform cfg base in
      check_equal (wname ^ " " ^ label)
        (run_legs ~mode:(Some cfg.Config.mode) tp))
    [
      ("sds", sds);
      ("mds", mds);
      ("sds+rearrange", { sds with Config.diversity = Config.Rearrange_heap });
      ("mds+zero-free", { mds with Config.diversity = Config.Zero_before_free });
      ("sds+temporal", { sds with Config.policy = Config.Temporal Config.temporal_mask_1_2 });
    ]

(* --- injected faults: the legs must agree on crashes, detections,
   and the exact detection point, not just on clean runs --- *)

let test_injected () =
  let entry = Workloads.find "mcf" in
  let base = entry.Workloads.build ~scale:1 () in
  (* the experiment harness's ~20x-golden budget: without it, a fault
     that silently loops runs to the 2e9-unit default on every leg *)
  let golden = Dpmr.run_plain base in
  let budget = Int64.mul 20L golden.Outcome.cost in
  List.iter
    (fun kind ->
      (* a prefix of the sites is enough: first/last bracket the range *)
      let sites =
        match Inject.sites kind base with
        | [] -> []
        | [ s ] -> [ s ]
        | s :: rest -> [ s; List.nth rest (List.length rest - 1) ]
      in
      List.iteri
        (fun i site ->
          let faulty = Inject.apply base kind site in
          let name = Printf.sprintf "mcf fi site %d" i in
          check_equal (name ^ " stdapp") (run_legs ~budget ~mode:None faulty);
          let tp = Dpmr.transform sds faulty in
          check_equal (name ^ " sds")
            (run_legs ~budget ~mode:(Some Config.Sds) tp))
        sites)
    [ Inject.Heap_array_resize 50; Inject.Immediate_free; Inject.Off_by_one; Inject.Wild_store 7 ]

(* --- the budget check fires at the same instruction on every leg --- *)

let test_timeout_agrees () =
  let entry = Workloads.find "mcf" in
  let base = entry.Workloads.build ~scale:1 () in
  let ((default, _, _) as legs) = run_legs ~budget:5_000L ~mode:None base in
  check_equal "mcf tiny budget" legs;
  Alcotest.(check string) "is a timeout" "timeout"
    (Outcome.to_string default.Outcome.outcome)

let suites =
  [
    ( "lowered-vs-reference",
      [
        Alcotest.test_case "art" `Quick (test_workload "art");
        Alcotest.test_case "bzip2" `Quick (test_workload "bzip2");
        Alcotest.test_case "equake" `Quick (test_workload "equake");
        Alcotest.test_case "mcf" `Quick (test_workload "mcf");
        Alcotest.test_case "injected faults" `Quick test_injected;
        Alcotest.test_case "timeout point" `Quick test_timeout_agrees;
      ] );
  ]
