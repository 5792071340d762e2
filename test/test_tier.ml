(* Tiered execution: the closure-compiled top tier must be invisible.
   Three groups of checks:

   1. differential — real workloads produce byte-identical outcomes
      under the reference tree-walker, the lowered interpreter, and the
      forced compiled tier;

   2. a fault-injection grid classifies identically whether members run
      lowered or compiled, from zero or resumed from a copy-on-write
      snapshot — and the compiled tier actually deoptimizes when the
      injected fault activates mid-run;

   3. a [Vm.resume] edge: a member whose divergence frontier sits in a
      call block (a compiled-tier deopt point) resumes, lowered and
      compiled, exactly like its from-zero run. *)

open Dpmr_ir
open Types
open Inst
module B = Builder
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Vm = Dpmr_vm.Vm
module Lower = Dpmr_vm.Lower
module Outcome = Dpmr_vm.Outcome
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Workloads = Dpmr_workloads.Workloads

let with_tier mode f =
  let old = Vm.tier_mode () in
  Vm.set_tier_mode mode;
  Fun.protect ~finally:(fun () -> Vm.set_tier_mode old) f

let run_fp (r : Outcome.run) =
  Printf.sprintf "%s cost=%Ld heap=%d out=%S"
    (Outcome.to_string r.Outcome.outcome)
    r.Outcome.cost r.Outcome.peak_heap_bytes r.Outcome.output

(* ---- 1. three-tier differential on real workloads ------------------- *)

let test_three_tiers_agree () =
  List.iter
    (fun name ->
      let entry = Workloads.find name in
      let p = entry.Workloads.build ~scale:1 () in
      let golden mode = with_tier mode (fun () -> run_fp (Dpmr.run_plain p)) in
      let reference = golden Vm.Tier_ref in
      Alcotest.(check string)
        (name ^ ": lowered = reference") reference (golden Vm.Tier_lowered);
      Alcotest.(check string)
        (name ^ ": compiled = reference") reference (golden Vm.Tier_compiled);
      Alcotest.(check string)
        (name ^ ": auto = reference") reference (golden Vm.Tier_auto);
      let cfg = { Config.default with Config.diversity = Config.Rearrange_heap } in
      let dpmr mode = with_tier mode (fun () -> run_fp (Dpmr.run_dpmr cfg p)) in
      let lowered = dpmr Vm.Tier_lowered in
      Alcotest.(check string)
        (name ^ ": transformed compiled = lowered") lowered
        (dpmr Vm.Tier_compiled))
    [ "equake"; "mcf" ]

(* ---- 2. fault grid: lowered vs compiled, from zero vs resumed ------- *)

let test_grid_tiers_agree () =
  let entry = Workloads.find "mcf" in
  let e =
    Experiment.make
      (Experiment.workload "mcf" (fun () -> entry.Workloads.build ~scale:1 ()))
  in
  let cfg = { Config.default with Config.diversity = Config.Rearrange_heap } in
  let kind = Inject.Immediate_free in
  let sites =
    match Experiment.sites e kind with
    | a :: b :: c :: d :: _ -> [ a; b; c; d ]
    | l -> l
  in
  Alcotest.(check bool) "workload has injectable sites" true (sites <> []);
  let variants =
    Array.of_list (List.map (fun s -> Experiment.Fi_dpmr (cfg, kind, s)) sites)
  in
  let classify_all mode ~resume =
    with_tier mode (fun () ->
        if resume then begin
          let g = Experiment.plan_group e variants in
          Array.to_list (Array.mapi (fun i _ -> Experiment.run_member e g i) variants)
        end
        else Array.to_list (Array.map (Experiment.run_variant e) variants))
  in
  let baseline = classify_all Vm.Tier_lowered ~resume:false in
  Alcotest.(check bool)
    "at least one injection activated" true
    (List.exists (fun c -> c.Experiment.sf) baseline);
  let _, deopts_before = Vm.tier_stats () in
  Alcotest.(check bool)
    "compiled from-zero grid = lowered" true
    (classify_all Vm.Tier_compiled ~resume:false = baseline);
  let _, deopts_after = Vm.tier_stats () in
  Alcotest.(check bool)
    "fault activation forced compiled-tier deopts" true
    (deopts_after > deopts_before);
  Alcotest.(check bool)
    "lowered resumed grid = lowered from zero" true
    (classify_all Vm.Tier_lowered ~resume:true = baseline);
  Alcotest.(check bool)
    "compiled resumed grid = lowered from zero" true
    (classify_all Vm.Tier_compiled ~resume:true = baseline)

(* ---- 3. resume at a deopt-point frontier ---------------------------- *)

(* Baseline and member share functions, globals and block structure; the
   member does an extra boxed round-trip inside the then-branch of a
   conditional the baseline run takes.  That branch is the first block
   where the two differ, and it contains calls (box/free), so the
   divergence frontier's block boundary is a compiled-tier
   deoptimization point.  The hot loop past the join lowers to fused
   load/arith/store runs, which the resumed member executes compiled. *)
let build_fork_prog ~extra () =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  let b = B.create p ~name:"box" ~params:[ ("v", i64) ] ~ret:(Ptr i64) () in
  let cell = B.malloc b i64 in
  B.store b i64 (B.param b 0) cell;
  B.ret b (Some cell);
  let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
  let arr = B.malloc b ~name:"arr" ~count:(B.i64c 64) i64 in
  B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 64) (fun i ->
      B.store b i64 (B.mul b W64 i (B.i64c 7)) (B.gep_index b arr i));
  let acc = B.local b ~name:"acc" i64 (B.i64c 0) in
  let flag = B.load b i64 (B.gep_index b arr (B.i64c 1)) in
  B.if_else b
    (B.icmp b Isgt W64 flag (B.i64c 0))
    (fun () ->
      (* the baseline run takes this branch (arr[1] = 7 > 0) *)
      let c = B.call1 b (Direct "box") [ B.i64c 9 ] in
      let v = B.load b i64 c in
      B.free b c;
      if extra then begin
        let c2 = B.call1 b (Direct "box") [ B.i64c 5 ] in
        let w = B.load b i64 c2 in
        B.free b c2;
        B.set b i64 acc (B.add b W64 v w)
      end
      else B.set b i64 acc v)
    (fun () -> B.set b i64 acc (B.i64c 1));
  B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 64) (fun i ->
      let v = B.load b i64 (B.gep_index b arr i) in
      let m = B.mul b W64 (B.get b i64 acc) (B.i64c 31) in
      B.set b i64 acc (B.add b W64 m v));
  B.call0 b (Direct "print_int") [ B.get b i64 acc ];
  B.ret b (Some (B.i32c 0));
  p

let test_resume_at_deopt_point () =
  let base = build_fork_prog ~extra:false () in
  let memb = build_fork_prog ~extra:true () in
  Verifier.check_prog base;
  Verifier.check_prog memb;
  let lbase = Lower.lower_prog base and lmemb = Lower.lower_prog memb in
  let limits =
    match Lower.diff_limits lbase lmemb with
    | Some l -> l
    | None -> Alcotest.fail "expected a common structural prefix"
  in
  (* the first block with a finite limit contains calls: its boundary is
     a compiled-tier deoptimization point *)
  let frontier_is_call_block =
    match Hashtbl.find_opt limits "main" with
    | None -> false
    | Some row -> (
        let lf = Hashtbl.find lmemb.Lower.funcs "main" in
        match Array.find_index (fun l -> l < max_int) row with
        | None -> false
        | Some bidx -> lf.Lower.lblocks.(bidx).Lower.lflags land Lower.b_call <> 0)
  in
  Alcotest.(check bool)
    "frontier block is a deopt point (call block)" true frontier_is_call_block;
  let from_zero =
    with_tier Vm.Tier_lowered (fun () ->
        run_fp (Dpmr.run_plain ~lowered:lmemb memb))
  in
  let resumed mode =
    with_tier mode (fun () ->
        match Dpmr.watched_plain ~lowered:lbase base [| limits |] with
        | [| Vm.Wsnap snap |] -> run_fp (Dpmr.resume_plain ~lowered:lmemb memb snap)
        | _ -> Alcotest.fail "expected the baseline to reach the frontier")
  in
  Alcotest.(check string) "lowered resume = from zero" from_zero
    (resumed Vm.Tier_lowered);
  let promos_before, _ = Vm.tier_stats () in
  Alcotest.(check string) "compiled resume = from zero" from_zero
    (resumed Vm.Tier_compiled);
  let promos_after, _ = Vm.tier_stats () in
  Alcotest.(check bool)
    "the resumed member actually ran compiled" true
    (promos_after > promos_before)

let suites =
  [
    ( "tier",
      [
        Alcotest.test_case "three tiers agree on workloads" `Quick
          test_three_tiers_agree;
        Alcotest.test_case "fault grid agrees across tiers and plans" `Quick
          test_grid_tiers_agree;
        Alcotest.test_case "resume at a deopt-point frontier" `Quick
          test_resume_at_deopt_point;
      ] );
  ]
