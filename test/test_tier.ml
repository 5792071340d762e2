(* Tiered execution: the closure-compiled top tier must be invisible.
   Three groups of checks:

   1. differential — real workloads produce byte-identical outcomes
      under the reference tree-walker, the default engine (compiled from
      each call's first block) and the lowered interpreter (a watched run
      whose frontier is never reached), and each leg runs on its tier;

   2. a fault-injection grid classifies identically from zero and
      resumed from a copy-on-write snapshot — and the resumed members,
      whose fault activates at once, still run compiled;

   3. a [Vm.resume] edge: a member whose divergence frontier sits in a
      block with calls resumes exactly like its from-zero run, and the
      resumed member runs compiled. *)

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

let run_fp (r : Outcome.run) =
  Printf.sprintf "%s cost=%Ld heap=%d out=%S"
    (Outcome.to_string r.Outcome.outcome)
    r.Outcome.cost r.Outcome.peak_heap_bytes r.Outcome.output

(* ---- 1. three-tier differential on real workloads ------------------- *)

let test_three_tiers_agree () =
  List.iter
    (fun name ->
      let p = (Workloads.find name).Workloads.build ~scale:1 () in
      let cfg = { Config.default with Config.diversity = Config.Rearrange_heap } in
      let tp = Dpmr.transform cfg p in
      List.iter
        (fun (label, mk) ->
          let label = name ^ " " ^ label in
          let reference = run_fp (Vm.run_reference (mk ())) in
          let promos = Vm.tier_stats () in
          Alcotest.(check string)
            (label ^ ": lowered = reference") reference
            (run_fp (Test_lowered.run_lowered_loop (mk ())));
          Alcotest.(check int)
            (label ^ ": the watched run compiles nothing") promos (Vm.tier_stats ());
          Alcotest.(check string)
            (label ^ ": compiled = reference") reference (run_fp (Vm.run (mk ())));
          Alcotest.(check bool)
            (label ^ ": the default run compiles") true (Vm.tier_stats () > promos))
        [
          ("golden", fun () -> Dpmr.vm_plain p);
          ("transformed", fun () -> Dpmr.vm_dpmr ~mode:cfg.Config.mode tp);
        ])
    [ "equake"; "mcf" ]

(* ---- 2. fault grid: from zero vs resumed ---------------------------- *)

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
  let from_zero = Array.to_list (Array.map (Experiment.run_variant e) variants) in
  Alcotest.(check bool)
    "at least one injection activated" true
    (List.exists (fun c -> c.Experiment.sf) from_zero);
  (* every resumed member activates its fault at once; it compiles all
     the same *)
  let promos = Vm.tier_stats () in
  let g = Experiment.plan_group e variants in
  let resumed =
    Array.to_list (Array.mapi (fun i _ -> Experiment.run_member e g i) variants)
  in
  Alcotest.(check bool) "resumed grid = from zero" true (resumed = from_zero);
  Alcotest.(check bool)
    "activated resumed members promote" true
    (Vm.tier_stats () > promos)

(* ---- 3. resume at a call-block frontier ----------------------------- *)

(* Baseline and member share functions, globals and block structure; the
   member does an extra boxed round-trip inside the then-branch of a
   conditional the baseline run takes.  That branch is the first block
   where the two differ, and it contains calls (box/free), so the
   capture holds a frame in a call-carrying block.  The hot loop past
   the join lowers to fused load/arith/store runs, which the resumed
   member executes compiled. *)
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

let test_resume_at_call_block () =
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
  (* from zero on its own lowering, so [lmemb] is still uncompiled when
     the member resumes on it *)
  let from_zero = run_fp (Dpmr.run_plain memb) in
  let snap =
    match Dpmr.watched_plain ~lowered:lbase base [| limits |] with
    | [| Vm.Wsnap snap |] -> snap
    | _ -> Alcotest.fail "expected the baseline to reach the frontier"
  in
  let promos = Vm.tier_stats () in
  Alcotest.(check string) "resume = from zero" from_zero
    (run_fp (Dpmr.resume_plain ~lowered:lmemb memb snap));
  Alcotest.(check bool)
    "the resumed member actually ran compiled" true
    (Vm.tier_stats () > promos)

let suites =
  [
    ( "tier",
      [
        Alcotest.test_case "three tiers agree on workloads" `Quick
          test_three_tiers_agree;
        Alcotest.test_case "fault grid agrees across tiers and plans" `Quick
          test_grid_tiers_agree;
        Alcotest.test_case "resume at a call-block frontier" `Quick
          test_resume_at_call_block;
      ] );
  ]
