(* Tiered execution: the closure-compiled top tier must be invisible.
   Four groups of checks:

   1. differential — real workloads produce byte-identical outcomes
      under the reference tree-walker, the default engine (fused
      compiled blocks from each call's first block) and a watched run
      whose frontier is never reached (the compiled tier's steps one at
      a time), and both compiled legs compile;

   2. a fault-injection grid classifies identically from zero and
      resumed from a copy-on-write snapshot — and the resumed members,
      whose fault activates at once, still run compiled;

   3. a [Vm.resume] edge: a member whose divergence frontier sits in a
      block with calls resumes exactly like its from-zero run, and the
      resumed member runs compiled;

   4. global operands, which the lowering binds to constant addresses:
      every way of using a global runs alike on all three legs, an
      undeclared one fails alike, and no workload build keeps a
      symbolic declared global. *)

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

(* ---- 1. three-leg differential on real workloads -------------------- *)

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
            (label ^ ": watched = reference") reference
            (run_fp (Test_lowered.run_watched_baseline (mk ())));
          Alcotest.(check bool)
            (label ^ ": the watched run compiles") true (Vm.tier_stats () > promos);
          let promos = Vm.tier_stats () in
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

(* ---- 4. global operands --------------------------------------------- *)

(* A scalar counter updated in a loop, an array indexed by the loop
   variable, the array's address cast to an integer and back, and a
   pointer initializer dereferenced at run time.  Prints 125, 9, 125. *)
let build_globals_prog () =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
  let count = B.global b ~name:"count" i64 (Prog.Gint 5L) in
  let table = B.global b ~name:"table" (arr i64 16) Prog.Gzero in
  let cptr = B.global b ~name:"cptr" (Ptr i64) (Prog.Gptr_global "count") in
  B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 16) (fun i ->
      B.store b i64 (B.add b W64 (B.load b i64 count) i) count;
      B.store b i64 (B.mul b W64 i i) (B.gep_index b table i));
  let slot3 = B.add b W64 (B.ptr_to_int b table) (B.i64c 24) in
  let v3 = B.load b i64 (B.int_to_ptr b (Ptr i64) slot3) in
  let via = B.load b i64 (B.load b (Ptr i64) cptr) in
  List.iter
    (fun v ->
      B.call0 b (Direct "print_int") [ v ];
      B.call0 b (Direct "putchar") [ B.i32c 10 ])
    [ B.load b i64 count; v3; via ];
  B.ret b (Some (B.i32c 0));
  p

let test_global_operands () =
  let p = build_globals_prog () in
  Verifier.check_prog p;
  let (_, _, reference) as legs = Test_lowered.run_legs ~mode:None p in
  Test_lowered.check_equal "globals" legs;
  Alcotest.(check string) "globals: output" "125\n9\n125\n" reference.Outcome.output

(* The "no address" error stays lazy: raised where the operand is
   evaluated, after the instruction's cost charge, on every engine. *)
let test_undeclared_global () =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
  B.call0 b (Direct "print_int") [ B.add b W64 (B.i64c 1) (B.i64c 2) ];
  B.call0 b (Direct "print_int") [ B.load b i64 (Global "nowhere") ];
  B.ret b (Some (B.i32c 0));
  let (_, _, reference) as legs = Test_lowered.run_legs ~mode:None p in
  Test_lowered.check_equal "undeclared global" legs;
  Alcotest.(check string) "undeclared global: outcome"
    "crash(no address for global \"nowhere\")"
    (Outcome.to_string reference.Outcome.outcome);
  Alcotest.(check string) "undeclared global: output before the fault" "3"
    reference.Outcome.output

let inst_ops = function
  | Lower.Lmalloc (_, _, o) | Lower.Lalloca (_, _, _, o) | Lower.Lfree o
  | Lower.Lload (_, _, o) | Lower.Lgep_field (_, _, o) | Lower.Lmov (_, o)
  | Lower.Lint_cast (_, _, _, _, o) | Lower.Lf_to_i (_, _, o) | Lower.Li_to_f (_, _, o)
  | Lower.Lload_fld (_, _, _, _, o) ->
      [ o ]
  | Lower.Lstore (_, a, b) | Lower.Lgep_index (_, _, a, b) | Lower.Lbinop (_, _, _, a, b)
  | Lower.Lfbinop (_, _, a, b) | Lower.Licmp (_, _, _, a, b) | Lower.Lfcmp (_, _, a, b)
  | Lower.Lload_idx (_, _, _, _, a, b) | Lower.Lstore_fld (_, a, _, _, b) ->
      [ a; b ]
  | Lower.Lselect (_, a, b, c) | Lower.Lstore_idx (_, a, _, _, b, c) -> [ a; b; c ]
  | Lower.Lcall (_, callee, args, _) ->
      (match callee with Lower.Lindirect o -> [ o ] | Lower.Lfun _ | Lower.Lextern _ -> [])
      @ Array.to_list args
  | Lower.Lpoison _ -> []

let term_ops = function
  | Lower.Lbr _ | Lower.Lret None | Lower.Lunreachable _ -> []
  | Lower.Lcbr (o, _, _) | Lower.Lret (Some o) -> [ o ]
  | Lower.Lcmpbr (_, _, _, a, b, _, _) -> [ a; b ]

(* every operand of every instruction and terminator of a lowering *)
let lowered_ops (lp : Lower.prog) =
  Hashtbl.fold
    (fun _ (lf : Lower.lfunc) acc ->
      Array.fold_left
        (fun acc (blk : Lower.lblock) ->
          term_ops blk.Lower.lterm
          @ List.concat_map inst_ops (Array.to_list blk.Lower.linsts)
          @ acc)
        acc lf.Lower.lblocks)
    lp.Lower.funcs []

(* The builds Figure 3.15 runs: rearrange-heap's buffer and the
   temporal policy's mask counter are globals read in the checked
   loops. *)
let test_no_symbolic_globals () =
  let addresses = ref 0 in
  List.iter
    (fun (w : Workloads.entry) ->
      let p = w.Workloads.build ~scale:1 () in
      let cfg mode =
        {
          Config.default with
          Config.mode;
          diversity = Config.Rearrange_heap;
          policy = Config.Temporal Config.temporal_mask_1_2;
        }
      in
      let builds =
        ("plain", p)
        :: List.map
             (fun mode -> (Config.mode_name mode, Dpmr.transform (cfg mode) p))
             Config.[ Sds; Mds ]
      in
      List.iter
        (fun (label, prog) ->
          let lp = Lower.lower_prog prog in
          let is_global_addr a =
            Hashtbl.fold (fun _ ga hit -> hit || Int64.equal a ga) lp.Lower.global_addr false
          in
          List.iter
            (function
              | Lower.Lglobal g ->
                  Alcotest.failf "%s %s: global %S lowered symbolically" w.Workloads.name
                    label g
              | Lower.Lconst (Lower.I a) when is_global_addr a -> incr addresses
              | _ -> ())
            (lowered_ops lp))
        builds)
    Workloads.all;
  Alcotest.(check bool) "some operands are global addresses" true (!addresses > 0)

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
        Alcotest.test_case "global operands agree across tiers" `Quick
          test_global_operands;
        Alcotest.test_case "undeclared global fails alike" `Quick test_undeclared_global;
        Alcotest.test_case "no symbolic declared global" `Quick test_no_symbolic_globals;
      ] );
  ]
