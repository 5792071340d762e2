(* Data Structure Analysis tests (Chapter 5): local graphs, flags,
   unification, completeness, interprocedural phases, the markX exclusion
   closure, and the end-to-end scope-expanded transformation. *)

open Dpmr_ir
open Types
open Inst
module Graph = Dpmr_dsa.Graph
module Local = Dpmr_dsa.Local
module Interproc = Dpmr_dsa.Interproc
module Scope = Dpmr_dsa.Scope
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome
module Progs = Dpmr_testprogs.Progs

let node_of res r =
  match Graph.reg_node res.Local.graph r with
  | Some (n, _) -> n
  | None -> Alcotest.fail "register has no DS node"

let reg_of_operand = function
  | Reg r -> r
  | _ -> Alcotest.fail "expected register operand"

(* ---- local phase basics ---- *)

let test_alloc_flags () =
  let p = Progs.fresh () in
  let b = Builder.create p ~name:"f" ~params:[] ~ret:Void () in
  let h = Builder.malloc b i64 in
  let s = Builder.alloca b i64 in
  Builder.ret0 b;
  let res = Local.analyze p (Prog.func p "f") in
  Alcotest.(check bool) "heap flag" true
    (Graph.has_flag (node_of res (reg_of_operand h)) Graph.Heap);
  Alcotest.(check bool) "stack flag" true
    (Graph.has_flag (node_of res (reg_of_operand s)) Graph.Stack)

(* Figure 5.1(a): ptr-to-int then int-to-ptr *)
let test_ptr_int_flags () =
  let p = Progs.fresh () in
  let b = Builder.create p ~name:"f" ~params:[] ~ret:Void () in
  let x = Builder.malloc b ~count:(Builder.i64c 3) i32 in
  let y = Builder.ptr_to_int b x in
  let y4 = Builder.add b W64 y (Builder.i64c 4) in
  let z = Builder.int_to_ptr b (Ptr i32) y4 in
  Builder.store b i32 (Builder.i32c 1) z;
  Builder.ret0 b;
  let res = Local.analyze p (Prog.func p "f") in
  Alcotest.(check bool) "x marked P" true
    (Graph.has_flag (node_of res (reg_of_operand x)) Graph.Ptr_to_int_f);
  let zn = node_of res (reg_of_operand z) in
  Alcotest.(check bool) "z marked 2" true (Graph.has_flag zn Graph.Int_to_ptr_f);
  Alcotest.(check bool) "z marked U" true (Graph.has_flag zn Graph.Unknown)

(* Type-inhomogeneous use collapses the node (the O flag). *)
let test_collapse_on_inhomogeneous_use () =
  let p = Progs.fresh () in
  let b = Builder.create p ~name:"f" ~params:[] ~ret:Void () in
  let x = Builder.malloc b ~count:(Builder.i64c 2) i64 in
  Builder.store b i64 (Builder.i64c 1) x;
  let xf = Builder.bitcast b (Ptr Float) x in
  Builder.store b Float (Builder.fc 1.0) xf;
  Builder.ret0 b;
  let res = Local.analyze p (Prog.func p "f") in
  Alcotest.(check bool) "collapsed" true
    (Graph.is_collapsed (node_of res (reg_of_operand x)))

let test_homogeneous_use_stays_field_sensitive () =
  let p = Progs.fresh () in
  Tenv.define_struct p.Prog.tenv "Pair" [ i64; Ptr i64 ];
  let b = Builder.create p ~name:"f" ~params:[] ~ret:Void () in
  let x = Builder.malloc b (Struct "Pair") in
  Builder.store b i64 (Builder.i64c 1) (Builder.gep_field b x 0);
  let cell = Builder.malloc b i64 in
  Builder.store b (Ptr i64) cell (Builder.gep_field b x 1);
  Builder.ret0 b;
  let res = Local.analyze p (Prog.func p "f") in
  Alcotest.(check bool) "not collapsed" false
    (Graph.is_collapsed (node_of res (reg_of_operand x)))

(* Store then load of a pointer flows through the field edge. *)
let test_points_to_through_memory () =
  let p = Progs.fresh () in
  let b = Builder.create p ~name:"f" ~params:[] ~ret:Void () in
  let target = Builder.malloc b i64 in
  let cell = Builder.malloc b (Ptr i64) in
  Builder.store b (Ptr i64) target cell;
  let loaded = Builder.load b (Ptr i64) cell in
  Builder.store b i64 (Builder.i64c 5) loaded;
  Builder.ret0 b;
  let res = Local.analyze p (Prog.func p "f") in
  Alcotest.(check bool) "loaded aliases target" true
    (Graph.find (node_of res (reg_of_operand target))
    == Graph.find (node_of res (reg_of_operand loaded)))

(* Completeness: local heap data not passed anywhere is complete; data
   reachable from arguments or calls is not (Figure 5.2's reachability). *)
let test_completeness () =
  let p = Progs.fresh () in
  let b = Builder.create p ~name:"f" ~params:[ ("q", Ptr i64) ] ~ret:Void () in
  let local_obj = Builder.malloc b i64 in
  Builder.store b i64 (Builder.i64c 1) local_obj;
  let escaping = Builder.malloc b ~count:(Builder.i64c 4) i8 in
  let esc8 = Builder.bitcast b (Ptr (arr i8 0)) escaping in
  ignore (Builder.call b (Direct "strlen") [ esc8 ]);
  Builder.ret0 b;
  let res = Local.analyze p (Prog.func p "f") in
  Local.mark_completeness res;
  Alcotest.(check bool) "local object complete" true
    (Graph.is_complete (node_of res (reg_of_operand local_obj)));
  Alcotest.(check bool) "escaping object incomplete" false
    (Graph.is_complete (node_of res (reg_of_operand escaping)));
  let qreg = fst (List.hd (Prog.func p "f").Func.params) in
  Alcotest.(check bool) "argument incomplete" false
    (Graph.is_complete (node_of res qreg))

(* ---- interprocedural ---- *)

(* Bottom-up: callee stores its argument into a global cell; the caller's
   actual must end up aliased with what the global points to. *)
let test_bottom_up_inlining () =
  let p = Progs.fresh () in
  Prog.add_global p { Prog.gname = "cell"; gty = Ptr i64; ginit = Prog.Gptr_null };
  let b = Builder.create p ~name:"stash" ~params:[ ("v", Ptr i64) ] ~ret:Void () in
  Builder.store b (Ptr i64) (Builder.param b 0) (Global "cell");
  Builder.ret0 b;
  let b = Builder.create p ~name:"main" ~params:[] ~ret:i32 () in
  let obj = Builder.malloc b i64 in
  Builder.call0 b (Direct "stash") [ obj ];
  let back = Builder.load b (Ptr i64) (Global "cell") in
  Builder.store b i64 (Builder.i64c 9) back;
  Builder.ret b (Some (Builder.i32c 0));
  let summary = Interproc.analyze p in
  let main_res = Hashtbl.find summary.Interproc.results "main" in
  Alcotest.(check bool) "obj aliases load from global cell" true
    (Graph.find (node_of main_res (reg_of_operand obj))
    == Graph.find (node_of main_res (reg_of_operand back)))

(* Top-down: an int-to-ptr pointer passed into a callee taints the
   callee's formal. *)
let test_top_down_flag_propagation () =
  let p = Progs.fresh () in
  let b = Builder.create p ~name:"sink" ~params:[ ("q", Ptr i64) ] ~ret:Void () in
  Builder.store b i64 (Builder.i64c 1) (Builder.param b 0);
  Builder.ret0 b;
  let b = Builder.create p ~name:"main" ~params:[] ~ret:i32 () in
  let wild = Builder.int_to_ptr b (Ptr i64) (Builder.i64c 0x1234) in
  Builder.call0 b (Direct "sink") [ wild ];
  Builder.ret b (Some (Builder.i32c 0));
  let summary = Interproc.analyze p in
  let sink_res = Hashtbl.find summary.Interproc.results "sink" in
  let qreg = fst (List.hd (Prog.func p "sink").Func.params) in
  Alcotest.(check bool) "formal tainted Unknown" true
    (Graph.has_flag (node_of sink_res qreg) Graph.Unknown)

(* ---- markX exclusion closure (Figures 5.3/5.4/5.7) ---- *)

let test_exclusion_closure () =
  let p = Progs.fresh () in
  Tenv.define_struct p.Prog.tenv "Box" [ Ptr i64 ];
  let b = Builder.create p ~name:"main" ~params:[] ~ret:i32 () in
  (* box is reached from a manufactured pointer: excluded, and the object
     its field points to must be excluded too (reachability closure) *)
  let box = Builder.malloc b (Struct "Box") in
  let inner = Builder.malloc b i64 in
  Builder.store b (Ptr i64) inner (Builder.gep_field b box 0);
  let addr = Builder.ptr_to_int b box in
  let box2 = Builder.int_to_ptr b (Ptr (Struct "Box")) addr in
  let inner2 = Builder.load b (Ptr i64) (Builder.gep_field b box2 0) in
  Builder.store b i64 (Builder.i64c 3) inner2;
  (* a separate clean object stays included *)
  let clean = Builder.malloc b i64 in
  Builder.store b i64 (Builder.i64c 4) clean;
  Builder.ret b (Some (Builder.i32c 0));
  let scope = Scope.compute p in
  let ex r = Scope.excluded_reg scope "main" (reg_of_operand r) in
  Alcotest.(check bool) "box2 excluded" true (ex box2);
  Alcotest.(check bool) "inner (reached from excluded) excluded" true (ex inner);
  Alcotest.(check bool) "clean object included" false (ex clean);
  Alcotest.(check bool) "exclusion ratio in (0,1)" true
    (let r = Scope.exclusion_ratio scope "main" in
     r > 0.0 && r < 1.0)

(* ---- end-to-end: DSA + MDS transforms programs MDS alone rejects ---- *)

let test_int_to_ptr_program_runs_under_dsa () =
  let p = Progs.int_to_ptr_prog () in
  (* plain MDS rejects it *)
  Alcotest.(check bool) "MDS alone rejects" true
    (try
       ignore (Dpmr.transform { Config.default with Config.mode = Config.Mds } p);
       false
     with Dpmr.Unsupported _ -> true);
  (* DSA scope expansion accepts and preserves semantics *)
  let cfg = { Config.default with Config.mode = Config.Mds } in
  let tp = Dpmr_dsa.Dsa_dpmr.transform cfg p in
  Verifier.check_prog tp;
  let golden = Dpmr.run_plain p in
  let vm = Dpmr.vm_dpmr ~mode:Config.Mds tp in
  let r = Dpmr_vm.Vm.run vm in
  Alcotest.(check string) "output preserved" golden.Outcome.output r.Outcome.output;
  Alcotest.(check bool) "normal" true (r.Outcome.outcome = Outcome.Normal)

let test_dsa_keeps_detection_on_included_memory () =
  (* the overflow program has no unknown behaviour: DSA excludes nothing
     relevant and detection still fires *)
  let p = Progs.overflow ~limit:16 () in
  let cfg = { Config.default with Config.mode = Config.Mds } in
  let tp = Dpmr_dsa.Dsa_dpmr.transform cfg p in
  Verifier.check_prog tp;
  let vm = Dpmr.vm_dpmr ~mode:Config.Mds tp in
  let r = Dpmr_vm.Vm.run vm in
  Alcotest.(check bool)
    ("still detected: got " ^ Outcome.to_string r.Outcome.outcome)
    true (Outcome.is_dpmr_detect r)

let test_dsa_mixed_program () =
  (* one object accessed through a manufactured pointer (excluded, no
     checks) and one replicated normally; semantics preserved *)
  let p = Progs.dsa_mixed () in
  let cfg = { Config.default with Config.mode = Config.Mds } in
  let tp, scope = Dpmr_dsa.Dsa_dpmr.transform_with_scope cfg p in
  Verifier.check_prog tp;
  ignore scope;
  let vm = Dpmr.vm_dpmr ~mode:Config.Mds tp in
  let r = Dpmr_vm.Vm.run vm in
  Alcotest.(check string) "42" "42" r.Outcome.output;
  Alcotest.(check bool) "normal" true (r.Outcome.outcome = Outcome.Normal)

let test_sds_with_dsa_rejected () =
  Alcotest.(check bool) "SDS+DSA invalid" true
    (try
       ignore (Dpmr_dsa.Dsa_dpmr.transform Config.default (Progs.linked_list ()));
       false
     with Invalid_argument _ -> true)

(* §5.4: external functions with support libraries do not contaminate the
   analysis — memory passed to a wrapped extern stays analyzable (merely
   incomplete), so it is NOT excluded from replication. *)
let test_externs_do_not_exclude () =
  let p = Progs.fresh () in
  let b = Builder.create p ~name:"main" ~params:[] ~ret:i32 () in
  let buf = Builder.malloc b ~count:(Builder.i64c 16) i8 in
  let buf8 = Builder.bitcast b (Ptr (arr i8 0)) buf in
  let n = Builder.call1 b (Direct "strlen") [ buf8 ] in
  Builder.call0 b (Direct "print_int") [ n ];
  Builder.ret b (Some (Builder.i32c 0));
  let scope = Scope.compute p in
  Alcotest.(check bool) "buffer passed to strlen not excluded" false
    (Scope.excluded_reg scope "main" (reg_of_operand buf))

let test_graph_pp_smoke () =
  let p = Progs.linked_list () in
  let summary = Interproc.analyze p in
  let res = Hashtbl.find summary.Interproc.results "getSum" in
  let s = Fmt.str "%a" Graph.pp res.Local.graph in
  Alcotest.(check bool) "prints nodes" true (String.length s > 20)

let test_workloads_analyze () =
  (* DSA runs over every benchmark workload without exploding, and the
     clean workloads exclude nothing *)
  List.iter
    (fun (e : Dpmr_workloads.Workloads.entry) ->
      let p = e.Dpmr_workloads.Workloads.build () in
      let scope = Scope.compute p in
      let r = Scope.exclusion_ratio scope "main" in
      Alcotest.(check bool)
        (e.Dpmr_workloads.Workloads.name ^ " has no exclusions")
        true (r = 0.0))
    Dpmr_workloads.Workloads.all

let suites =
  [
    ( "dsa.local",
      [
        Alcotest.test_case "allocation flags" `Quick test_alloc_flags;
        Alcotest.test_case "Fig 5.1: P and 2 flags" `Quick test_ptr_int_flags;
        Alcotest.test_case "collapse on inhomogeneous use" `Quick
          test_collapse_on_inhomogeneous_use;
        Alcotest.test_case "field sensitivity retained" `Quick
          test_homogeneous_use_stays_field_sensitive;
        Alcotest.test_case "points-to through memory" `Quick test_points_to_through_memory;
        Alcotest.test_case "completeness marking" `Quick test_completeness;
      ] );
    ( "dsa.interproc",
      [
        Alcotest.test_case "bottom-up inlining" `Quick test_bottom_up_inlining;
        Alcotest.test_case "top-down flag propagation" `Quick
          test_top_down_flag_propagation;
      ] );
    ( "dsa.scope",
      [
        Alcotest.test_case "markX closure" `Quick test_exclusion_closure;
        Alcotest.test_case "int-to-ptr program runs" `Quick
          test_int_to_ptr_program_runs_under_dsa;
        Alcotest.test_case "detection kept on included memory" `Quick
          test_dsa_keeps_detection_on_included_memory;
        Alcotest.test_case "mixed program preserved" `Quick test_dsa_mixed_program;
        Alcotest.test_case "SDS+DSA rejected" `Quick test_sds_with_dsa_rejected;
        Alcotest.test_case "externs do not exclude (5.4)" `Quick
          test_externs_do_not_exclude;
        Alcotest.test_case "DS graph printing" `Quick test_graph_pp_smoke;
        Alcotest.test_case "workloads analyze cleanly" `Quick test_workloads_analyze;
      ] );
  ]
