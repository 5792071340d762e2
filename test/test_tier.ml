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

(* ---- 5. arm coverage ------------------------------------------------ *)

(* The compiled tier binds each hot step's operator, condition, width and
   operand shape when it builds the step, and decodes the rest at run
   time; these tables run every combination on the three legs, which
   must agree on outcome, output, cost, peak heap and mapped pages.
   Each case is [main]'s body, printing every result it computes. *)
let check_case name body =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  Tenv.define_struct p.Prog.tenv "Tri" [ i8; i16; i32; i64; Float ];
  let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
  (* 8 KiB of globals at [Mem.globals_base]: two mapped pages *)
  ignore (B.global b ~name:"big" (arr i8 8192) Prog.Gzero);
  body b;
  B.ret b (Some (B.i32c 0));
  Test_lowered.check_equal name (Test_lowered.run_legs ~mode:None p)

let out b v =
  B.call0 b (Direct "print_int") [ v ];
  B.call0 b (Direct "putchar") [ B.i32c 32 ]

(* a float's bits, printed through memory *)
let out_bits b f =
  let slot = B.alloca b Float in
  B.store b Float f slot;
  out b (B.load b i64 (B.bitcast b (Ptr i64) slot))

(* [v] in a register: a stack slot's load, so no step sees a constant *)
let reg b ty v = B.get b ty (B.local b ty v)

(* the operand shapes of a binary step: register or constant, each side *)
let shapes b ty x y = [ (reg b ty x, reg b ty y); (reg b ty x, y); (x, reg b ty y); (x, y) ]

let widths = [ W8; W16; W32; W64 ]
let wname w = Printf.sprintf "i%d" (bits_of_width w)

(* signs, a shift count past the width, and min_int / -1 *)
let int_pairs w =
  [ (-13L, 5L); (100L, -7L); (127L, 3L); (-1L, Int64.of_int (bits_of_width w + 1));
    (0x5555_5555_5555_5555L, 2L); (Int64.min_int, -1L); (-128L, -1L) ]

let test_binop_arms () =
  List.iter
    (fun (op, oname) ->
      List.iter
        (fun w ->
          check_case (oname ^ " " ^ wname w) (fun b ->
              List.iter
                (fun (x, y) ->
                  List.iter
                    (fun (a, c) -> out b (B.binop b op w a c))
                    (shapes b (Int w) (Cint (w, x)) (Cint (w, y))))
                (int_pairs w)))
        widths)
    [ (Add, "add"); (Sub, "sub"); (Mul, "mul"); (Sdiv, "sdiv"); (Srem, "srem");
      (Udiv, "udiv"); (Urem, "urem"); (And, "and"); (Or, "or"); (Xor, "xor");
      (Shl, "shl"); (Lshr, "lshr"); (Ashr, "ashr") ]

(* every condition at every width, alone and fused into a branch *)
let test_icmp_arms () =
  List.iter
    (fun (c, cname) ->
      List.iter
        (fun w ->
          check_case (Printf.sprintf "icmp %s %s" cname (wname w)) (fun b ->
              List.iter
                (fun (x, y) ->
                  List.iter
                    (fun (a, d) ->
                      out b (B.icmp b c w a d);
                      B.if_else b (B.icmp b c w a d)
                        (fun () -> out b (B.i64c 1))
                        (fun () -> out b (B.i64c 0)))
                    (shapes b (Int w) (Cint (w, x)) (Cint (w, y))))
                [ (-13L, 5L); (5L, -13L); (7L, 7L); (0L, -1L); (Int64.max_int, Int64.min_int) ]))
        widths)
    [ (Ieq, "eq"); (Ine, "ne"); (Islt, "slt"); (Isle, "sle"); (Isgt, "sgt"); (Isge, "sge");
      (Iult, "ult"); (Iule, "ule"); (Iugt, "ugt"); (Iuge, "uge") ]

let float_pairs =
  [ (1.5, 2.5); (2.5, 1.5); (2.5, 2.5); (Float.nan, 1.0); (1.0, Float.nan);
    (Float.nan, Float.nan); (-0.0, 0.0); (1.0, 0.0); (1e308, 10.0) ]

let test_float_arms () =
  List.iter
    (fun (c, cname) ->
      check_case ("fcmp " ^ cname) (fun b ->
          List.iter
            (fun (x, y) ->
              List.iter
                (fun (a, d) -> out b (B.fcmp b c a d))
                (shapes b Float (B.fc x) (B.fc y)))
            float_pairs))
    [ (Foeq, "oeq"); (Fone, "one"); (Folt, "olt"); (Fole, "ole"); (Fogt, "ogt"); (Foge, "oge") ];
  List.iter
    (fun (op, oname) ->
      check_case ("fbinop " ^ oname) (fun b ->
          List.iter
            (fun (x, y) ->
              List.iter
                (fun (a, d) -> out_bits b (B.fbinop b op a d))
                (shapes b Float (B.fc x) (B.fc y)))
            float_pairs))
    [ (Fadd, "add"); (Fsub, "sub"); (Fmul, "mul"); (Fdiv, "div") ];
  check_case "float casts" (fun b ->
      List.iter
        (fun x ->
          out b (B.f_to_i b W32 (reg b Float (B.fc x)));
          out b (B.f_to_i b W8 (B.fc x)))
        [ 1.5; -2.5; 300.7; Float.nan ];
      List.iter
        (fun w ->
          out_bits b (B.i_to_f b w (reg b (Int w) (Cint (w, -3L))));
          out_bits b (B.i_to_f b w (Cint (w, -3L))))
        widths)

let test_int_casts () =
  check_case "int casts" (fun b ->
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              List.iter
                (fun signed ->
                  List.iter
                    (fun v ->
                      out b (B.int_cast b ~signed dst (reg b (Int src) (Cint (src, v))));
                      out b (B.int_cast b ~signed dst (Cint (src, v))))
                    [ -3L; 0x1234_5678_9ABC_DEF0L; 127L ])
                [ false; true ])
            widths)
        widths)

(* 1-, 2-, 4- and 8-byte and float accesses through a register and at a
   constant address, at an aligned, an odd and a page-straddling
   address, and fused with an index or a field offset *)
let test_access_arms () =
  let kinds = [ (Int W8, W8); (Int W16, W16); (Int W32, W32); (Int W64, W64); (Float, W64) ] in
  let value ty w k =
    match ty with Float -> B.fc (Int64.to_float k +. 0.25) | _ -> Cint (w, k)
  in
  let show b ty v = match ty with Float -> out_bits b v | _ -> out b v in
  (* a store of [ty]'s width over 8 set bytes, read back at that width
     and as the 8 bytes from its address, so a wider access shows *)
  let store b ty v p =
    B.store b i64 (B.i64c (-1)) p;
    B.store b ty v p;
    show b ty (B.load b ty p);
    out b (B.load b i64 p)
  in
  List.iter
    (fun (ty, w) ->
      check_case ("access " ^ Types.to_string ty) (fun b ->
          let buf = B.malloc b ~count:(B.i64c (3 * 4096)) i8 in
          let page =
            B.binop b And W64 (B.add b W64 (B.ptr_to_int b buf) (B.i64c 4096)) (B.i64c (-4096))
          in
          let at off = B.int_to_ptr b (Ptr ty) (B.add b W64 page (B.i64c off)) in
          List.iteri
            (fun k off ->
              let p = at off in
              let k = Int64.mul (Int64.of_int (k + 1)) 0x0101_0101_0101_0101L in
              store b ty (value ty w k) p;
              store b ty (reg b ty (value ty w (Int64.neg k))) p)
            [ 16; 5; -1; -3; -7 ];
          (* constant addresses in [big]: aligned, odd, straddling *)
          List.iter
            (fun a ->
              let p = Cint (W64, a) in
              store b ty (value ty w a) p;
              store b ty (reg b ty (value ty w (Int64.neg a))) p)
            [ 0x10010L; 0x10105L; 0x10FFFL; 0x10FFDL; 0x10FF9L ];
          (* fused: a register base with a register or constant index, a
             constant base with either, and a field offset *)
          let base = B.bitcast b (Ptr ty) buf in
          let gbase = B.bitcast b (Ptr ty) (Global "big") in
          List.iter
            (fun (p, i) ->
              B.store b ty (value ty w 77L) (B.gep_index b p i);
              show b ty (B.load b ty (B.gep_index b p i));
              B.store b ty (reg b ty (value ty w 78L)) (B.gep_index b p i);
              show b ty (B.load b ty (B.gep_index b p i));
              out b (B.load b i64 (B.gep_index b p i)))
            [ (base, reg b i64 (B.i64c 3)); (base, B.i64c 5); (gbase, reg b i64 (B.i64c 3));
              (gbase, B.i64c 5) ]))
    kinds;
  check_case "access fields" (fun b ->
      let s = B.malloc b (Struct "Tri") in
      List.iteri
        (fun f (ty, w) ->
          B.store b ty (value ty w 9L) (B.gep_field b s f);
          show b ty (B.load b ty (B.gep_field b s f));
          B.store b ty (reg b ty (value ty w 10L)) (B.gep_field b s f);
          show b ty (B.load b ty (B.gep_field b s f));
          out b (B.load b i64 s);
          out b (B.load b i64 (B.gep_index b (B.bitcast b (Ptr i64) s) (B.i64c 1))))
        kinds)

(* One run per fault: each must crash alike, after the same output and
   cost. *)
let test_error_arms () =
  let fr b = reg b Float (B.fc 1.5) in
  let i b = reg b i64 (B.i64c 6) in
  let cases =
    List.concat_map
      (fun (op, oname) ->
        List.concat_map
          (fun w ->
            let z = Cint (w, 0L) and x = Cint (w, 9L) in
            [ (oname ^ " by constant zero", fun b -> out b (B.binop b op w (reg b (Int w) x) z));
              (oname ^ " by register zero", fun b -> out b (B.binop b op w (reg b (Int w) x) (reg b (Int w) z)));
              (oname ^ " constant by register zero", fun b -> out b (B.binop b op w x (reg b (Int w) z)));
              (oname ^ " constants by zero", fun b -> out b (B.binop b op w x z));
              (oname ^ " float by constant zero", fun b -> out b (B.binop b op w (fr b) z)) ])
          [ W32; W64 ])
      [ (Sdiv, "sdiv"); (Srem, "srem"); (Udiv, "udiv"); (Urem, "urem") ]
    @ List.concat_map
        (fun (op, oname) ->
          [ (oname ^ " float left", fun b -> out b (B.binop b op W64 (fr b) (i b)));
            (oname ^ " float right", fun b -> out b (B.binop b op W64 (i b) (fr b)));
            (oname ^ " float left, constant right", fun b -> out b (B.binop b op W64 (fr b) (B.i64c 3)));
            (oname ^ " constant left, float right", fun b -> out b (B.binop b op W64 (B.i64c 3) (fr b))) ])
        [ (Add, "add"); (Sub, "sub"); (Shl, "shl"); (Lshr, "lshr"); (Srem, "srem"); (Urem, "urem");
          (And, "and"); (Mul, "mul"); (Xor, "xor") ]
    @ List.concat_map
        (fun c ->
          [ ("icmp float left", fun b -> out b (B.icmp b c W64 (fr b) (B.i64c 3)));
            ("icmp float right", fun b -> out b (B.icmp b c W64 (i b) (fr b)));
            ("cmpbr float left", fun b -> B.if_ b (B.icmp b c W64 (fr b) (i b)) (fun () -> ()));
            ("cmpbr float right", fun b -> B.if_ b (B.icmp b c W64 (i b) (fr b)) (fun () -> ()));
            ("cmpbr constant, float", fun b -> B.if_ b (B.icmp b c W64 (B.i64c 2) (fr b)) (fun () -> ())) ])
        [ Ieq; Islt; Isgt ]
    @ [ ("fcmp int operand", fun b -> out b (B.fcmp b Foeq (fr b) (i b)));
        ("fbinop int operand", fun b -> out_bits b (B.fbinop b Fmul (i b) (B.fc 2.0)));
        ("load from a float", fun b -> out b (B.load b i64 (fr b)));
        ("store to a float", fun b -> B.store b i64 (B.i64c 1) (fr b));
        ("store a float into an int slot",
          fun b -> B.store b i64 (fr b) (B.malloc b i64));
        ("store a float constant into an int slot",
          fun b -> B.store b i32 (B.fc 2.0) (Cint (W64, 0x10010L)));
        ("store a float to a constant int slot",
          fun b -> B.store b i32 (fr b) (Cint (W64, 0x10010L)));
        ("field store of a float into an int slot",
          fun b -> B.store b i64 (fr b) (B.gep_field b (B.malloc b (Struct "Tri")) 3));
        ("indexed store of a float into an int slot",
          fun b -> B.store b i64 (fr b) (B.gep_index b (B.malloc b ~count:(B.i64c 4) i64) (i b)));
        ("float index", fun b -> out b (B.load b i64 (B.gep_index b (B.malloc b i64) (fr b))));
        ("float base", fun b -> out b (B.load b i64 (B.gep_index b (B.bitcast b (Ptr i64) (fr b)) (B.i64c 1))));
        ("float base, register index",
          fun b -> out b (B.load b i64 (B.gep_index b (B.bitcast b (Ptr i64) (fr b)) (i b))));
        ("float field base",
          fun b -> out b (B.load b i32 (B.gep_field b (B.bitcast b (Ptr (Struct "Tri")) (fr b)) 2)));
        ("cast a float", fun b -> out b (B.int_cast b W32 (fr b)));
        ("select on a float", fun b -> out b (B.select b i64 (fr b) (i b) (i b)));
        ("load unmapped", fun b -> out b (B.load b i64 (B.int_to_ptr b (Ptr i64) (B.i64c 0x6000_0000))));
        ("store unmapped", fun b -> B.store b i32 (i b) (B.int_to_ptr b (Ptr i32) (B.i64c 0x6000_0000)));
        ("load unmapped constant", fun b -> out b (B.load b i8 (Cint (W64, 0x6000_0000L))));
        ("store unmapped constant", fun b -> B.store b i16 (i b) (Cint (W64, 8L)));
        ("load straddling into unmapped", fun b -> out b (B.load b i32 (Cint (W64, 0x11FFEL))));
        ("store straddling into unmapped",
          fun b -> B.store b i64 (i b) (B.int_to_ptr b (Ptr i64) (B.i64c 0x11FFC))) ]
  in
  List.iter
    (fun (name, body) ->
      check_case name (fun b ->
          out b (B.i64c 1);
          body b;
          out b (B.i64c 2)))
    cases

(* constant moves: null, an integer, a global's address, a float *)
let test_const_moves () =
  check_case "constant moves" (fun b ->
      out b (B.ptr_to_int b (B.bitcast b (Ptr i64) (B.null i64)));
      out b (B.ptr_to_int b (B.int_to_ptr b (Ptr i8) (B.i64c 16)));
      out b (B.ptr_to_int b (Global "big"));
      out_bits b (B.bitcast b Float (B.fc 2.5));
      out b (B.select b i64 (B.i64c 1) (B.i64c 4) (reg b i64 (B.i64c 5)));
      out_bits b (B.select b Float (reg b i64 (B.i64c 0)) (B.fc 4.5) (B.fc (-0.0))))

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
        Alcotest.test_case "binop arms agree with the spec" `Quick test_binop_arms;
        Alcotest.test_case "compare arms agree with the spec" `Quick test_icmp_arms;
        Alcotest.test_case "float arms agree with the spec" `Quick test_float_arms;
        Alcotest.test_case "cast arms agree with the spec" `Quick test_int_casts;
        Alcotest.test_case "access arms agree with the spec" `Quick test_access_arms;
        Alcotest.test_case "constant moves agree with the spec" `Quick test_const_moves;
        Alcotest.test_case "error paths agree with the spec" `Quick test_error_arms;
      ] );
  ]
