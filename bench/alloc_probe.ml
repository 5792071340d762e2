(* Per-instruction-class allocation probe: tight IR loops of one
   instruction class, run by default (compiled from entry) and as a
   watched baseline, bytes allocated per loop iteration printed for
   each.

   Both columns must read ~0, or the probe fails (it runs under [dune
   runtest]).  Once a function's closures are built (cached on the
   shared lowered program), the compiled loop is allocation-free: hot
   steps bind their operands, operator and width, cold shapes decode
   inline without boxing, block and terminator closures return
   immediate ints, and the frame is an unboxed lframe whose registers
   live in a byte buffer.  The watched column runs {!Vm.run_watched}
   with a frontier that is never reached, so it runs the same compiled
   steps one at a time, the frontier hook before each, and its
   [Wshared] outcome is the member's whole run.  The simulated cost must
   agree across both exactly. *)
open Dpmr_ir
open Types
open Inst
module B = Builder
module Vm = Dpmr_vm.Vm
module Dpmr = Dpmr_core.Dpmr
module Mem = Dpmr_memsim.Mem

let n = 1_000_000

let mk_prog fill =
  let p = Prog.create () in
  Tenv.define_struct p.Prog.tenv "Pair" [ Int W64; Int W64 ];
  let b = B.create p ~name:"main" ~params:[] ~ret:(Int W32) () in
  fill b;
  B.ret b (Some (B.i32c 0));
  p

(* steady-state bytes/iteration of [run]: one warmup run (which also
   compiles, by default — the closures cache on [lowered]), then one
   measured run *)
let steady_state run =
  let r0 = run () in
  assert (r0.Dpmr_vm.Outcome.outcome = Dpmr_vm.Outcome.Normal);
  let a0 = Gc.allocated_bytes () in
  let _ = run () in
  let a1 = Gc.allocated_bytes () in
  ((a1 -. a0) /. float_of_int n, r0.Dpmr_vm.Outcome.cost)

(* a watched baseline whose only frontier row (main's, one limit per
   block) is never reached: every block runs step by step, and the hook
   compares every position and never fires *)
let run_watched lowered p () =
  let limits = Hashtbl.create 1 in
  let main = Hashtbl.find lowered.Dpmr_vm.Lower.funcs "main" in
  Hashtbl.replace limits "main"
    (Array.make (Array.length main.Dpmr_vm.Lower.lblocks) max_int);
  match Dpmr.watched_plain ~lowered p [| limits |] with
  | [| Vm.Wshared r |] -> r
  | _ -> failwith "watched probe: expected the baseline's whole run"

let probe label fill =
  let p = mk_prog fill in
  let lowered = Dpmr_vm.Lower.lower_prog p in
  let run () = Dpmr.run_plain ~lowered p in
  let default, cost = steady_state run in
  let watched, cost' = steady_state (run_watched lowered p) in
  Printf.printf "%-17s default %6.1f   watched %6.1f B/loop-iter  (cost %Ld)\n%!"
    label default watched cost;
  if not (Int64.equal cost cost') then failwith (label ^ ": the watched run's cost differs");
  (* allocation-free modulo per-run VM setup amortized over [n] iters *)
  if default >= 0.5 || watched >= 0.5 then failwith (label ^ ": the loop allocates")

let () =
  probe "alu add" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          ignore (B.binop b Add W64 i (B.i64c 7))));
  probe "icmp" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          ignore (B.icmp b Islt W64 i (B.i64c 5))));
  probe "load+store" (fun b ->
      let buf = B.malloc b ~name:"buf" ~count:(B.i64c 8) (Int W64) in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let v = B.load b (Int W64) buf in
          B.store b (Int W64) (B.binop b Add W64 v i) buf));
  (* global operands are constant addresses: a scalar global, and the
     first slot of a global array through its address cast to a slot
     pointer, each read and written back *)
  probe "global load+store" (fun b ->
      let g = B.global b ~name:"g" (Int W64) (Prog.Gint 0L) in
      let tab = B.global b ~name:"tab" (Arr (Int W64, 8)) Prog.Gzero in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let v = B.load b (Int W64) g in
          B.store b (Int W64) (B.binop b Add W64 v i) g;
          let slot = B.bitcast b (Ptr (Int W64)) tab in
          let w = B.load b (Int W64) slot in
          B.store b (Int W64) (B.binop b Add W64 w (B.i64c 1)) slot));
  probe "gep+mov" (fun b ->
      let buf = B.malloc b ~name:"buf" ~count:(B.i64c 8) (Int W64) in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          ignore (B.gep_index b buf i)));
  probe "fbinop" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let f = B.i_to_f b W64 i in
          ignore (B.fbinop b Fmul f (B.fc 1.5))));
  probe "empty loop" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun _ -> ()));
  (* one row per family of bound steps, and the decoded arm beside it *)
  probe "temporal gate" (fun b ->
      (* Table 2.9's gate: an i32 counter at a constant address, then
         the shifted mask *)
      let c = B.global b ~name:"c" (Int W32) (Prog.Gint 0L) in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun _ ->
          let v = B.srem b W32 (B.add b W32 (B.load b (Int W32) c) (B.i32c 1)) (B.i32c 8) in
          B.store b (Int W32) v c;
          let s = B.binop b Shl W64 (B.i64c 1) (B.int_cast b W64 v) in
          let m = B.binop b Lshr W64 (B.sub b W64 (B.i64c 0) s) (B.i64c 3) in
          ignore (B.binop b Urem W64 m (B.i64c 7))));
  probe "binop shapes" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let a = B.add b W64 (B.i64c 5) i in
          let s = B.sub b W64 (B.sub b W64 a i) (B.i64c 2) in
          let m = B.mul b W64 (B.mul b W64 s i) (B.i64c 3) in
          let t = B.int_cast b W8 m in
          ignore (B.binop b And W8 (B.binop b And W8 t t) (B.i8c 7))));
  probe "binop decoded" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let x = B.binop b Xor W64 (B.binop b Or W64 i (B.i64c 9)) i in
          let d = B.binop b Udiv W64 (B.binop b Ashr W64 x (B.i64c 1)) (B.i64c 3) in
          ignore (B.sdiv b W32 (B.int_cast b W32 d) (B.i32c 5))));
  probe "icmp+cmpbr" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let t = B.int_cast b W8 i in
          ignore (B.icmp b Ieq W64 i (B.i64c 3));
          ignore (B.icmp b Ine W8 t (B.int_cast b W8 (B.i64c 1)));
          ignore (B.icmp b Iult W64 (B.i64c 9) i);
          B.if_ b (B.icmp b Isgt W64 i (B.i64c 5)) (fun () -> ());
          B.if_ b (B.icmp b Ieq W64 i i) (fun () -> ());
          B.if_ b (B.icmp b Ine W64 i (B.i64c 7)) (fun () -> ())));
  probe "fcmp" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let f = B.i_to_f b W64 i in
          ignore (B.fcmp b Foeq f f);
          ignore (B.fcmp b Fogt f (B.fc 2.0))));
  probe "fbinop ops" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let f = B.i_to_f b W64 i in
          let g = B.fsub b (B.fadd b f f) f in
          ignore (B.fdiv b (B.fdiv b g (B.fc 3.0)) g)));
  probe "casts" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let s = B.int_cast b ~signed:true W64 (B.int_cast b W8 i) in
          ignore (B.f_to_i b W32 (B.i_to_f b W64 s))));
  probe "access widths" (fun b ->
      let w8 = B.malloc b ~count:(B.i64c 8) (Int W8) in
      let w32 = B.malloc b ~count:(B.i64c 8) (Int W32) in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          B.store b (Int W8) (B.add b W8 (B.load b (Int W8) w8) (B.i8c 1)) w8;
          B.store b (Int W32) (B.add b W32 (B.load b (Int W32) w32) (B.i32c 1)) w32;
          B.store b (Int W64) (B.i64c 4) (B.bitcast b (Ptr (Int W64)) w32);
          let j = B.binop b And W64 (B.int_cast b W64 (B.load b (Int W8) w8)) (B.i64c 7) in
          ignore (B.load b (Int W32) (B.gep_index b w32 j));
          ignore i));
  probe "const moves" (fun b ->
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun _ ->
          ignore (B.bitcast b (Ptr (Int W64)) (B.null (Int W64)));
          ignore (B.int_to_ptr b (Ptr (Int W8)) (B.i64c 16))));
  (* fused accesses whose base or index is a constant *)
  probe "global tab[3]" (fun b ->
      let tab = B.global b ~name:"tab" (Arr (Int W64, 8)) Prog.Gzero in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let v = B.load b (Int W64) (B.gep_index b tab (B.i64c 3)) in
          B.store b (Int W64) (B.add b W64 v i) (B.gep_index b tab (B.i64c 3))));
  probe "global tab[i]" (fun b ->
      let tab = B.global b ~name:"tab" (Arr (Int W64, 8)) Prog.Gzero in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let j = B.binop b And W64 i (B.i64c 7) in
          let v = B.load b (Int W64) (B.gep_index b tab j) in
          B.store b (Int W64) (B.add b W64 v i) (B.gep_index b tab j)));
  probe "heap buf[3]" (fun b ->
      let buf = B.malloc b ~count:(B.i64c 8) (Int W64) in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun i ->
          let v = B.load b (Int W64) (B.gep_index b buf (B.i64c 3)) in
          B.store b (Int W64) (B.add b W64 v i) (B.gep_index b buf (B.i64c 3))));
  probe "const fld store" (fun b ->
      let s = B.malloc b (Struct "Pair") in
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun _ ->
          B.store b (Int W64) (B.i64c 5) (B.gep_field b s 1)))

(* Fresh-page probe: mapping a garbage-filled page allocates the page
   and nothing per garbage word. *)
let () =
  let pages = 1024 in
  let fresh = Mem.create () in
  (* size the page table first, so only the pages count *)
  Mem.map_range fresh (Int64.add Mem.heap_base (Int64.of_int ((2 * pages - 1) * Mem.page_size))) 1
    Mem.Fill_garbage;
  let a0 = Gc.allocated_bytes () in
  Mem.map_range fresh Mem.heap_base (pages * Mem.page_size) Mem.Fill_garbage;
  let a1 = Gc.allocated_bytes () in
  let per_page = (a1 -. a0) /. float_of_int pages in
  let bound = 4608 in
  Printf.printf "fresh garbage page %8.1f KB  (page %d KB, bound %.1f KB)\n%!" (per_page /. 1024.)
    (Mem.page_size / 1024) (float_of_int bound /. 1024.);
  if per_page > float_of_int bound then failwith "fresh garbage page: allocates per word"

(* Copy-on-write fork probe: thawing a fork from a frozen image and
   dirtying [k] pages must allocate O(k) page copies (plus a page-table
   copy), never O(heap) — the property snapshot/fork campaign execution
   depends on to make per-site forks cheaper than warmup replay. *)
let () =
  let pages = 4096 and dirty = 8 in
  let base = Mem.heap_base in
  let page i = Int64.add base (Int64.of_int (i * Mem.page_size)) in
  let m = Mem.create () in
  Mem.map_range m base (pages * Mem.page_size) Mem.Fill_zero;
  (* touch every page so the frozen image really materializes [pages] *)
  for i = 0 to pages - 1 do
    Mem.write_u8 m (page i) 1
  done;
  let frozen = Mem.freeze m in
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let fork = Mem.thaw frozen in
  for i = 0 to dirty - 1 do
    Mem.write_u8 fork (page (i * (pages / dirty))) 2
  done;
  let a1 = Gc.allocated_bytes () in
  let bytes = a1 -. a0 in
  let heap_bytes = pages * Mem.page_size in
  (* generous bound: 8x the dirtied payload plus 16 B/page of table copy
     — still 32x below the O(heap) a deep copy would cost *)
  let bound = (dirty * Mem.page_size * 8) + (pages * 16) in
  Printf.printf "cow fork+%d dirty     %8.1f KB  (heap %d KB, bound %d KB)\n%!" dirty
    (bytes /. 1024.) (heap_bytes / 1024) (bound / 1024);
  assert (bytes < float_of_int bound)
