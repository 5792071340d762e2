(* Per-instruction-class allocation probe: tight IR loops of one
   instruction class, run by default (compiled from entry) and as a
   watched baseline, bytes allocated per loop iteration printed for
   each.

   Both columns are asserted ~0.  Once a function's closures are built
   (cached on the shared lowered program), the compiled loop is
   allocation-free: operand shapes are pre-bound, block and terminator
   closures return immediate ints, and the frame is an unboxed lframe
   whose registers live in a byte buffer.  The watched column runs
   {!Vm.run_watched} with a frontier that is never reached, so it runs
   the same compiled steps one at a time, the frontier hook before each,
   and its [Wshared] outcome is the member's whole run.  The simulated
   cost must agree across both exactly. *)
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
  assert (Int64.equal cost cost');
  (* allocation-free modulo per-run VM setup amortized over [n] iters *)
  assert (default < 0.5);
  assert (watched < 0.5)

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
     pointer, each read and written back (a [gep_index] into the array
     would fuse with its access, and a fused indexed access whose base
     or index is not a register takes the compiled tier's generic
     fallback, which allocates) *)
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
      B.for_ b ~from:(B.i64c 0) ~below:(B.i64c n) (fun _ -> ()))

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
