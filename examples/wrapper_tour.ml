(* External code support tour (§2.8, §3.1.5).

     dune exec examples/wrapper_tour.exe

   A program that leans on external functions — strcpy, strcmp, strlen,
   memcpy, qsort, printf — run plain, under SDS and under MDS.  The
   transformed builds route every call through the corresponding external
   function wrapper, which performs the replica stores and load checks the
   external function itself cannot.  The second half plants a corruption
   in replica memory and shows a *wrapper* check (not a load check in
   transformed code) catching it via strcpy's source comparison. *)

open Dpmr_ir
open Types
open Inst
module B = Builder
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome

let build () =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
  let str8 = Ptr (arr i8 0) in
  (* strings *)
  let hello = B.bitcast b str8 (B.global b ~name:"hello" (arr i8 8) (Prog.Gstring "replica")) in
  let buf = B.bitcast b str8 (B.malloc b ~count:(B.i64c 32) i8) in
  ignore (B.call b (Direct "strcpy") [ buf; hello ]);
  let len = B.call1 b (Direct "strlen") [ buf ] in
  let cmp = B.call1 b (Direct "strcmp") [ buf; hello ] in
  (* memcpy a chunk of ints *)
  let src = B.malloc b ~count:(B.i64c 4) i64 in
  B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 4) (fun i ->
      B.store b i64 (B.mul b W64 i (B.i64c 3)) (B.gep_index b src i));
  let dst = B.malloc b ~count:(B.i64c 4) i64 in
  ignore
    (B.call b (Direct "memcpy")
       [ B.bitcast b str8 dst; B.bitcast b str8 src; B.i64c 32 ]);
  (* qsort the copy, descending *)
  let bq =
    B.create p ~name:"desc" ~params:[ ("a", str8); ("b", str8) ] ~ret:i32 ()
  in
  let va = B.load bq i64 (B.bitcast bq (Ptr i64) (B.param bq 0)) in
  let vb = B.load bq i64 (B.bitcast bq (Ptr i64) (B.param bq 1)) in
  let lt = B.icmp bq Islt W64 va vb in
  let gt = B.icmp bq Isgt W64 va vb in
  B.ret bq (Some (B.int_cast bq W32 (B.sub bq W8 lt gt)));
  B.call0 b (Direct "qsort") [ B.bitcast b str8 dst; B.i64c 4; B.i64c 8; Fun_addr "desc" ];
  (* printf everything *)
  let fmt =
    B.bitcast b str8
      (B.global b ~name:"fmt" (arr i8 32) (Prog.Gstring "%s len=%d cmp=%d top=%d\n"))
  in
  let top = B.load b i64 (B.gep_index b dst (B.i64c 0)) in
  ignore
    (B.call b (Direct "printf") [ fmt; buf; len; B.int_cast b W64 cmp; top ]);
  B.ret b (Some (B.i32c 0));
  p

let show tag (r : Outcome.run) =
  Printf.printf "%-8s %-12s %s" tag (Outcome.to_string r.Outcome.outcome) r.Outcome.output;
  if r.Outcome.output = "" then print_newline ()

let () =
  let p = build () in
  show "plain" (Dpmr.run_plain p);
  show "sds" (Dpmr.run_dpmr { Config.default with Config.mode = Config.Sds } p);
  show "mds" (Dpmr.run_dpmr { Config.default with Config.mode = Config.Mds } p);
  print_endline "\n— wrapper-side detection —";
  (* Plant a divergence: a buggy store that hits application memory but is
     modelled as missing its replica update (we simulate external-code
     corruption by poking simulated memory between setup and strcpy). *)
  let cfg = { Config.default with Config.mode = Config.Sds } in
  let tp = Dpmr.transform cfg p in
  let vm = Dpmr.vm_dpmr ~mode:Config.Sds tp in
  (* corrupt one byte of the replica of the "hello" global before main *)
  let addr = Dpmr_vm.Vm.global_address vm "hello.rep" in
  Dpmr_memsim.Mem.write_u8 vm.Dpmr_vm.Vm.mem addr (Char.code 'X');
  let r = Dpmr_vm.Vm.run vm in
  Printf.printf "after corrupting hello.rep : %s\n" (Outcome.to_string r.Outcome.outcome);
  print_endline "strcpy_efw's source comparison (Figure 2.11) caught the divergence."
