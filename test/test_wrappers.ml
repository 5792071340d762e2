(* External function wrapper tests (§2.8, §3.1.5): each wrapper preserves
   behaviour through the transformation, maintains replica state, and its
   load checks fire on planted divergence. *)

open Dpmr_ir
open Types
open Inst
module B = Builder
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome

let str8 = Ptr (arr i8 0)

let fresh () =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  p

let run_both ?(modes = [ Config.Sds; Config.Mds ]) build =
  let p = build () in
  Verifier.check_prog p;
  let golden = Dpmr.run_plain p in
  Alcotest.(check bool) "golden normal" true (golden.Outcome.outcome = Outcome.Normal);
  List.iter
    (fun mode ->
      let cfg = { Config.default with Config.mode } in
      let r = Dpmr.run_dpmr cfg p in
      Alcotest.(check string)
        (Config.mode_name mode ^ " output")
        golden.Outcome.output r.Outcome.output;
      Alcotest.(check bool)
        (Config.mode_name mode ^ " normal")
        true
        (r.Outcome.outcome = Outcome.Normal))
    modes;
  golden

let word b name s =
  B.bitcast b str8 (B.global b ~name (arr i8 (String.length s + 1)) (Prog.Gstring s))

(* --- behaviour preservation per wrapper --- *)

let test_strcpy_strlen () =
  ignore
    (run_both (fun () ->
         let p = fresh () in
         let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
         let src = word b "w" "wrapped" in
         let buf = B.bitcast b str8 (B.malloc b ~count:(B.i64c 32) i8) in
         let rv = B.call1 b (Direct "strcpy") [ buf; src ] in
         B.call0 b (Direct "print_str") [ rv ];
         B.call0 b (Direct "print_int") [ B.call1 b (Direct "strlen") [ rv ] ];
         B.ret b (Some (B.i32c 0));
         p))

let test_strcmp_orderings () =
  ignore
    (run_both (fun () ->
         let p = fresh () in
         let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
         let a = word b "a" "apple" and bb = word b "b" "berry" in
         let lt = B.call1 b (Direct "strcmp") [ a; bb ] in
         let gt = B.call1 b (Direct "strcmp") [ bb; a ] in
         let eq = B.call1 b (Direct "strcmp") [ a; a ] in
         List.iter
           (fun v ->
             let sign =
               B.select b i32
                 (B.icmp b Islt W32 v (B.i32c 0))
                 (B.i32c (-1))
                 (B.select b i32 (B.icmp b Isgt W32 v (B.i32c 0)) (B.i32c 1) (B.i32c 0))
             in
             B.call0 b (Direct "print_int") [ B.int_cast b W64 sign ])
           [ lt; gt; eq ];
         B.ret b (Some (B.i32c 0));
         p))

let test_memcpy_memset_memmove () =
  ignore
    (run_both (fun () ->
         let p = fresh () in
         let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
         let a = B.malloc b ~count:(B.i64c 8) i64 in
         B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 8) (fun i ->
             B.store b i64 (B.mul b W64 i (B.i64c 5)) (B.gep_index b a i));
         let c = B.malloc b ~count:(B.i64c 8) i64 in
         ignore
           (B.call b (Direct "memcpy")
              [ B.bitcast b str8 c; B.bitcast b str8 a; B.i64c 64 ]);
         (* overlapping memmove: shift left by one element *)
         ignore
           (B.call b (Direct "memmove")
              [
                B.bitcast b str8 c;
                B.bitcast b str8 (B.gep_index b c (B.i64c 1));
                B.i64c 56;
              ]);
         ignore
           (B.call b (Direct "memset")
              [ B.bitcast b str8 (B.gep_index b c (B.i64c 7)); B.i32c 0; B.i64c 8 ]);
         B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 8) (fun i ->
             B.call0 b (Direct "print_int") [ B.load b i64 (B.gep_index b c i) ];
             B.call0 b (Direct "putchar") [ B.i32c 32 ]);
         B.ret b (Some (B.i32c 0));
         p))

let test_calloc_zeroed () =
  ignore
    (run_both (fun () ->
         let p = fresh () in
         let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
         let c = B.call1 b (Direct "calloc") [ B.i64c 16; B.i64c 8 ] in
         let c64 = B.bitcast b (Ptr i64) c in
         let acc = B.local b i64 (B.i64c 0) in
         B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 16) (fun i ->
             let v = B.load b i64 (B.gep_index b c64 i) in
             B.set b i64 acc (B.add b W64 (B.get b i64 acc) v));
         B.call0 b (Direct "print_int") [ B.get b i64 acc ];
         B.ret b (Some (B.i32c 0));
         p))

let test_realloc_preserves_prefix () =
  let golden =
    run_both (fun () ->
        let p = fresh () in
        let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
        let a = B.call1 b (Direct "calloc") [ B.i64c 4; B.i64c 8 ] in
        let a64 = B.bitcast b (Ptr i64) a in
        B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 4) (fun i ->
            B.store b i64 (B.add b W64 i (B.i64c 100)) (B.gep_index b a64 i));
        let a2 = B.call1 b (Direct "realloc") [ a; B.i64c 128 ] in
        let a2_64 = B.bitcast b (Ptr i64) a2 in
        B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 4) (fun i ->
            B.call0 b (Direct "print_int") [ B.load b i64 (B.gep_index b a2_64 i) ];
            B.call0 b (Direct "putchar") [ B.i32c 32 ]);
        B.ret b (Some (B.i32c 0));
        p)
  in
  Alcotest.(check string) "prefix preserved" "100 101 102 103 " golden.Outcome.output

let test_printf_conversions () =
  let golden =
    run_both (fun () ->
        let p = fresh () in
        let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
        let fmt = word b "fmt" "i=%d f=%g c=%c s=%s pct=%%\n" in
        let s = word b "s" "str" in
        ignore
          (B.call b (Direct "printf")
             [ fmt; B.i64c (-7); B.fc 2.5; B.i32c 88; s ]);
        B.ret b (Some (B.i32c 0));
        p)
  in
  Alcotest.(check string) "printf output" "i=-7 f=2.5 c=X s=str pct=%\n"
    golden.Outcome.output

(* --- wrapper-side detection: corrupt a replica before running --- *)

let corrupting_run ~mode ~global_to_corrupt build =
  let p = build () in
  let cfg = { Config.default with Config.mode } in
  let tp = Dpmr.transform cfg p in
  let vm = Dpmr.vm_dpmr ~mode tp in
  let addr = Dpmr_vm.Vm.global_address vm (global_to_corrupt ^ ".rep") in
  Dpmr_memsim.Mem.write_u8 vm.Dpmr_vm.Vm.mem addr (Char.code '!');
  Dpmr_vm.Vm.run vm

let simple_consumer callee () =
  let p = fresh () in
  let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
  let s = word b "g" "payload" in
  (match callee with
  | "print_str" -> B.call0 b (Direct "print_str") [ s ]
  | "strlen" -> B.call0 b (Direct "print_int") [ B.call1 b (Direct "strlen") [ s ] ]
  | "strcmp" ->
      B.call0 b (Direct "print_int")
        [ B.int_cast b W64 (B.call1 b (Direct "strcmp") [ s; s ]) ]
  | _ -> assert false);
  B.ret b (Some (B.i32c 0));
  p

let test_wrapper_checks_fire () =
  List.iter
    (fun callee ->
      List.iter
        (fun mode ->
          let r =
            corrupting_run ~mode ~global_to_corrupt:"g" (simple_consumer callee)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s detects" callee (Config.mode_name mode))
            true (Outcome.is_dpmr_detect r))
        [ Config.Sds; Config.Mds ])
    [ "print_str"; "strlen"; "strcmp" ]

let test_strcmp_checks_only_read_prefix () =
  (* strings differing at byte 0: the wrapper must compare only the read
     prefix, so corrupting the replica *past* the difference is invisible *)
  let p = fresh () in
  let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
  let a = word b "ga" "xbcdef" and bb = word b "gb" "ybcdef" in
  B.call0 b (Direct "print_int")
    [ B.int_cast b W64 (B.call1 b (Direct "strcmp") [ a; bb ]) ];
  B.ret b (Some (B.i32c 0));
  let cfg = Config.default in
  let tp = Dpmr.transform cfg p in
  let vm = Dpmr.vm_dpmr ~mode:Config.Sds tp in
  (* corrupt byte 3 of ga's replica: strcmp reads only byte 0 of each *)
  let addr = Dpmr_vm.Vm.global_address vm "ga.rep" in
  Dpmr_memsim.Mem.write_u8 vm.Dpmr_vm.Vm.mem (Int64.add addr 3L) (Char.code '!');
  let r = Dpmr_vm.Vm.run vm in
  Alcotest.(check bool) "no detection past read prefix" true
    (r.Outcome.outcome = Outcome.Normal)

let test_qsort_sorts_replica_consistently () =
  (* after a transformed qsort, loads of the sorted array must still pass
     their checks (the wrapper permuted app, replica and shadow alike) *)
  ignore
    (run_both (fun () -> Dpmr_testprogs.Progs.qsort_prog ()))

let suites =
  [
    ( "wrappers",
      [
        Alcotest.test_case "strcpy + strlen" `Quick test_strcpy_strlen;
        Alcotest.test_case "strcmp orderings" `Quick test_strcmp_orderings;
        Alcotest.test_case "memcpy/memmove/memset" `Quick test_memcpy_memset_memmove;
        Alcotest.test_case "calloc zeroes" `Quick test_calloc_zeroed;
        Alcotest.test_case "realloc preserves prefix" `Quick test_realloc_preserves_prefix;
        Alcotest.test_case "printf conversions" `Quick test_printf_conversions;
        Alcotest.test_case "wrapper checks fire on divergence" `Quick
          test_wrapper_checks_fire;
        Alcotest.test_case "strcmp checks only read prefix" `Quick
          test_strcmp_checks_only_read_prefix;
        Alcotest.test_case "qsort keeps copies consistent" `Quick
          test_qsort_sorts_replica_consistently;
      ] );
  ]
