(* End-to-end tests of the DPMR transformation: semantic preservation
   under error-free execution, detection of injected memory errors, and
   the SDS/MDS structural properties of Chapters 2 and 4. *)

open Dpmr_ir
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome

let sds = { Config.default with Config.mode = Config.Sds }
let mds = { Config.default with Config.mode = Config.Mds }

let run_plain ?args p = Dpmr.run_plain ?args p

let run_dpmr ?args cfg p =
  let tp = Dpmr.transform cfg p in
  Verifier.check_prog tp;
  Dpmr.run_dpmr ?args cfg p |> fun r -> r

(* --- semantic preservation: transformed programs produce identical
   output and exit normally on every test program, in both designs --- *)

let preservation_cases =
  [
    ("linked list", fun () -> Dpmr_testprogs.Progs.linked_list ());
    ("globals with pointers", Dpmr_testprogs.Progs.global_pointers);
    ("strings + printf", Dpmr_testprogs.Progs.strings);
    ("qsort", Dpmr_testprogs.Progs.qsort_prog);
    ("boxed pointers across calls", Dpmr_testprogs.Progs.boxed);
    ("function pointer table", Dpmr_testprogs.Progs.fun_table);
  ]

let check_preserved cfg name mk () =
  let p = mk () in
  let golden = run_plain p in
  Alcotest.(check bool)
    (name ^ ": golden normal")
    true
    (golden.Outcome.outcome = Outcome.Normal);
  let r = run_dpmr cfg p in
  Alcotest.(check string) (name ^ ": output preserved") golden.Outcome.output
    r.Outcome.output;
  Alcotest.(check bool) (name ^ ": normal exit") true (r.Outcome.outcome = Outcome.Normal)

let test_argv_preserved cfg () =
  let p = Dpmr_testprogs.Progs.argv_prog () in
  let golden = run_plain ~args:[ "prog"; "21" ] p in
  let r = run_dpmr ~args:[ "prog"; "21" ] cfg p in
  Alcotest.(check string) "output" "42" golden.Outcome.output;
  Alcotest.(check string) "output preserved" golden.Outcome.output r.Outcome.output

(* --- detection --- *)

let test_overflow_detected cfg () =
  (* without DPMR: silent corruption, wrong-but-quiet or normal output *)
  let p = Dpmr_testprogs.Progs.overflow ~limit:16 () in
  let r = run_dpmr cfg p in
  Alcotest.(check bool)
    ("overflow detected: got " ^ Outcome.to_string r.Outcome.outcome)
    true
    (Outcome.is_dpmr_detect r)

let test_clean_overflow_prog_ok cfg () =
  (* same program without the overflow: runs clean under DPMR *)
  let p = Dpmr_testprogs.Progs.overflow ~limit:8 () in
  let golden = run_plain p in
  let r = run_dpmr cfg p in
  Alcotest.(check string) "output" golden.Outcome.output r.Outcome.output;
  Alcotest.(check bool) "normal" true (r.Outcome.outcome = Outcome.Normal)

let test_read_after_free_zbf () =
  (* zero-before-free makes the stale read differ between app and replica *)
  let cfg = { sds with Config.diversity = Config.Zero_before_free } in
  let r = run_dpmr cfg (Dpmr_testprogs.Progs.read_after_free ()) in
  Alcotest.(check bool)
    ("detected: got " ^ Outcome.to_string r.Outcome.outcome)
    true (Outcome.is_dpmr_detect r)

let test_read_after_free_no_diversity () =
  (* without diversity both copies read the same stale value: the (benign
     here) error goes undetected — the §2.5.2 "same correct value" case *)
  let r = run_dpmr sds (Dpmr_testprogs.Progs.read_after_free ()) in
  Alcotest.(check bool) "undetected" true (r.Outcome.outcome = Outcome.Normal);
  Alcotest.(check string) "stale value read" "77" r.Outcome.output

let test_int_to_ptr_rejected () =
  List.iter
    (fun cfg ->
      Alcotest.(check bool)
        ("rejected under " ^ Config.mode_name cfg.Config.mode)
        true
        (try
           ignore (Dpmr.transform cfg (Dpmr_testprogs.Progs.int_to_ptr_prog ()));
           false
         with Dpmr.Unsupported _ -> true))
    [ sds; mds ]

(* --- stack memory: replication covers allocas too (§1.3's "all
   segments"), and the Pad_alloca production extension (§2.6) --- *)

let stack_overflow_prog ~limit () =
  let open Dpmr_ir.Types in
  let p = Dpmr_testprogs.Progs.fresh () in
  let b = Builder.create p ~name:"main" ~params:[] ~ret:i32 () in
  let x = Builder.alloca b ~name:"x" ~count:(Builder.i64c 8) i32 in
  Builder.for_ b ~from:(Builder.i64c 0) ~below:(Builder.i64c limit) (fun i ->
      Builder.store b i32 (Builder.int_cast b W32 i) (Builder.gep_index b x i));
  let v = Builder.load b i32 (Builder.gep_index b x (Builder.i64c 0)) in
  Builder.call0 b (Inst.Direct "print_int") [ Builder.int_cast b W64 v ];
  Builder.ret b (Some (Builder.i32c 0));
  p

let test_stack_overflow_detected () =
  List.iter
    (fun cfg ->
      let r = run_dpmr cfg (stack_overflow_prog ~limit:24 ()) in
      Alcotest.(check bool)
        (Config.name cfg ^ " stack overflow caught: "
        ^ Outcome.to_string r.Outcome.outcome)
        true
        (Outcome.is_dpmr_detect r))
    [ sds; mds ]

let test_pad_alloca_preserves_and_displaces () =
  (* error-free program unchanged under the stack-padding extension *)
  let clean = stack_overflow_prog ~limit:8 () in
  let golden = run_plain clean in
  let cfg = { sds with Config.diversity = Config.Pad_alloca 64 } in
  let r = run_dpmr cfg clean in
  Alcotest.(check string) "output preserved" golden.Outcome.output r.Outcome.output;
  (* and the faulty program is still covered *)
  let r = run_dpmr cfg (stack_overflow_prog ~limit:24 ()) in
  Alcotest.(check bool) "still covered" true
    (Outcome.is_dpmr_detect r || Outcome.is_crash r)

(* --- structural properties --- *)

let count_insts pred p =
  let n = ref 0 in
  Prog.iter_funcs p (fun f -> Func.iter_insts f (fun _ i -> if pred i then incr n));
  !n

let is_malloc = function Inst.Malloc _ -> true | _ -> false
let is_load = function Inst.Load _ -> true | _ -> false
let is_store = function Inst.Store _ -> true | _ -> false

let test_sds_triples_allocations () =
  let p = Dpmr_testprogs.Progs.linked_list () in
  let tp = Dpmr.transform sds p in
  (* every LL malloc becomes app + replica + shadow *)
  let orig = count_insts is_malloc p in
  let trans = count_insts is_malloc tp in
  Alcotest.(check int) "3x mallocs" (3 * orig) trans

let test_mds_doubles_allocations () =
  let p = Dpmr_testprogs.Progs.linked_list () in
  let tp = Dpmr.transform mds p in
  let orig = count_insts is_malloc p in
  Alcotest.(check int) "2x mallocs" (2 * orig) (count_insts is_malloc tp)

let test_mds_fewer_stores_than_sds () =
  let p = Dpmr_testprogs.Progs.linked_list () in
  let s = count_insts is_store (Dpmr.transform sds p) in
  let m = count_insts is_store (Dpmr.transform mds p) in
  Alcotest.(check bool) "MDS emits fewer stores" true (m < s)

let test_static_policy_reduces_loads () =
  let p = Dpmr_testprogs.Progs.linked_list () in
  let all = count_insts is_load (Dpmr.transform sds p) in
  let ten =
    count_insts is_load
      (Dpmr.transform { sds with Config.policy = Config.Static 0.10 } p)
  in
  Alcotest.(check bool) "static 10% emits fewer replica loads" true (ten < all)

let test_temporal_policy_runs () =
  let cfg = { sds with Config.policy = Config.Temporal Config.temporal_mask_1_2 } in
  let p = Dpmr_testprogs.Progs.linked_list () in
  let golden = run_plain p in
  let r = run_dpmr cfg p in
  Alcotest.(check string) "output preserved" golden.Outcome.output r.Outcome.output

let test_temporal_catches_overflow () =
  let cfg = { sds with Config.policy = Config.Temporal Config.temporal_mask_7_8 } in
  let r = run_dpmr cfg (Dpmr_testprogs.Progs.overflow ~limit:16 ()) in
  Alcotest.(check bool) "detected under temporal 7/8" true (Outcome.is_dpmr_detect r)

(* --- diversity transformations run clean on error-free programs --- *)

let test_diversity_preservation () =
  let p = Dpmr_testprogs.Progs.linked_list () in
  let golden = run_plain p in
  List.iter
    (fun (mode, d) ->
      let cfg = { Config.default with Config.mode; diversity = d } in
      let r = run_dpmr cfg p in
      Alcotest.(check string)
        (Config.name cfg ^ " output")
        golden.Outcome.output r.Outcome.output;
      Alcotest.(check bool)
        (Config.name cfg ^ " normal")
        true
        (r.Outcome.outcome = Outcome.Normal))
    [
      (Config.Sds, Config.Pad_malloc 8);
      (Config.Sds, Config.Pad_malloc 1024);
      (Config.Sds, Config.Zero_before_free);
      (Config.Sds, Config.Rearrange_heap);
      (Config.Mds, Config.Pad_malloc 32);
      (Config.Mds, Config.Zero_before_free);
      (Config.Mds, Config.Rearrange_heap);
      (Config.Sds, Config.Layout_perm);
      (Config.Sds, Config.Pad_jitter);
      (Config.Mds, Config.Layout_perm);
      (Config.Mds, Config.Pad_jitter);
    ]

(* --- overhead sanity: instrumentation costs more, MDS <= SDS on the
   pointer-heavy linked list --- *)

let test_overhead_ordering () =
  let p = Dpmr_testprogs.Progs.linked_list ~n:50 () in
  let golden = (run_plain p).Outcome.cost in
  let s = (run_dpmr sds p).Outcome.cost in
  let m = (run_dpmr mds p).Outcome.cost in
  Alcotest.(check bool) "SDS > golden" true (Int64.compare s golden > 0);
  Alcotest.(check bool) "MDS > golden" true (Int64.compare m golden > 0);
  Alcotest.(check bool) "MDS <= SDS on pointer-heavy code" true (Int64.compare m s <= 0)

(* --- memory overhead: MDS 2x, SDS in [2x, 4x] (§4.1) --- *)

let test_memory_overhead_band () =
  let p = Dpmr_testprogs.Progs.linked_list ~n:100 () in
  let golden = (run_plain p).Outcome.peak_heap_bytes in
  let s = (run_dpmr sds p).Outcome.peak_heap_bytes in
  let m = (run_dpmr mds p).Outcome.peak_heap_bytes in
  let fs = float_of_int s /. float_of_int golden in
  let fm = float_of_int m /. float_of_int golden in
  Alcotest.(check bool) (Printf.sprintf "MDS ~2x (%.2f)" fm) true (fm >= 1.9 && fm <= 2.4)
  ;
  Alcotest.(check bool) (Printf.sprintf "SDS in [2x,4.2x] (%.2f)" fs) true
    (fs >= 2.0 && fs <= 4.2);
  Alcotest.(check bool) "SDS >= MDS" true (s >= m)

let preservation_tests cfg tag =
  List.map
    (fun (name, mk) ->
      Alcotest.test_case (tag ^ ": " ^ name) `Quick (check_preserved cfg name mk))
    preservation_cases

let suites =
  [
    ( "transform.preservation",
      preservation_tests sds "sds"
      @ preservation_tests mds "mds"
      @ [
          Alcotest.test_case "sds: argv" `Quick (test_argv_preserved sds);
          Alcotest.test_case "mds: argv" `Quick (test_argv_preserved mds);
          Alcotest.test_case "diversity transforms preserve semantics" `Quick
            test_diversity_preservation;
          Alcotest.test_case "temporal policy preserves semantics" `Quick
            test_temporal_policy_runs;
        ] );
    ( "transform.detection",
      [
        Alcotest.test_case "sds: overflow detected" `Quick (test_overflow_detected sds);
        Alcotest.test_case "mds: overflow detected" `Quick (test_overflow_detected mds);
        Alcotest.test_case "sds: clean variant runs" `Quick (test_clean_overflow_prog_ok sds);
        Alcotest.test_case "mds: clean variant runs" `Quick (test_clean_overflow_prog_ok mds);
        Alcotest.test_case "read-after-free + zero-before-free" `Quick
          test_read_after_free_zbf;
        Alcotest.test_case "read-after-free w/o diversity undetected" `Quick
          test_read_after_free_no_diversity;
        Alcotest.test_case "temporal 7/8 catches overflow" `Quick
          test_temporal_catches_overflow;
        Alcotest.test_case "int-to-ptr rejected" `Quick test_int_to_ptr_rejected;
      ] );
    ( "transform.stack",
      [
        Alcotest.test_case "stack overflow detected" `Quick test_stack_overflow_detected;
        Alcotest.test_case "pad-alloca extension" `Quick
          test_pad_alloca_preserves_and_displaces;
      ] );
    ( "transform.structure",
      [
        Alcotest.test_case "SDS triples allocations" `Quick test_sds_triples_allocations;
        Alcotest.test_case "MDS doubles allocations" `Quick test_mds_doubles_allocations;
        Alcotest.test_case "MDS stores < SDS stores" `Quick test_mds_fewer_stores_than_sds;
        Alcotest.test_case "static policy drops checks" `Quick test_static_policy_reduces_loads;
        Alcotest.test_case "overhead ordering" `Quick test_overhead_ordering;
        Alcotest.test_case "memory overhead band" `Quick test_memory_overhead_band;
      ] );
  ]
