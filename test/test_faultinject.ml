(* Fault-injection framework tests (§3.4–§3.6): site enumeration,
   injection semantics, run classification, metrics arithmetic. *)

open Dpmr_ir
module Config = Dpmr_core.Config
module Inject = Dpmr_fi.Inject
module Experiment = Dpmr_fi.Experiment
module Metrics = Dpmr_fi.Metrics
module Outcome = Dpmr_vm.Outcome
module Progs = Dpmr_testprogs.Progs

let mk_exp prog = Experiment.make (Experiment.workload "t" prog)

(* ---- site enumeration ---- *)

let test_sites_resize_skips_singletons () =
  (* linked-list program: node mallocs have count 1, so no resize sites *)
  let p = Progs.linked_list () in
  Alcotest.(check int) "no array sites" 0
    (List.length (Inject.sites (Inject.Heap_array_resize 50) p));
  Alcotest.(check bool) "but immediate-free sites exist" true
    (List.length (Inject.sites Inject.Immediate_free p) > 0)

let test_sites_counts () =
  let p = Progs.overflow ~limit:8 () in
  Alcotest.(check int) "2 array mallocs" 2
    (List.length (Inject.sites (Inject.Heap_array_resize 50) p));
  Alcotest.(check int) "2 free sites" 2 (List.length (Inject.sites Inject.Immediate_free p));
  Alcotest.(check int) "off-by-one shares resize sites" 2
    (List.length (Inject.sites Inject.Off_by_one p));
  Alcotest.(check bool) "wild-store sites exist" true
    (List.length (Inject.sites (Inject.Wild_store 4096) p) > 0)

let test_injection_does_not_mutate_original () =
  let p = Progs.overflow ~limit:8 () in
  let before = Text.emit p in
  let site = List.hd (Inject.sites Inject.Immediate_free p) in
  let _injected = Inject.apply p Inject.Immediate_free site in
  Alcotest.(check string) "original untouched" before (Text.emit p)

let test_injected_program_verifies () =
  let p = Progs.overflow ~limit:8 () in
  List.iter
    (fun kind ->
      List.iter
        (fun site -> Verifier.check_prog (Inject.apply p kind site))
        (Inject.sites kind p))
    [ Inject.Heap_array_resize 50; Inject.Immediate_free; Inject.Off_by_one;
      Inject.Wild_store 4096 ]

(* ---- classification ---- *)

let test_sf_marks_execution () =
  let e = mk_exp (fun () -> Progs.overflow ~limit:8 ()) in
  let site = List.hd (Experiment.sites e (Inject.Heap_array_resize 50)) in
  let c = Experiment.run_variant e (Experiment.Fi_stdapp (Inject.Heap_array_resize 50, site)) in
  Alcotest.(check bool) "sf" true c.Experiment.sf

let test_unexecuted_site_not_sf () =
  (* a malloc behind an always-false branch never executes its injection *)
  let build () =
    let p = Progs.fresh () in
    let b = Builder.create p ~name:"main" ~params:[] ~ret:Types.i32 () in
    Builder.if_ b (Builder.i8c 0) (fun () ->
        let x = Builder.malloc b ~count:(Builder.i64c 4) Types.i64 in
        Builder.free b x);
    Builder.call0 b (Inst.Direct "print_int") [ Builder.i64c 1 ];
    Builder.ret b (Some (Builder.i32c 0));
    p
  in
  let e = mk_exp build in
  let site = List.hd (Experiment.sites e Inject.Immediate_free) in
  let c = Experiment.run_variant e (Experiment.Fi_stdapp (Inject.Immediate_free, site)) in
  Alcotest.(check bool) "not sf" false c.Experiment.sf;
  Alcotest.(check bool) "correct output" true c.Experiment.co

let test_resize_can_be_hidden_by_rounding () =
  (* allocating 2 x i64 = 16 bytes: min payload is 24 rounded to 32, so a
     50% resize (1 x i64 = 8 -> still 32 usable) cannot manifest *)
  let build () =
    let p = Progs.fresh () in
    let b = Builder.create p ~name:"main" ~params:[] ~ret:Types.i32 () in
    let x = Builder.malloc b ~count:(Builder.i64c 2) Types.i64 in
    Builder.store b Types.i64 (Builder.i64c 5) (Builder.gep_index b x (Builder.i64c 1));
    let v = Builder.load b Types.i64 (Builder.gep_index b x (Builder.i64c 1)) in
    Builder.call0 b (Inst.Direct "print_int") [ v ];
    Builder.ret b (Some (Builder.i32c 0));
    p
  in
  let e = mk_exp build in
  let site = List.hd (Experiment.sites e (Inject.Heap_array_resize 50)) in
  let c = Experiment.run_variant e (Experiment.Fi_stdapp (Inject.Heap_array_resize 50, site)) in
  Alcotest.(check bool) "sf but correct output (overallocation)" true
    (c.Experiment.sf && c.Experiment.co)

let test_t2d_positive_when_detected () =
  let e = mk_exp (fun () -> Progs.overflow ~limit:8 ()) in
  let cfg = Config.default in
  let site = List.hd (Experiment.sites e (Inject.Heap_array_resize 50)) in
  let c = Experiment.run_variant e (Experiment.Fi_dpmr (cfg, Inject.Heap_array_resize 50, site)) in
  if c.Experiment.ddet || c.Experiment.ndet then
    match c.Experiment.t2d with
    | Some t -> Alcotest.(check bool) "t2d > 0" true (Int64.compare t 0L > 0)
    | None -> Alcotest.fail "detected but no t2d"

let test_wild_store_detected_or_crashes () =
  let e = mk_exp (fun () -> Progs.overflow ~limit:8 ()) in
  let cfg = Config.default in
  let kind = Inject.Wild_store 4096 in
  let results =
    List.map
      (fun site -> Experiment.run_variant e (Experiment.Fi_dpmr (cfg, kind, site)))
      (Experiment.sites e kind)
  in
  Alcotest.(check bool) "all covered" true
    (List.for_all
       (fun c ->
         (not c.Experiment.sf) || c.Experiment.co || c.Experiment.ndet
         || c.Experiment.ddet)
       results)

(* ---- metrics arithmetic ---- *)

let mk_class ~sf ~co ~ndet ~ddet =
  {
    Experiment.sf;
    co;
    ndet;
    ddet;
    timeout = false;
    t2d = (if ndet || ddet then Some 100L else None);
    cost = 1000L;
    peak_heap = 0;
  }

let test_coverage_fractions () =
  let cs =
    [
      mk_class ~sf:true ~co:true ~ndet:false ~ddet:false;
      mk_class ~sf:true ~co:false ~ndet:true ~ddet:false;
      mk_class ~sf:true ~co:false ~ndet:false ~ddet:true;
      mk_class ~sf:true ~co:false ~ndet:false ~ddet:false (* uncovered *);
      mk_class ~sf:false ~co:true ~ndet:false ~ddet:false (* not injected: ignored *);
    ]
  in
  let cov = Metrics.of_list cs in
  Alcotest.(check int) "n_sf" 4 cov.Metrics.n_sf;
  Alcotest.(check (float 1e-9)) "co" 0.25 (Metrics.co_frac cov);
  Alcotest.(check (float 1e-9)) "ndet" 0.25 (Metrics.ndet_frac cov);
  Alcotest.(check (float 1e-9)) "ddet" 0.25 (Metrics.ddet_frac cov);
  Alcotest.(check (float 1e-9)) "total" 0.75 (Metrics.total cov)

let test_mean_t2d () =
  let cs =
    [
      mk_class ~sf:true ~co:false ~ndet:true ~ddet:false;
      mk_class ~sf:true ~co:true ~ndet:false ~ddet:false;
    ]
  in
  (match Metrics.mean_t2d cs with
  | Some m -> Alcotest.(check (float 1e-9)) "mean over detected only" 100.0 m
  | None -> Alcotest.fail "expected a mean");
  Alcotest.(check bool) "none when nothing detected" true
    (Metrics.mean_t2d [ mk_class ~sf:true ~co:true ~ndet:false ~ddet:false ] = None)

let test_overhead_measures () =
  let e = mk_exp (fun () -> Progs.linked_list ~n:30 ()) in
  let oh = Experiment.overhead e Config.default in
  Alcotest.(check bool) "overhead in a sane band" true (oh > 1.2 && oh < 8.0);
  let mh = Experiment.memory_overhead e Config.default in
  Alcotest.(check bool) "memory overhead ~2-4x" true (mh >= 1.9 && mh < 4.2)

let suites =
  [
    ( "faultinject",
      [
        Alcotest.test_case "resize skips singleton mallocs" `Quick
          test_sites_resize_skips_singletons;
        Alcotest.test_case "site counts per kind" `Quick test_sites_counts;
        Alcotest.test_case "injection clones" `Quick test_injection_does_not_mutate_original;
        Alcotest.test_case "injected programs verify" `Quick test_injected_program_verifies;
        Alcotest.test_case "SF marks execution" `Quick test_sf_marks_execution;
        Alcotest.test_case "unexecuted site not SF" `Quick test_unexecuted_site_not_sf;
        Alcotest.test_case "rounding hides small resizes" `Quick
          test_resize_can_be_hidden_by_rounding;
        Alcotest.test_case "T2D positive when detected" `Quick test_t2d_positive_when_detected;
        Alcotest.test_case "wild stores covered" `Quick test_wild_store_detected_or_crashes;
        Alcotest.test_case "coverage fractions" `Quick test_coverage_fractions;
        Alcotest.test_case "mean T2D" `Quick test_mean_t2d;
        Alcotest.test_case "overhead measures" `Quick test_overhead_measures;
      ] );
  ]
