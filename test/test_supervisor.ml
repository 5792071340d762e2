(* Supervision-layer tests (lib/engine): retry-with-backoff for
   transient failures, quarantine for deterministic ones, wall-clock
   deadlines through the VM's cooperative poll hook, and chaos mode —
   deterministic fault injection into the engine's own workers that the
   supervisor must absorb without changing any result. *)

module Config = Dpmr_core.Config
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Job = Dpmr_engine.Job
module Chaos = Dpmr_engine.Chaos
module Supervisor = Dpmr_engine.Supervisor
module Engine = Dpmr_engine.Engine
module Telemetry = Dpmr_engine.Telemetry
module Vm = Dpmr_vm.Vm
module Workloads = Dpmr_workloads.Workloads

(* fast backoff so retry tests don't sleep for real *)
let fast =
  {
    Supervisor.default_policy with
    Supervisor.backoff = 1e-4;
    backoff_max = 1e-3;
  }

exception Flaky of int

let () = Supervisor.register_transient (function Flaky _ -> true | _ -> false)

(* ---- classification ---- *)

let test_classify_exn () =
  let is r e = Supervisor.classify_exn e = r in
  Alcotest.(check bool) "chaos faults are transient" true
    (is Supervisor.Transient (Chaos.Injected_fault "x"));
  Alcotest.(check bool) "registered predicate is transient" true
    (is Supervisor.Transient (Flaky 1));
  Alcotest.(check bool) "cancellation is a deadline" true
    (is Supervisor.Deadline (Vm.Cancelled "x"));
  Alcotest.(check bool) "anything else is fatal" true
    (is Supervisor.Fatal (Failure "bug"))

(* ---- retry / quarantine ---- *)

(* these assert exact attempt counts and failure reasons, which
   environment-driven chaos injection (DPMR_CHAOS) would perturb *)
let no_chaos f () = Chaos.with_chaos None f

let test_transient_retry () =
  let sup = Supervisor.create ~policy:fast () in
  let n = ref 0 in
  (match
     Supervisor.run sup ~key:"flaky" (fun () ->
         incr n;
         if !n < 3 then raise (Flaky !n) else 42)
   with
  | Ok v -> Alcotest.(check int) "eventual result" 42 v
  | Error f -> Alcotest.failf "unexpected failure: %s" (Supervisor.failure_to_string f));
  Alcotest.(check int) "three attempts" 3 !n;
  Alcotest.(check int) "two retries recorded" 2 (Supervisor.retries sup);
  Alcotest.(check int) "no failures" 0 (Supervisor.failures sup);
  Alcotest.(check int) "nothing quarantined" 0 (Supervisor.quarantined sup)

let test_transient_exhausted () =
  let sup = Supervisor.create ~policy:{ fast with Supervisor.max_retries = 2 } () in
  let n = ref 0 in
  (match
     Supervisor.run sup ~key:"always-flaky" (fun () ->
         incr n;
         raise (Flaky !n))
   with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error f ->
      Alcotest.(check bool) "reason: transient exhausted" true
        (f.Supervisor.freason = Supervisor.Transient);
      Alcotest.(check int) "attempts = 1 + max_retries" 3 f.Supervisor.fattempts);
  Alcotest.(check int) "quarantined after exhaustion" 1 (Supervisor.quarantined sup)

let test_fatal_quarantine () =
  let sup = Supervisor.create ~policy:fast () in
  let n = ref 0 in
  (match
     Supervisor.run sup ~key:"boom" (fun () ->
         incr n;
         failwith "deterministic bug")
   with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      Alcotest.(check bool) "reason: fatal" true (f.Supervisor.freason = Supervisor.Fatal);
      Alcotest.(check int) "no retry of fatal" 1 f.Supervisor.fattempts);
  (* resubmitting a quarantined key answers from the record: the job
     must not execute again *)
  (match Supervisor.run sup ~key:"boom" (fun () -> incr n; 1) with
  | Ok _ -> Alcotest.fail "quarantined key must not succeed"
  | Error f ->
      Alcotest.(check bool) "quarantine reports original reason" true
        (f.Supervisor.freason = Supervisor.Fatal));
  Alcotest.(check int) "executed exactly once" 1 !n;
  Alcotest.(check int) "one key quarantined" 1 (Supervisor.quarantined sup);
  Alcotest.(check int) "both submissions counted failed" 2 (Supervisor.failures sup)

(* ---- deadline via the VM poll hook ---- *)

(* a genuinely wedged job: infinite loop under an effectively unlimited
   cost budget, so only the wall-clock deadline can stop it *)
let infinite_prog () =
  let open Dpmr_ir in
  let open Types in
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  let b = Builder.create p ~name:"main" ~params:[] ~ret:i32 () in
  let x = Builder.local b i32 (Builder.i32c 0) in
  Builder.while_ b
    (fun () -> Builder.icmp b Inst.Ine W32 (Builder.i32c 0) (Builder.i32c 1))
    (fun () ->
      Builder.set b i32 x (Builder.add b W32 (Builder.get b i32 x) (Builder.i32c 1)));
  Builder.ret b (Some (Builder.i32c 0));
  p

let test_deadline_cancels_wedged_vm () =
  let sup =
    Supervisor.create
      ~policy:{ fast with Supervisor.deadline = Some 0.05; max_retries = 0 }
      ()
  in
  let t0 = Unix.gettimeofday () in
  (match
     Supervisor.run sup ~key:"wedged" (fun () ->
         let vm = Vm.create ~budget:1_000_000_000_000L (infinite_prog ()) in
         Vm.run vm)
   with
  | Ok _ -> Alcotest.fail "wedged job cannot finish"
  | Error f ->
      Alcotest.(check bool) "reason: deadline" true
        (f.Supervisor.freason = Supervisor.Deadline));
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "cancelled promptly (not budget-bound)" true (elapsed < 5.);
  (* the hook is cleared afterwards: an ordinary VM run still works *)
  let sup2 = Supervisor.create ~policy:fast () in
  match
    Supervisor.run sup2 ~key:"ok" (fun () ->
        let vm = Vm.create (Dpmr_testprogs.Progs.linked_list ()) in
        Dpmr_vm.Extern.register_base vm;
        (Vm.run vm).Dpmr_vm.Outcome.outcome)
  with
  | Ok o -> Alcotest.(check bool) "later run unaffected" true (o = Dpmr_vm.Outcome.Normal)
  | Error f -> Alcotest.failf "unexpected failure: %s" (Supervisor.failure_to_string f)

(* ---- chaos mode through the whole engine ---- *)

let specs_fixture () =
  let entry = Workloads.find "mcf" in
  let e =
    Experiment.make
      (Experiment.workload "mcf" (fun () -> entry.Workloads.build ~scale:1 ()))
  in
  let mk = Job.make e ~workload:"mcf" ~scale:1 ~run_seed:42L in
  mk Experiment.Golden
  :: List.map
       (fun site -> mk (Experiment.Fi_dpmr (Config.default, Inject.Heap_array_resize 50, site)))
       (Experiment.sites e (Inject.Heap_array_resize 50))

let lines_of cs =
  List.map
    (fun c -> Job.entry_to_line { Job.key = ""; salt = ""; spec_repr = ""; snap = None; cls = c })
    cs

let test_chaos_is_result_transparent () =
  let specs = specs_fixture () in
  let quiet =
    Chaos.with_chaos None (fun () ->
        Engine.run_specs (Engine.create ~jobs:1 ~use_cache:false ~progress:false ()) specs)
  in
  (* chaos injects faults and stalls into every job's first attempts;
     the supervisor retries past them, so results must be byte-identical
     and no job may be lost *)
  let eng = Engine.create ~jobs:2 ~use_cache:false ~progress:false () in
  Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
  let noisy =
    Chaos.with_chaos
      (Some (Chaos.make ~prob:1.0 ~seed:7L ()))
      (fun () -> Engine.run_specs eng specs)
  in
  Alcotest.(check (list string)) "chaos run byte-identical" (lines_of quiet)
    (lines_of noisy);
  let tel = Engine.telemetry eng in
  Alcotest.(check bool) "chaos forced retries" true (tel.Telemetry.retries > 0);
  Alcotest.(check int) "no job abandoned" 0 tel.Telemetry.jobs_failed

let test_fatal_spec_is_a_hole () =
  Chaos.with_chaos None (fun () ->
      match specs_fixture () with
      | [] -> Alcotest.fail "empty fixture"
      | good :: _ as specs ->
          let bad = { good with Job.workload = "no-such-workload" } in
          let eng = Engine.create ~jobs:2 ~use_cache:false ~progress:false () in
          Fun.protect ~finally:(fun () -> Engine.close eng) @@ fun () ->
          (match Engine.run_specs_r eng (bad :: specs) with
          | [] -> Alcotest.fail "no results"
          | hole :: rest ->
              (match hole with
              | Experiment.Job_failed f ->
                  Alcotest.(check string) "fatal reason carried" "fatal"
                    f.Experiment.fail_reason
              | Experiment.Run _ -> Alcotest.fail "bad spec must be a hole");
              Alcotest.(check int) "rest of the batch completed"
                (List.length specs)
                (List.length (List.filter_map Experiment.result_classification rest)));
          Alcotest.(check int) "failure counted" 1
            (Engine.telemetry eng).Telemetry.jobs_failed;
          (* the strict interface reports the hole as an exception *)
          let eng2 = Engine.create ~jobs:1 ~use_cache:false ~progress:false () in
          match Engine.run_specs eng2 [ bad ] with
          | _ -> Alcotest.fail "run_specs must raise on a failed job"
          | exception Failure _ -> ())

let suites =
  [
    ( "supervisor",
      [
        Alcotest.test_case "exception classification" `Quick test_classify_exn;
        Alcotest.test_case "transient failures retry then succeed" `Quick
          (no_chaos test_transient_retry);
        Alcotest.test_case "exhausted transients quarantine" `Quick
          (no_chaos test_transient_exhausted);
        Alcotest.test_case "fatal failures quarantine without retry" `Quick
          (no_chaos test_fatal_quarantine);
        Alcotest.test_case "deadline cancels a wedged VM" `Quick
          (no_chaos test_deadline_cancels_wedged_vm);
        Alcotest.test_case "chaos: engine results unchanged under injection" `Quick
          test_chaos_is_result_transparent;
        Alcotest.test_case "fatal spec: hole, not batch abort" `Quick
          test_fatal_spec_is_a_hole;
      ] );
  ]
