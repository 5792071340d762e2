(* Rx-style recovery tests (§1.5 / Chapter 6 extension): a DPMR-detected
   overflow is masked by re-execution with padded heap requests. *)

open Dpmr_ir
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Rx = Dpmr_core.Rx
module Outcome = Dpmr_vm.Outcome
module Inject = Dpmr_fi.Inject
module Progs = Dpmr_testprogs.Progs

let test_padding_masks_overflow () =
  (* the limit-16 overflow writes 8 elements past an 8-element buffer;
     padding every request by 64 bytes absorbs the whole excursion *)
  let p = Progs.overflow ~limit:16 () in
  let padded = Rx.pad_heap_requests p 64 in
  Verifier.check_prog padded;
  let r = Dpmr.run_dpmr Config.default padded in
  Alcotest.(check bool)
    ("padded run clean: " ^ Outcome.to_string r.Outcome.outcome)
    true
    (r.Outcome.outcome = Outcome.Normal)

let test_recovery_escalation () =
  let p = Progs.overflow ~limit:16 () in
  let res =
    Rx.run_with_recovery Config.default p ~escalation:[ 8; 64; 256 ]
  in
  Alcotest.(check bool) "first run detected" true (Outcome.is_dpmr_detect res.Rx.first);
  (* even the 8-byte pad can succeed thanks to size-class rounding; what
     matters is that some escalation level recovers *)
  (match res.Rx.recovered_with with
  | Some _ -> ()
  | None -> Alcotest.fail "expected recovery");
  Alcotest.(check bool) "final run clean" true
    (res.Rx.final.Outcome.outcome = Outcome.Normal)

let test_clean_program_not_reexecuted () =
  let p = Progs.linked_list () in
  let res = Rx.run_with_recovery Config.default p ~escalation:[ 64 ] in
  Alcotest.(check int) "no re-executions" 0 res.Rx.attempts;
  Alcotest.(check bool) "clean" true (res.Rx.final.Outcome.outcome = Outcome.Normal)

let test_recovery_of_injected_resize () =
  (* end-to-end with the fault injector: a 50% heap-array resize on the
     bzip2 encoder buffer, detected by DPMR, recovered by padding *)
  let base = (Dpmr_workloads.Workloads.find "bzip2").Dpmr_workloads.Workloads.build () in
  let golden = Dpmr.run_plain base in
  let kind = Inject.Heap_array_resize 50 in
  let detected =
    List.filter_map
      (fun site ->
        let injected = Inject.apply base kind site in
        let res = Rx.run_with_recovery Config.default injected ~escalation:[ 2048 ] in
        if Outcome.is_dpmr_detect res.Rx.first then Some res else None)
      (Inject.sites kind base)
  in
  Alcotest.(check bool) "at least one detected fault" true (detected <> []);
  (* every detected resize must be recoverable by a sufficiently large pad,
     and the recovered run must produce the golden output *)
  List.iter
    (fun (res : Rx.recovery_result) ->
      Alcotest.(check bool) "recovered" true (res.Rx.recovered_with <> None);
      Alcotest.(check string) "recovered output is golden" golden.Outcome.output
        res.Rx.final.Outcome.output)
    detected

let test_unrecoverable_reports_failure () =
  (* use-after-free under zero-before-free: padding does not mask it *)
  let p = Progs.read_after_free () in
  let cfg = { Config.default with Config.diversity = Config.Zero_before_free } in
  let res = Rx.run_with_recovery cfg p ~escalation:[ 8; 64 ] in
  Alcotest.(check bool) "detected" true (Outcome.is_dpmr_detect res.Rx.first);
  Alcotest.(check bool) "not recovered" true (res.Rx.recovered_with = None);
  Alcotest.(check int) "both escalations tried" 2 res.Rx.attempts

let suites =
  [
    ( "rx",
      [
        Alcotest.test_case "padding masks overflow" `Quick test_padding_masks_overflow;
        Alcotest.test_case "escalating recovery" `Quick test_recovery_escalation;
        Alcotest.test_case "clean program untouched" `Quick test_clean_program_not_reexecuted;
        Alcotest.test_case "injected resize recovered end-to-end" `Quick
          test_recovery_of_injected_resize;
        Alcotest.test_case "unrecoverable fault reported" `Quick
          test_unrecoverable_reports_failure;
      ] );
  ]
