(* Diversity-family tests (lib/nversion + the family hooks in the
   transform): registry behaviour, output preservation for every family
   alone and stacked in both designs (differential qcheck), replica-global
   structure, family-based Rx recovery, and cache / wire-protocol
   compatibility of family builds. *)

open Dpmr_ir
open Types
open Inst
module B = Builder
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Rx = Dpmr_core.Rx
module DF = Dpmr_core.Diversity_family
module Outcome = Dpmr_vm.Outcome
module Inject = Dpmr_fi.Inject
module Experiment = Dpmr_fi.Experiment
module Job = Dpmr_engine.Job
module Cache = Dpmr_engine.Cache
module Chaos = Dpmr_engine.Chaos
module Engine = Dpmr_engine.Engine
module Protocol = Dpmr_server.Protocol
module Families = Dpmr_nversion.Families
module Progs = Dpmr_testprogs.Progs
module Workloads = Dpmr_workloads.Workloads

let () = Families.ensure ()
let family_names = [ "layout-perm"; "segment-base"; "pad-jitter" ]

let nv_cfg ?(mode = Config.Sds) families = { Config.default with Config.mode; families }

(* ---- registry ---- *)

let test_registry () =
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " registered") true (DF.find f <> None);
      Alcotest.(check bool)
        (f ^ " described") true
        (DF.description f <> None))
    family_names;
  (match DF.resolve family_names with
  | Ok fs -> Alcotest.(check int) "resolve returns all" (List.length family_names) (List.length fs)
  | Error f -> Alcotest.fail ("resolve rejected registered family " ^ f));
  (match DF.resolve [ "layout-perm"; "no-such-family" ] with
  | Ok _ -> Alcotest.fail "resolve accepted an unknown family"
  | Error f -> Alcotest.(check string) "names the unknown family" "no-such-family" f);
  let before = List.length (DF.names ()) in
  Families.ensure ();
  Alcotest.(check int) "ensure is idempotent" before (List.length (DF.names ()))

(* ---- differential property: every family, alone and stacked,
   preserves error-free output in both designs ---- *)

let preserves_output families ops =
  let p = Test_differential.build_prog ops in
  let golden = Dpmr.run_plain p in
  golden.Outcome.outcome = Outcome.Normal
  && List.for_all
       (fun mode ->
         let r = Dpmr.run_dpmr (nv_cfg ~mode families) p in
         r.Outcome.outcome = Outcome.Normal && r.Outcome.output = golden.Outcome.output)
       [ Config.Sds; Config.Mds ]

let prop_family_preserves_output =
  QCheck.Test.make ~name:"random programs: every family alone, SDS and MDS, preserves output"
    ~count:8 Test_differential.arb_ops (fun ops ->
      List.for_all (fun f -> preserves_output [ f ] ops) family_names)

let prop_all_families_both_modes =
  QCheck.Test.make ~name:"random programs: all families together, both modes"
    ~count:8 Test_differential.arb_ops (preserves_output family_names)

(* ---- replica-global structure ---- *)

let global_prog () =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
  let g = B.global b ~name:"gv" i64 (Prog.Gint 7L) in
  B.call0 b (Direct "print_int") [ B.load b i64 g ];
  B.ret b (Some (B.i32c 0));
  p

let test_replica_globals () =
  let p = global_prog () in
  (* the paper's single ".rep" group, and no numbered extras *)
  let t = Dpmr.transform (nv_cfg []) p in
  Verifier.check_prog t;
  Alcotest.(check bool) "keeps gv.rep" true (Prog.has_global t "gv.rep");
  Alcotest.(check bool) "has no gv.rep2" false (Prog.has_global t "gv.rep2")

(* ---- Rx escalation through families ---- *)

let test_rx_family_recovery () =
  let p = Progs.overflow ~limit:16 () in
  let res =
    Rx.run_with_recovery Config.default p
      ~escalation:[ Rx.Family "pad-jitter"; Rx.Pad 2048 ]
  in
  Alcotest.(check bool) "detected first" true (Outcome.is_dpmr_detect res.Rx.first);
  (match res.Rx.recovered_with with
  | Some (Rx.Family f) -> Alcotest.(check string) "recovered by the family" "pad-jitter" f
  | Some (Rx.Pad _) -> () (* acceptable fallback, but the pad-jitter rewrite pads >= 64 *)
  | None -> Alcotest.fail "expected recovery");
  Alcotest.(check bool) "final clean" true
    (res.Rx.final.Outcome.outcome = Outcome.Normal)

let test_rx_skips_inapplicable_steps () =
  (* neither "alloc-shuffle" nor "no-such" is a registered family: an
     unknown step may not count as an attempt *)
  let p = Progs.overflow ~limit:16 () in
  let res =
    Rx.run_with_recovery Config.default p
      ~escalation:
        [ Rx.Family "alloc-shuffle"; Rx.Family "no-such"; Rx.Family "pad-jitter" ]
  in
  Alcotest.(check int) "inapplicable steps not counted" 1 res.Rx.attempts;
  Alcotest.(check bool) "recovered" true (res.Rx.recovered_with <> None)

(* ---- cache compatibility across the salt bump ---- *)

let old_salt = "dpmr-engine/1"
let test_dir = Filename.concat (Filename.get_temp_dir_name ()) "dpmr-nversion-cache-test"

let with_clean_cache f =
  ignore (Cache.clear ~dir:test_dir ());
  Fun.protect ~finally:(fun () -> ignore (Cache.clear ~dir:test_dir ())) f

let some_cls =
  {
    Experiment.sf = true;
    co = false;
    ndet = false;
    ddet = true;
    timeout = false;
    t2d = Some 17L;
    cost = 1234L;
    peak_heap = 512;
  }

(* Runs with chaos off: it counts records exactly, which [DPMR_CHAOS]'s
   deliberately torn cache appends would perturb. *)
let test_salt_bump_evicts_cleanly () =
  Alcotest.(check string) "salt was bumped for N-version" "dpmr-engine/2"
    Job.default_salt;
  with_clean_cache (fun () ->
      (* a pre-N-version cache: records written under the old salt *)
      let c1 = Cache.load ~dir:test_dir ~salt:old_salt () in
      Cache.add c1 ~key:"00aa" ~spec_repr:"w=mcf;s=1;r=42;nofi-dpmr(sds,none,all,42)"
        some_cls;
      Cache.add c1 ~key:"00ab" ~spec_repr:"w=mcf;s=1;r=43;nofi-dpmr(sds,none,all,42)"
        some_cls;
      Cache.close c1;
      (* the old records still parse: eviction is a clean reload drop,
         never a damaged line *)
      let d_old = Cache.disk_stats ~dir:test_dir ~salt:old_salt () in
      Alcotest.(check int) "old records intact" 2 d_old.Cache.current;
      Alcotest.(check int) "no damage before reload" 0 d_old.Cache.damaged;
      (* loading under the bumped salt evicts both, damages nothing *)
      let c2 = Cache.load ~dir:test_dir ~salt:Job.default_salt () in
      Alcotest.(check int) "nothing survives the bump" 0 (Cache.entries c2);
      Alcotest.(check int) "stale lines evicted" 2 (Cache.stats c2).Cache.evicted;
      Alcotest.(check int) "no lines damaged" 0 (Cache.stats c2).Cache.damaged;
      Cache.add c2 ~key:"00ac" ~spec_repr:"w=mcf;s=1;r=42;nofi-dpmr(sds,none,all,42,n=1,fam=pad-jitter)"
        some_cls;
      Cache.close c2;
      (* the equivalent of [dpmr cache verify]: zero damaged lines and
         full compaction to the current salt *)
      let d = Cache.disk_stats ~dir:test_dir ~salt:Job.default_salt () in
      Alcotest.(check int) "verify green: no damage" 0 d.Cache.damaged;
      Alcotest.(check int) "compacted to current salt" d.Cache.total d.Cache.current;
      Alcotest.(check int) "exactly the new record" 1 d.Cache.current)

let test_config_repr_nversion_suffix () =
  let spec cfg =
    let entry = Workloads.find "mcf" in
    let e =
      Experiment.make
        (Experiment.workload "mcf" (fun () -> entry.Workloads.build ~scale:1 ()))
    in
    Job.make e ~workload:"mcf" ~scale:1 ~run_seed:42L (Experiment.Nofi_dpmr cfg)
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let r1 = Job.repr (spec Config.default) in
  Alcotest.(check bool) "default repr carries no family suffix" false (contains r1 ",n=");
  (* every family build's key carries the fixed ",n=1" suffix *)
  Alcotest.(check string) "family repr"
    "sds,no-diversity,all-loads,42,n=1,fam=pad-jitter"
    (Job.config_repr { Config.default with Config.families = [ "pad-jitter" ] });
  let rf = Job.repr (spec (nv_cfg family_names)) in
  Alcotest.(check bool) "repr carries the families" true
    (contains rf "fam=layout-perm+segment-base+pad-jitter");
  Alcotest.(check bool) "repr carries no vote" false (contains rf "vote=");
  Alcotest.(check bool) "distinct cache keys" true
    (Job.hash (spec Config.default) <> Job.hash (spec (nv_cfg family_names)))

(* ---- wire protocol compatibility ---- *)

let test_protocol_defaults_and_roundtrip () =
  (* a frame with no families field decodes to the paper's build *)
  let frame extra =
    "{\"v\":1,\"id\":7,\"t\":\"run\",\"workload\":\"mcf\",\"scale\":1,\"eseed\":42,\
     \"rseed\":42,\"budget\":0,\"mode\":\"sds\",\"diversity\":\"no-diversity\",\
     \"policy\":\"all-loads\",\"cseed\":42" ^ extra ^ "}"
  in
  (match Protocol.decode_request (frame "") with
  | Ok { Protocol.body = Protocol.Run p; _ } ->
      Alcotest.(check string) "workload decoded" "mcf" p.Protocol.workload;
      Alcotest.(check bool) "families default to []" true (p.Protocol.families = [])
  | Ok _ -> Alcotest.fail "decoded to a non-run body"
  | Error e -> Alcotest.fail ("frame without replicas rejected: " ^ e));
  (* one replica is the only build: an explicit "replicas":1 still
     decodes, any other count is refused rather than served as a
     one-replica verdict *)
  Alcotest.(check bool) "explicit replicas 1 decodes" true
    (Result.is_ok (Protocol.decode_request (frame ",\"replicas\":1")));
  Alcotest.(check bool) "replicas 2 is refused" true
    (Result.is_error (Protocol.decode_request (frame ",\"replicas\":2")));
  let enc p = Protocol.encode_request { Protocol.rid = 1; body = Protocol.Run p } in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "default encode omits families" false
    (contains (enc Protocol.default_run) "families");
  let line =
    enc { Protocol.default_run with Protocol.families = [ "pad-jitter"; "segment-base" ] }
  in
  Alcotest.(check bool) "encode ships no replicas" false (contains line "replicas");
  Alcotest.(check bool) "encode ships no vote" false (contains line "vote");
  (match Protocol.decode_request line with
  | Ok { Protocol.body = Protocol.Run p; _ } ->
      Alcotest.(check bool) "families round-trip" true
        (p.Protocol.families = [ "pad-jitter"; "segment-base" ])
  | Ok _ -> Alcotest.fail "decoded to a non-run body"
  | Error e -> Alcotest.fail ("round-trip rejected: " ^ e));
  (* any-mismatch is the only check: a frame naming it still decodes, a
     frame asking for any other voting rule is refused rather than
     served as an any-mismatch verdict *)
  let with_vote v = Printf.sprintf "{\"v\":1,\"id\":8,\"t\":\"run\",\"vote\":\"%s\"}" v in
  Alcotest.(check bool) "explicit any-mismatch decodes" true
    (Result.is_ok (Protocol.decode_request (with_vote "any-mismatch")));
  Alcotest.(check bool) "majority vote is refused" true
    (Result.is_error (Protocol.decode_request (with_vote "majority")))

let suites =
  [
    ( "nversion",
      [
        Alcotest.test_case "family registry" `Quick test_registry;
        Alcotest.test_case "replica globals" `Quick test_replica_globals;
        Alcotest.test_case "rx family recovery" `Quick test_rx_family_recovery;
        Alcotest.test_case "rx skips inapplicable" `Quick test_rx_skips_inapplicable_steps;
        Alcotest.test_case "salt bump evicts cleanly" `Quick
          (fun () -> Chaos.with_chaos None test_salt_bump_evicts_cleanly);
        Alcotest.test_case "config repr suffix" `Quick test_config_repr_nversion_suffix;
        Alcotest.test_case "protocol defaults and roundtrip" `Quick
          test_protocol_defaults_and_roundtrip;
      ] );
    ( "nversion-properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_family_preserves_output; prop_all_families_both_modes ] );
  ]
