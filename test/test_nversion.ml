(* N-version replication tests (lib/nversion + the N-replica transform):
   registry behaviour, output preservation for every diversity family at
   N in 1..4 (differential qcheck), vote semantics (majority detections
   are a subset of any-mismatch detections), replica-global structure,
   family-based Rx recovery, and cache / wire-protocol backward
   compatibility across the N-version salt bump. *)

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
module Surface = Dpmr_nversion.Surface
module Progs = Dpmr_testprogs.Progs
module Workloads = Dpmr_workloads.Workloads

let () = Families.ensure ()
let family_names = [ "layout-perm"; "alloc-shuffle"; "segment-base"; "pad-jitter" ]

let nv_cfg ?(mode = Config.Sds) ?(vote = Config.Any_mismatch) ?(families = family_names)
    n =
  { Config.default with Config.mode; replicas = n; families; vote }

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

(* ---- differential property: every family preserves error-free output
   at every replica count ---- *)

let prop_family_n_preserves_output =
  QCheck.Test.make ~name:"random programs: every family x N in 1..4 preserves output"
    ~count:8 Test_differential.arb_ops (fun ops ->
      let p = Test_differential.build_prog ops in
      let golden = Dpmr.run_plain p in
      golden.Outcome.outcome = Outcome.Normal
      && List.for_all
           (fun f ->
             List.for_all
               (fun n ->
                 let r = Dpmr.run_dpmr (nv_cfg ~families:[ f ] n) p in
                 r.Outcome.outcome = Outcome.Normal
                 && r.Outcome.output = golden.Outcome.output)
               [ 1; 2; 3; 4 ])
           family_names)

let prop_all_families_both_modes =
  QCheck.Test.make
    ~name:"random programs: all families together, both modes, both votes, N=3"
    ~count:8 Test_differential.arb_ops (fun ops ->
      let p = Test_differential.build_prog ops in
      let golden = Dpmr.run_plain p in
      List.for_all
        (fun (mode, vote) ->
          let r = Dpmr.run_dpmr (nv_cfg ~mode ~vote 3) p in
          r.Outcome.outcome = Outcome.Normal
          && r.Outcome.output = golden.Outcome.output)
        [
          (Config.Sds, Config.Any_mismatch);
          (Config.Mds, Config.Any_mismatch);
          (Config.Sds, Config.Majority);
          (Config.Mds, Config.Majority);
        ])

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
  let count_reps tp =
    let n = ref 0 in
    Prog.iter_globals tp (fun g ->
        let gn = g.Prog.gname in
        if String.length gn > 3 && String.sub gn 0 3 = "gv." then incr n);
    !n
  in
  (* N=1: the paper's single ".rep" group; N=3: two more replica groups,
     one per additional replica *)
  let t1 = Dpmr.transform (nv_cfg ~families:[] 1) p in
  Verifier.check_prog t1;
  Alcotest.(check bool) "N=1 keeps gv.rep" true (Prog.has_global t1 "gv.rep");
  Alcotest.(check bool) "N=1 has no gv.rep2" false (Prog.has_global t1 "gv.rep2");
  let t3 = Dpmr.transform (nv_cfg ~families:[] 3) p in
  Verifier.check_prog t3;
  List.iter
    (fun gn ->
      Alcotest.(check bool) ("N=3 has " ^ gn) true (Prog.has_global t3 gn))
    [ "gv.rep"; "gv.rep2"; "gv.rep3" ];
  Alcotest.(check int) "replica group count grows with N" ((count_reps t1) + 2)
    (count_reps t3)

(* ---- fault model: vote semantics at N=3 ---- *)

let test_majority_subset_of_any_mismatch () =
  let entry = Workloads.find "mcf" in
  let e =
    Experiment.make
      (Experiment.workload "mcf" (fun () -> entry.Workloads.build ~scale:1 ()))
  in
  let kind = Inject.Heap_array_resize 50 in
  let any = nv_cfg ~vote:Config.Any_mismatch 3 in
  let maj = nv_cfg ~vote:Config.Majority 3 in
  let detected cfg site =
    (Experiment.run_variant e (Experiment.Fi_dpmr (cfg, kind, site))).Experiment.ddet
  in
  let sites = Experiment.sites e kind in
  Alcotest.(check bool) "have sites" true (sites <> []);
  let n_any = ref 0 in
  List.iter
    (fun site ->
      let da = detected any site in
      if da then incr n_any;
      (* a majority of mismatched replicas implies at least one mismatched
         replica: majority detections must be a subset, site by site *)
      if detected maj site then
        Alcotest.(check bool) "majority ddet implies any-mismatch ddet" true da)
    sites;
  Alcotest.(check bool) "N=3 any-mismatch detects something" true (!n_any > 0)

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
  (* alloc-shuffle has no whole-program rewrite and "no-such" is not
     registered: neither may count as an attempt *)
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
      Cache.add c2 ~key:"00ac" ~spec_repr:"w=mcf;s=1;r=42;nofi-dpmr(sds,none,all,42,n=3,fam=pad-jitter,vote=majority)"
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
  Alcotest.(check bool) "default repr is the pre-N-version repr" false
    (contains r1 ",n=");
  let r3 = Job.repr (spec (nv_cfg ~vote:Config.Majority 3)) in
  Alcotest.(check bool) "N=3 repr carries the replica count" true (contains r3 ",n=3");
  Alcotest.(check bool) "repr carries the families" true
    (contains r3 "fam=layout-perm+alloc-shuffle+segment-base+pad-jitter");
  Alcotest.(check bool) "repr carries the vote" true (contains r3 "vote=majority");
  Alcotest.(check bool) "distinct cache keys" true
    (Job.hash (spec Config.default) <> Job.hash (spec (nv_cfg 3)))

(* ---- wire protocol compatibility ---- *)

let test_protocol_defaults_and_roundtrip () =
  (* a frame from a pre-N-version client: no replicas/families/vote
     fields at all — must decode to the defaults *)
  let old_frame =
    "{\"v\":1,\"id\":7,\"t\":\"run\",\"w\":\"mcf\",\"scale\":1,\"exp_seed\":42,\
     \"run_seed\":42,\"budget\":0,\"mode\":\"sds\",\"div\":\"none\",\
     \"policy\":\"all-loads\",\"cfg_seed\":42}"
  in
  (match Protocol.decode_request old_frame with
  | Ok { Protocol.body = Protocol.Run p; _ } ->
      Alcotest.(check int) "replicas defaults to 1" 1 p.Protocol.replicas;
      Alcotest.(check bool) "families default to []" true (p.Protocol.families = []);
      Alcotest.(check bool) "vote defaults to any-mismatch" true
        (p.Protocol.vote = Config.Any_mismatch)
  | Ok _ -> Alcotest.fail "decoded to a non-run body"
  | Error e -> Alcotest.fail ("old-format frame rejected: " ^ e));
  (* default params encode without the new fields: byte-compatible with
     pre-N-version servers *)
  let enc p = Protocol.encode_request { Protocol.rid = 1; body = Protocol.Run p } in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "default encode omits replicas" false
    (contains (enc Protocol.default_run) "replicas");
  let nv =
    {
      Protocol.default_run with
      Protocol.replicas = 3;
      families = [ "pad-jitter"; "segment-base" ];
      vote = Config.Majority;
    }
  in
  let line = enc nv in
  Alcotest.(check bool) "non-default encode ships replicas" true
    (contains line "\"replicas\":3");
  match Protocol.decode_request line with
  | Ok { Protocol.body = Protocol.Run p; _ } ->
      Alcotest.(check int) "replicas round-trip" 3 p.Protocol.replicas;
      Alcotest.(check bool) "families round-trip" true
        (p.Protocol.families = [ "pad-jitter"; "segment-base" ]);
      Alcotest.(check bool) "vote round-trips" true (p.Protocol.vote = Config.Majority)
  | Ok _ -> Alcotest.fail "decoded to a non-run body"
  | Error e -> Alcotest.fail ("round-trip rejected: " ^ e)

(* ---- surface helpers ---- *)

let test_surface_helpers () =
  Alcotest.(check bool) "surface sweeps N=1..3" true (Surface.ns = [ 1; 2; 3 ]);
  Alcotest.(check bool) "family sets include the all-families cell" true
    (List.mem_assoc "all-families" Surface.family_sets);
  let c = Surface.cfg ~n:3 ~families:family_names () in
  Alcotest.(check int) "cfg carries N" 3 c.Config.replicas;
  (* Equation 3.1-style linear model: N replicas cost N times the
     single-replica overhead above 1 *)
  Alcotest.(check bool) "linear model at N=1 is the single overhead" true
    (abs_float (Surface.linear_overhead ~n:1 ~single:1.3 -. 1.3) < 1e-9);
  Alcotest.(check bool) "linear model at N=3" true
    (abs_float (Surface.linear_overhead ~n:3 ~single:1.3 -. 1.9) < 1e-9)

let suites =
  [
    ( "nversion",
      [
        Alcotest.test_case "family registry" `Quick test_registry;
        Alcotest.test_case "replica globals" `Quick test_replica_globals;
        Alcotest.test_case "majority subset of any-mismatch" `Slow
          test_majority_subset_of_any_mismatch;
        Alcotest.test_case "rx family recovery" `Quick test_rx_family_recovery;
        Alcotest.test_case "rx skips inapplicable" `Quick test_rx_skips_inapplicable_steps;
        Alcotest.test_case "salt bump evicts cleanly" `Quick
          (fun () -> Chaos.with_chaos None test_salt_bump_evicts_cleanly);
        Alcotest.test_case "config repr suffix" `Quick test_config_repr_nversion_suffix;
        Alcotest.test_case "protocol defaults and roundtrip" `Quick
          test_protocol_defaults_and_roundtrip;
        Alcotest.test_case "surface helpers" `Quick test_surface_helpers;
      ] );
    ( "nversion-properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_family_n_preserves_output; prop_all_families_both_modes ] );
  ]
