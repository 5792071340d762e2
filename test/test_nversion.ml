(* Tests of the layout-perm and pad-jitter diversities beyond the
   transform suites: the one parser per variant atom (diversity, policy,
   fault kind) under the CLI and the wire,
   output preservation for each in both designs (differential qcheck),
   replica-global structure, and cache / wire-protocol compatibility. *)

open Dpmr_ir
open Types
open Inst
module B = Builder
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome
module Experiment = Dpmr_fi.Experiment
module Job = Dpmr_engine.Job
module Cache = Dpmr_engine.Cache
module Chaos = Dpmr_engine.Chaos
module Protocol = Dpmr_server.Protocol
module Inject = Dpmr_fi.Inject
module Workloads = Dpmr_workloads.Workloads

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* a run frame with the given extra fields *)
let frame extra =
  "{\"v\":1,\"id\":7,\"t\":\"run\",\"workload\":\"mcf\",\"scale\":1,\"eseed\":42,\
   \"rseed\":42,\"budget\":0,\"mode\":\"sds\",\"policy\":\"all-loads\",\"cseed\":42" ^ extra
  ^ "}"

(* ---- the one diversity parser ---- *)

let test_diversity_parser () =
  let parses s d =
    Alcotest.(check (option string))
      (s ^ " parses") (Some (Config.diversity_name d))
      (Option.map Config.diversity_name (Config.diversity_of_string s))
  in
  List.iter
    (fun d -> parses (Config.diversity_name d) d)
    Config.
      [
        No_diversity; Pad_malloc 0; Pad_malloc 16; Zero_before_free; Rearrange_heap;
        Pad_alloca 16; Layout_perm; Pad_jitter;
      ];
  parses "none" Config.No_diversity;
  parses "pad-16" (Config.Pad_malloc 16);
  parses "pad-stack-16" (Config.Pad_alloca 16);
  (* a negative pad shrinks the replica below the application's request,
     so a fault-free run would detect *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " refused") true (Config.diversity_of_string s = None))
    [ "pad--16"; "pad-malloc--16"; "pad-stack--1"; "pad-alloca--1"; "pad-x"; "pad-"; "pad-+8";
      "pad-0x10"; "segment-base"; "bogus" ];
  Alcotest.(check bool) "negative pad frame refused" true
    (Result.is_error
       (Protocol.decode_request (frame ",\"diversity\":\"pad-malloc--16\"")));
  Alcotest.(check bool) "CLI spelling decodes on the wire" true
    (Result.is_ok (Protocol.decode_request (frame ",\"diversity\":\"pad-stack-16\"")))

(* ---- one parser per policy and fault-kind atom ---- *)

(* the status and stdout of the CLI binary on [args] *)
let cli args =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/dpmr_cli.exe"
  in
  let out, inp, err =
    Unix.open_process_args_full exe (Array.of_list (exe :: args)) (Unix.environment ())
  in
  close_out inp;
  let stdout = In_channel.input_all out in
  ignore (In_channel.input_all err);
  (Unix.close_process_full (out, inp, err), stdout)

let test_atom_parsers () =
  let wire field s =
    match
      Protocol.decode_request
        (Printf.sprintf "{\"v\":1,\"id\":9,\"t\":\"run\",\"%s\":\"%s\"}" field s)
    with
    | Ok { Protocol.body = Protocol.Run p; _ } -> Some p
    | _ -> None
  in
  let policy = Alcotest.testable (Fmt.of_to_string Config.policy_repr) ( = ) in
  List.iter
    (fun (s, expect) ->
      Alcotest.(check (option policy)) (s ^ " parses") expect (Config.policy_of_string s);
      Alcotest.(check (option policy)) (s ^ " on the wire") expect
        (Option.map (fun p -> p.Protocol.policy) (wire "policy" s)))
    Config.
      [
        ("all-loads", Some All_loads);
        ("temporal-1/8", Some (Temporal temporal_mask_1_8));
        ("temporal-1/2", Some (Temporal temporal_mask_1_2));
        ("temporal-7/8", Some (Temporal temporal_mask_7_8));
        ("temporal-aaaaaaaaaaaaaaaa", Some (Temporal temporal_mask_1_2));
        ("static-10", Some (Static 0.10));
        ("static-0", Some (Static 0.));
        ("static-0x1.999999999999ap-4", Some (Static 0.10));
        (* one meaning per spelling: no other decimal, hex or signed form *)
        ("static-0.1", None);
        ("static-0x10", None);
        ("static--5", None);
        ("temporal-AAAAAAAAAAAAAAAA", None);
        ("temporal-1/3", None);
        ("bogus", None);
      ];
  let kind = Alcotest.testable (Fmt.of_to_string Inject.kind_repr) ( = ) in
  List.iter
    (fun (s, expect) ->
      Alcotest.(check (option kind)) (s ^ " parses") expect (Inject.kind_of_string s);
      Alcotest.(check (option kind)) (s ^ " on the wire") expect
        (Option.bind (wire "kind" s) (fun p -> p.Protocol.kind)))
    Inject.
      [
        ("resize", Some (Heap_array_resize 50));
        ("resize-1", Some (Heap_array_resize 1));
        ("resize-99", Some (Heap_array_resize 99));
        ("free", Some Immediate_free);
        ("off-by-one", Some Off_by_one);
        ("wild-store-4096", Some (Wild_store 4096));
        (* the share range is test_server's "resize share range" *)
        ("resize-0x10", None);
        ("wild-store-+8", None);
        ("bogus", None);
      ];
  (* the CLI calls the same parsers *)
  let mcf_ir policy =
    Text.emit
      (Dpmr.transform { Config.default with Config.policy }
         ((Workloads.find "mcf").Workloads.build ~scale:1 ()))
  in
  let ok = Alcotest.(pair bool string) in
  let transform policy =
    let status, out = cli [ "transform"; "mcf"; "--policy"; policy ] in
    (status = Unix.WEXITED 0, out)
  in
  Alcotest.check ok "CLI static-10 is the 10% build" (true, mcf_ir (Config.Static 0.10))
    (transform "static-10");
  Alcotest.check ok "CLI temporal-1/8" (true, mcf_ir (Config.Temporal Config.temporal_mask_1_8))
    (transform "temporal-1/8");
  Alcotest.check ok "CLI refuses static-0.1" (false, "") (transform "static-0.1");
  Alcotest.(check bool) "CLI inject --kind off-by-one runs" true
    (fst (cli [ "inject"; "art"; "--kind"; "off-by-one" ]) = Unix.WEXITED 0)

(* every repr parses back to its atom: random masks, random float bit
   patterns and fractions, every resize share and wild-store offset *)
let prop_atom_reprs_parse_back =
  QCheck.Test.make ~name:"policy and fault-kind reprs parse back" ~count:500
    QCheck.(triple int64 int64 int)
    (fun (mask, bits, n) ->
      let fraction = Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992. in
      List.for_all
        (fun p -> compare (Config.policy_of_string (Config.policy_repr p)) (Some p) = 0)
        Config.[ All_loads; Temporal mask; Static (Int64.float_of_bits bits); Static fraction ]
      && List.for_all
           (fun k -> Inject.kind_of_string (Inject.kind_repr k) = Some k)
           Inject.
             [
               Heap_array_resize (1 + ((n land max_int) mod 99));
               Immediate_free;
               Off_by_one;
               Wild_store n;
             ])

(* ---- differential property: each extension diversity alone
   preserves error-free output in both designs ---- *)

let preserves_output diversity ops =
  let p = Test_differential.build_prog ops in
  let golden = Dpmr.run_plain p in
  golden.Outcome.outcome = Outcome.Normal
  && List.for_all
       (fun mode ->
         let r = Dpmr.run_dpmr { Config.default with Config.mode; diversity } p in
         r.Outcome.outcome = Outcome.Normal && r.Outcome.output = golden.Outcome.output)
       [ Config.Sds; Config.Mds ]

let prop_family_preserves_output =
  QCheck.Test.make ~name:"random programs: every family alone, SDS and MDS, preserves output"
    ~count:8 Test_differential.arb_ops (fun ops ->
      List.for_all (fun d -> preserves_output d ops) [ Config.Layout_perm; Config.Pad_jitter ])

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
  let t = Dpmr.transform Config.default p in
  Verifier.check_prog t;
  Alcotest.(check bool) "keeps gv.rep" true (Prog.has_global t "gv.rep");
  Alcotest.(check bool) "has no gv.rep2" false (Prog.has_global t "gv.rep2")

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
      Cache.add c2 ~key:"00ac" ~spec_repr:"w=mcf;s=1;r=42;nofi-dpmr(sds,pad-jitter,all-loads,42)"
        some_cls;
      Cache.close c2;
      (* the equivalent of [dpmr cache verify]: zero damaged lines and
         full compaction to the current salt *)
      let d = Cache.disk_stats ~dir:test_dir ~salt:Job.default_salt () in
      Alcotest.(check int) "verify green: no damage" 0 d.Cache.damaged;
      Alcotest.(check int) "compacted to current salt" d.Cache.total d.Cache.current;
      Alcotest.(check int) "exactly the new record" 1 d.Cache.current)

let test_config_repr () =
  let spec cfg =
    let entry = Workloads.find "mcf" in
    let e =
      Experiment.make
        (Experiment.workload "mcf" (fun () -> entry.Workloads.build ~scale:1 ()))
    in
    Job.make e ~workload:"mcf" ~scale:1 ~run_seed:42L (Experiment.Nofi_dpmr cfg)
  in
  let jitter = { Config.default with Config.diversity = Config.Pad_jitter } in
  let perm = { Config.default with Config.diversity = Config.Layout_perm } in
  Alcotest.(check string) "pad-jitter repr" "sds,pad-jitter,all-loads,42" (Job.config_repr jitter);
  Alcotest.(check string) "layout-perm repr" "sds,layout-perm,all-loads,42" (Job.config_repr perm);
  List.iter
    (fun cfg ->
      let r = Job.repr (spec cfg) in
      Alcotest.(check bool) (r ^ " carries no replica count") false (contains r ",n=");
      Alcotest.(check bool) (r ^ " carries no families") false (contains r "fam=");
      Alcotest.(check bool) (r ^ " carries no vote") false (contains r "vote="))
    [ Config.default; jitter; perm ];
  Alcotest.(check bool) "distinct cache keys" true
    (Job.hash (spec Config.default) <> Job.hash (spec jitter)
    && Job.hash (spec jitter) <> Job.hash (spec perm))

(* ---- wire protocol compatibility ---- *)

let test_protocol_defaults_and_roundtrip () =
  (* a frame with no diversity, replicas or families field decodes to
     the paper's build *)
  (match Protocol.decode_request (frame "") with
  | Ok { Protocol.body = Protocol.Run p; _ } ->
      Alcotest.(check string) "workload decoded" "mcf" p.Protocol.workload;
      Alcotest.(check bool) "no diversity by default" true
        (p.Protocol.diversity = Config.No_diversity)
  | Ok _ -> Alcotest.fail "decoded to a non-run body"
  | Error e -> Alcotest.fail ("frame without replicas rejected: " ^ e));
  (* one replica is the only build: an explicit "replicas":1 still
     decodes, any other count is refused rather than served as a
     one-replica verdict *)
  Alcotest.(check bool) "explicit replicas 1 decodes" true
    (Result.is_ok (Protocol.decode_request (frame ",\"replicas\":1")));
  Alcotest.(check bool) "replicas 2 is refused" true
    (Result.is_error (Protocol.decode_request (frame ",\"replicas\":2")));
  (* diversity is one axis: an empty families field still decodes, a
     family name is refused rather than served as a build without it *)
  Alcotest.(check bool) "empty families decodes" true
    (Result.is_ok (Protocol.decode_request (frame ",\"families\":\"\"")));
  Alcotest.(check bool) "families is refused" true
    (Result.is_error (Protocol.decode_request (frame ",\"families\":\"pad-jitter\"")));
  let enc p = Protocol.encode_request { Protocol.rid = 1; body = Protocol.Run p } in
  let line = enc { Protocol.default_run with Protocol.diversity = Config.Layout_perm } in
  Alcotest.(check bool) "encode ships no families" false (contains line "families");
  Alcotest.(check bool) "encode ships no replicas" false (contains line "replicas");
  Alcotest.(check bool) "encode ships no vote" false (contains line "vote");
  (match Protocol.decode_request line with
  | Ok { Protocol.body = Protocol.Run p; _ } ->
      Alcotest.(check bool) "layout-perm round-trips" true
        (p.Protocol.diversity = Config.Layout_perm)
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
        Alcotest.test_case "diversity parser" `Quick test_diversity_parser;
        Alcotest.test_case "policy and fault-kind parsers" `Quick test_atom_parsers;
        Alcotest.test_case "replica globals" `Quick test_replica_globals;
        Alcotest.test_case "salt bump evicts cleanly" `Quick
          (fun () -> Chaos.with_chaos None test_salt_bump_evicts_cleanly);
        Alcotest.test_case "config repr suffix" `Quick test_config_repr;
        Alcotest.test_case "protocol defaults and roundtrip" `Quick
          test_protocol_defaults_and_roundtrip;
      ] );
    ( "nversion-properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_family_preserves_output; prop_atom_reprs_parse_back ] );
  ]
