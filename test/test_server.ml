(* Serving-daemon tests (lib/server): wire-protocol round-trips
   (hand-written cases and qcheck encode∘decode = id over random
   requests/responses), framing over a real socketpair, token-bucket
   quotas, IR registration, and one end-to-end daemon exercising the
   socket path: boot on a Unix socket in a temp dir, serve golden /
   no-fault / fault-injected / forensics requests, compare verdicts
   against the in-process engine, then drain. *)

module Config = Dpmr_core.Config
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Engine = Dpmr_engine.Engine
module Protocol = Dpmr_server.Protocol
module Session = Dpmr_server.Session
module Server = Dpmr_server.Server
module Client = Dpmr_server.Client

let in_tmp_dir f =
  let dir = Filename.temp_file "dpmr_server_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) (fun () -> f dir)

(* ---- protocol round-trips ---- *)

let sample_runs =
  [
    Protocol.default_run;
    { Protocol.default_run with Protocol.golden = true; workload = "bzip2" };
    {
      Protocol.default_run with
      Protocol.kind = Some (Inject.Heap_array_resize 75);
      site = 3;
      mode = Config.Mds;
      diversity = Config.Pad_malloc 16;
      policy = Config.Temporal 0xff00L;
      forensics = true;
    };
    {
      Protocol.default_run with
      Protocol.kind = Some (Inject.Wild_store (-8));
      plain = true;
      diversity = Config.Pad_alloca 4;
      policy = Config.Static 0.25;
      budget = 123456789L;
      exp_seed = -1L;
      run_seed = Int64.max_int;
    };
    (* an explicit site reference (the dispatcher ships resolved sites) *)
    {
      Protocol.default_run with
      Protocol.kind = Some Inject.Immediate_free;
      site_ref = Some { Inject.func = "main"; block = "bb \"7\""; index = 12 };
      budget = 1000L;
    };
  ]

let sample_requests =
  List.mapi (fun i p -> { Protocol.rid = i; body = Protocol.Run p }) sample_runs
  @ [
      { Protocol.rid = 99; body = Protocol.Hello "tester \"quoted\" \n end" };
      { Protocol.rid = 100; body = Protocol.Register "func @main() {\n  ret\n}\n" };
      { Protocol.rid = 0; body = Protocol.Stats };
      { Protocol.rid = 7; body = Protocol.Drain };
      { Protocol.rid = 8; body = Protocol.Ping };
    ]

let sample_cls =
  {
    Experiment.sf = true;
    co = false;
    ndet = false;
    ddet = true;
    timeout = false;
    t2d = Some 1234L;
    cost = 987654321L;
    peak_heap = 8192;
  }

let sample_responses =
  [
    {
      Protocol.rrid = 1;
      reply =
        Protocol.Verdict
          { Protocol.cls = sample_cls; cached = true; wall_us = 42; vforensics = None };
    };
    {
      Protocol.rrid = 2;
      reply =
        Protocol.Verdict
          {
            Protocol.cls = { sample_cls with Experiment.t2d = None; timeout = true };
            cached = false;
            wall_us = 0;
            vforensics = Some "{\"schema\":\"dpmr-forensics/1\"}";
          };
    };
    { Protocol.rrid = 3; reply = Protocol.Registered "@ir/0123456789abcdef" };
    { Protocol.rrid = 4; reply = Protocol.Stats_json "{\"served\": 1}" };
    { Protocol.rrid = 5; reply = Protocol.Ack "pong" };
    {
      Protocol.rrid = 6;
      reply = Protocol.Error (Protocol.Quota, "rate limit \"exceeded\"\n");
    };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok req' ->
          Alcotest.(check bool) "request round-trips" true (req = req')
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      match Protocol.decode_response (Protocol.encode_response resp) with
      | Ok resp' ->
          Alcotest.(check bool) "response round-trips" true (resp = resp')
      | Error msg -> Alcotest.failf "decode failed: %s" msg)
    sample_responses

let test_version_check () =
  let bumped =
    Printf.sprintf "{\"v\":%d,\"id\":1,\"t\":\"ping\"}" (Protocol.version + 1)
  in
  (match Protocol.decode_request bumped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version must be rejected");
  match Protocol.decode_request "{\"id\":1,\"t\":\"ping\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing version must be rejected"

(* A resize keeps 1-99% of the request: below 1 the count wraps to a
   huge unsigned allocation, from 100 up the array does not shrink. *)
let test_resize_range () =
  let frame kind =
    Printf.sprintf "{\"v\":%d,\"id\":3,\"t\":\"run\",\"workload\":\"bzip2\",\"kind\":\"%s\"}"
      Protocol.version kind
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " refused") true
        (Result.is_error (Protocol.decode_request (frame kind))))
    [ "resize--50"; "resize-0"; "resize-100"; "resize-150" ];
  let req =
    {
      Protocol.rid = 3;
      body =
        Protocol.Run
          { Protocol.default_run with Protocol.kind = Some (Inject.Heap_array_resize 75) };
    }
  in
  Alcotest.(check bool) "resize-75 round-trips" true
    (Protocol.decode_request (Protocol.encode_request req) = Ok req);
  Alcotest.(check bool) "resize-75 frame decodes" true
    (Result.is_ok (Protocol.decode_request (frame "resize-75")))

(* qcheck: encode∘decode = id over random run requests *)

let gen_run =
  let open QCheck.Gen in
  let gen_kind =
    oneof
      [
        return None;
        return (Some Inject.Immediate_free);
        return (Some Inject.Off_by_one);
        map (fun p -> Some (Inject.Heap_array_resize p)) (int_range 1 99);
        map (fun o -> Some (Inject.Wild_store o)) (int_range (-64) 64);
      ]
  in
  let gen_div =
    oneof
      [
        return Config.No_diversity;
        return Config.Zero_before_free;
        return Config.Rearrange_heap;
        map (fun n -> Config.Pad_malloc n) (int_range 1 64);
        map (fun n -> Config.Pad_alloca n) (int_range 1 64);
        return Config.Layout_perm;
        return Config.Pad_jitter;
      ]
  in
  let gen_policy =
    oneof
      [
        return Config.All_loads;
        map (fun m -> Config.Temporal m) (map Int64.of_int int);
        (* [Static] uses a hex float atom: any float round-trips *)
        map (fun f -> Config.Static f) (float_bound_inclusive 1.);
      ]
  in
  let gen_i64 = map Int64.of_int int in
  gen_kind >>= fun kind ->
  gen_div >>= fun diversity ->
  gen_policy >>= fun policy ->
  gen_i64 >>= fun exp_seed ->
  gen_i64 >>= fun run_seed ->
  gen_i64 >>= fun cfg_seed ->
  map Int64.abs gen_i64 >>= fun budget ->
  oneofl [ "art"; "bzip2"; "equake"; "mcf"; "@ir/0011223344556677" ]
  >>= fun workload ->
  int_range 1 8 >>= fun scale ->
  int_range 0 30 >>= fun site ->
  bool >>= fun golden ->
  bool >>= fun plain ->
  bool >>= fun forensics ->
  oneofl [ Config.Sds; Config.Mds ] >>= fun mode ->
  oneof
    [
      return None;
      map3
        (fun func block index -> Some { Inject.func; block; index })
        (oneofl [ "main"; "compress"; "f0" ])
        (oneofl [ "entry"; "bb3"; "loop.body" ])
        (int_range 0 99);
    ]
  >>= fun site_ref ->
  return
    {
      Protocol.workload;
      scale;
      exp_seed;
      run_seed;
      budget;
      golden;
      plain;
      kind;
      site;
      site_ref;
      mode;
      diversity;
      policy;
      cfg_seed;
      forensics;
    }

let arb_request =
  QCheck.make
    ~print:(fun r -> Protocol.encode_request r)
    QCheck.Gen.(
      map2
        (fun rid p -> { Protocol.rid; body = Protocol.Run p })
        (int_range 0 1_000_000) gen_run)

let test_qcheck_roundtrip =
  QCheck.Test.make ~name:"protocol: encode/decode request = id" ~count:300
    arb_request (fun req ->
      match Protocol.decode_request (Protocol.encode_request req) with
      | Ok req' -> req = req'
      | Error _ -> false)

(* ---- framing over a real socket ---- *)

let test_framing_socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payloads = [ ""; "x"; String.make 70_000 'y'; "{\"v\":1}" ] in
  let writer = Domain.spawn (fun () -> List.iter (Protocol.write_frame a) payloads) in
  List.iter
    (fun expect ->
      match Protocol.read_frame b with
      | Some got -> Alcotest.(check string) "frame round-trips" expect got
      | None -> Alcotest.fail "unexpected EOF")
    payloads;
  Domain.join writer;
  Unix.close a;
  Alcotest.(check (option string)) "clean EOF reads as None" None
    (Protocol.read_frame b);
  Unix.close b

(* ---- token bucket ---- *)

let test_quota () =
  let s = Session.create ~quota_rps:1000. ~quota_burst:5 () in
  let admitted = List.init 20 (fun _ -> Session.admit s) in
  let yes = List.length (List.filter Fun.id admitted) in
  Alcotest.(check bool) "burst admitted, overflow rejected" true (yes >= 5 && yes < 20);
  Alcotest.(check int) "rejections counted" (20 - yes) s.Session.rejected;
  (* refill: after 10ms at 1000 rps there are tokens again *)
  Unix.sleepf 0.02;
  Alcotest.(check bool) "bucket refills" true (Session.admit s);
  let unlimited = Session.create () in
  Alcotest.(check bool) "rate 0 = unlimited" true
    (List.for_all Fun.id (List.init 100 (fun _ -> Session.admit unlimited)))

(* ---- IR registration ---- *)

let test_register_ir () =
  let src = Dpmr_ir.Text.emit (Dpmr_workloads.Micro.linked_list ()) in
  match Session.register_ir src with
  | Error msg -> Alcotest.failf "valid IR rejected: %s" msg
  | Ok name ->
      Alcotest.(check bool) "content-addressed name" true
        (String.length name = 20 && String.sub name 0 4 = "@ir/");
      (match Session.register_ir src with
      | Ok name' -> Alcotest.(check string) "same source, same name" name name'
      | Error msg -> Alcotest.failf "re-registration failed: %s" msg);
      (match Session.register_ir "func @main( {" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage IR accepted");
      (* the registered name runs through the ordinary workload path *)
      let entry = Dpmr_workloads.Workloads.find name in
      let prog = entry.Dpmr_workloads.Workloads.build ~scale:1 () in
      let r = Dpmr_core.Dpmr.run_plain ~seed:1L prog in
      Alcotest.(check bool) "registered program runs" true
        (Int64.compare r.Dpmr_vm.Outcome.cost 0L > 0)

(* ---- end-to-end daemon ---- *)

let run_req workload variant_kind =
  {
    Protocol.default_run with
    Protocol.workload;
    exp_seed = 42L;
    run_seed = 43L;
    cfg_seed = 42L;
    golden = (variant_kind = `Golden);
    kind = (match variant_kind with `Fi k -> Some k | _ -> None);
  }

let expect_verdict = function
  | Protocol.Verdict v -> v
  | Protocol.Error (code, msg) ->
      Alcotest.failf "request rejected (%s): %s" (Protocol.error_code_to_string code)
        msg
  | _ -> Alcotest.fail "expected a verdict"

let test_daemon_end_to_end () =
  in_tmp_dir @@ fun dir ->
  let engine =
    Engine.create ~jobs:2 ~use_cache:true ~cache_dir:(Filename.concat dir "cache") ()
  in
  let sock = Filename.concat dir "t.sock" in
  let cfg = { Server.default_config with Server.listen = Server.Unix_sock sock } in
  let t = Server.create ~cfg engine in
  let ready = Atomic.make false in
  let srv = Domain.spawn (fun () -> Server.serve ~ready:(fun () -> Atomic.set ready true) t) in
  while not (Atomic.get ready) do
    Unix.sleepf 0.01
  done;
  let c = Client.connect_unix sock in
  (match Client.hello c "test_server" with
  | Protocol.Ack _ -> ()
  | _ -> Alcotest.fail "hello not acked");
  (* golden, DPMR no-fault, fault-injected: each answered and each equal
     to the same spec computed through the in-process resolution path *)
  List.iter
    (fun p ->
      let v = expect_verdict (Client.run c p) in
      let local = expect_verdict (Server.run_one t p) in
      Alcotest.(check bool) "socket verdict = in-process verdict" true
        (v.Protocol.cls = local.Protocol.cls))
    [
      run_req "mcf" `Golden;
      run_req "mcf" `Nofi;
      run_req "mcf" (`Fi Inject.Immediate_free);
      run_req "art" (`Fi (Inject.Heap_array_resize 50));
    ];
  (* repeat submission is served from the federated cache *)
  let v = expect_verdict (Client.run c (run_req "mcf" `Nofi)) in
  Alcotest.(check bool) "repeat submission hits the cache" true v.Protocol.cached;
  (* forensics riders carry a report *)
  let vf =
    expect_verdict
      (Client.run c { (run_req "mcf" (`Fi Inject.Immediate_free)) with
                      Protocol.forensics = true })
  in
  (match vf.Protocol.vforensics with
  | Some j ->
      Alcotest.(check bool) "forensics JSON has schema marker" true
        (let sub = "dpmr-forensics/1" in
         let rec find i =
           i + String.length sub <= String.length j
           && (String.sub j i (String.length sub) = sub || find (i + 1))
         in
         find 0)
  | None -> Alcotest.fail "forensics requested but absent");
  (* unknown workloads are a typed error, not a hangup *)
  (match Client.run c { Protocol.default_run with Protocol.workload = "nope" } with
  | Protocol.Error (Protocol.Unknown_workload, _) -> ()
  | Protocol.Error (code, msg) ->
      Alcotest.failf "wrong error (%s): %s" (Protocol.error_code_to_string code) msg
  | _ -> Alcotest.fail "unknown workload must be rejected");
  (* register textual IR, then run it by its minted name *)
  (match Client.register c (Dpmr_ir.Text.emit (Dpmr_workloads.Micro.binary_tree ())) with
  | Protocol.Registered name ->
      let v =
        expect_verdict
          (Client.run c { Protocol.default_run with Protocol.workload = name })
      in
      Alcotest.(check bool) "registered program produces a verdict" true
        (Int64.compare v.Protocol.cls.Experiment.cost 0L > 0)
  | _ -> Alcotest.fail "registration failed");
  (* stats are JSON with our schema marker *)
  (match Client.stats c with
  | Protocol.Stats_json j ->
      Alcotest.(check bool) "stats mention the schema" true
        (String.length j > 0 && j.[0] = '{')
  | _ -> Alcotest.fail "stats failed");
  (* drain: acked, then new runs are refused, then the server exits *)
  (match Client.drain c with
  | Protocol.Ack _ -> ()
  | _ -> Alcotest.fail "drain not acked");
  (match Client.run c (run_req "mcf" `Nofi) with
  | Protocol.Error (Protocol.Draining, _) -> ()
  | _ -> Alcotest.fail "draining server must refuse runs");
  Client.close c;
  Domain.join srv;
  Alcotest.(check bool) "socket removed on drain" false (Sys.file_exists sock);
  Engine.close engine

let boot ?(cfg = Server.default_config) dir name =
  let engine =
    Engine.create ~jobs:2 ~use_cache:true
      ~cache_dir:(Filename.concat dir (name ^ ".cache"))
      ()
  in
  let sock = Filename.concat dir (name ^ ".sock") in
  let cfg = { cfg with Server.listen = Server.Unix_sock sock } in
  let t = Server.create ~cfg engine in
  let ready = Atomic.make false in
  let d = Domain.spawn (fun () -> Server.serve ~ready:(fun () -> Atomic.set ready true) t) in
  while not (Atomic.get ready) do
    Unix.sleepf 0.01
  done;
  (t, d, engine, sock)

let stop (t, d, engine, _) =
  Server.request_drain t;
  Domain.join d;
  Engine.close engine

let test_batch_round_trip () =
  in_tmp_dir @@ fun dir ->
  let ((t, _, _, sock) as srv) = boot dir "batch" in
  Fun.protect ~finally:(fun () -> stop srv) @@ fun () ->
  let c = Client.connect_unix sock in
  let params =
    [
      run_req "mcf" `Golden;
      run_req "mcf" `Nofi;
      { Protocol.default_run with Protocol.workload = "nope" };
      run_req "mcf" (`Fi Inject.Immediate_free);
    ]
  in
  let replies = Client.run_batch c params in
  Alcotest.(check int) "one reply per batch item" (List.length params)
    (List.length replies);
  List.iteri
    (fun i (p, reply) ->
      match (i, reply) with
      | 2, Protocol.Error (Protocol.Unknown_workload, _) -> ()
      | 2, _ -> Alcotest.fail "bad batch item must fail alone, in its slot"
      | _, _ ->
          let v = expect_verdict reply in
          let local = expect_verdict (Server.run_one t p) in
          Alcotest.(check bool)
            (Printf.sprintf "batch verdict %d = in-process verdict" i)
            true
            (v.Protocol.cls = local.Protocol.cls))
    (List.combine params replies);
  (* a zero-length batch header is malformed: typed error, not a hang *)
  (match Client.call c (Protocol.Batch 0) with
  | Protocol.Error (Protocol.Bad_request, _) -> ()
  | _ -> Alcotest.fail "empty batch header must be rejected");
  Client.close c

let test_max_conns_busy () =
  in_tmp_dir @@ fun dir ->
  let ((_, _, _, sock) as srv) =
    boot ~cfg:{ Server.default_config with Server.max_conns = 1 } dir "busy"
  in
  Fun.protect ~finally:(fun () -> stop srv) @@ fun () ->
  let c1 = Client.connect_unix sock in
  (match Client.hello c1 "first" with
  | Protocol.Ack _ -> ()
  | _ -> Alcotest.fail "first connection must be served");
  (* the second connection is told why, with a typed error — never a
     silent hangup.  The refusal frame is pushed at accept time, so read
     it without writing (the server end is already closed). *)
  let c2 = Client.connect_unix sock in
  (match c2.Client.fd with
  | None -> Alcotest.fail "over-limit client lost its socket"
  | Some fd -> (
      match Protocol.read_frame fd with
      | Some payload -> (
          match Protocol.decode_response payload with
          | Ok { Protocol.reply = Protocol.Error (Protocol.Busy, msg); _ } ->
              Alcotest.(check bool) "mentions the limit" true (String.length msg > 0)
          | Ok _ -> Alcotest.fail "over-limit client must get a Busy error"
          | Error e -> Alcotest.failf "malformed refusal frame: %s" e)
      | None -> Alcotest.fail "over-limit client must get a Busy frame, not a hangup"));
  Client.close c2;
  (* capacity frees when the first client leaves; until the server has
     noticed, a new client is refused, and its ping either reads the
     Busy frame or fails to write to the already-closed socket *)
  Client.close c1;
  let rec retry n =
    let c3 = Client.connect_unix sock in
    let served =
      match Client.ping c3 with
      | Protocol.Ack _ -> true
      | _ | (exception (Protocol.Closed | Unix.Unix_error _)) -> false
    in
    Client.close c3;
    if not served then
      if n > 0 then begin
        Unix.sleepf 0.02;
        retry (n - 1)
      end
      else Alcotest.fail "slot must free after disconnect"
  in
  retry 100

let test_client_reconnect () =
  (* a crashy mini-server: hangs up on its first two requests without
     replying, then serves pings properly.  A client with a reconnect
     budget must retransmit through both crashes; one without must
     fail fast. *)
  in_tmp_dir @@ fun dir ->
  let sock = Filename.concat dir "crashy.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 8;
  let srv =
    Domain.spawn (fun () ->
        (* two abrupt hangups *)
        for _ = 1 to 2 do
          let cfd, _ = Unix.accept lfd in
          ignore (Protocol.read_frame cfd);
          Unix.close cfd
        done;
        (* then an honest ping server *)
        let cfd, _ = Unix.accept lfd in
        let rec loop () =
          match Protocol.read_frame cfd with
          | None -> ()
          | Some payload ->
              (match Protocol.decode_request payload with
              | Ok { Protocol.rid; body = Protocol.Ping } ->
                  Protocol.write_frame cfd
                    (Protocol.encode_response
                       { Protocol.rrid = rid; reply = Protocol.Ack "pong" })
              | _ -> ());
              loop ()
        in
        loop ();
        Unix.close cfd;
        Unix.close lfd)
  in
  let c = Client.connect_unix ~reconnect:5 sock in
  (match Client.ping c with
  | Protocol.Ack _ -> ()
  | _ -> Alcotest.fail "ping must survive two server crashes via reconnect");
  Client.close c;
  Domain.join srv

let test_client_no_reconnect_fails_fast () =
  in_tmp_dir @@ fun dir ->
  let sock = Filename.concat dir "once.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 8;
  let srv =
    Domain.spawn (fun () ->
        let cfd, _ = Unix.accept lfd in
        ignore (Protocol.read_frame cfd);
        Unix.close cfd;
        Unix.close lfd)
  in
  let c = Client.connect_unix sock in
  (match Client.ping c with
  | exception (Protocol.Closed | Unix.Unix_error _) -> ()
  | _ -> Alcotest.fail "default client must surface the hangup");
  Client.close c;
  Domain.join srv

(* a report stopped by SIGINT/SIGTERM exits like any signalled process
   in a shell: 128 + the POSIX number, not + OCaml's negative constant *)
let test_drain_exit_status () =
  Alcotest.(check int) "SIGINT" 130 (Dpmr_server.Drain.exit_status Sys.sigint);
  Alcotest.(check int) "SIGTERM" 143 (Dpmr_server.Drain.exit_status Sys.sigterm)

let suites =
  [
    ( "server/protocol",
      [
        Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
        Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
        Alcotest.test_case "version check" `Quick test_version_check;
        Alcotest.test_case "resize share range" `Quick test_resize_range;
        QCheck_alcotest.to_alcotest test_qcheck_roundtrip;
        Alcotest.test_case "framing over socketpair" `Quick test_framing_socketpair;
      ] );
    ( "server/session",
      [
        Alcotest.test_case "token bucket" `Quick test_quota;
        Alcotest.test_case "register IR" `Quick test_register_ir;
      ] );
    ( "server/daemon",
      [
        Alcotest.test_case "end to end over unix socket" `Quick test_daemon_end_to_end;
        Alcotest.test_case "batch round-trip" `Quick test_batch_round_trip;
        Alcotest.test_case "max-conns refuses with busy" `Quick test_max_conns_busy;
        Alcotest.test_case "client reconnects through crashes" `Quick
          test_client_reconnect;
        Alcotest.test_case "client without budget fails fast" `Quick
          test_client_no_reconnect_fails_fast;
        Alcotest.test_case "signal exit status" `Quick test_drain_exit_status;
      ] );
  ]
