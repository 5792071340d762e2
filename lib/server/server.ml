(** The resident DPMR daemon: detection verdicts as a service.

    One process holds one {!Engine} with a resident worker pool and the
    sharded result cache open, and serves protocol requests over a
    Unix-domain or TCP socket.  The accept loop runs on the main
    domain; each connection gets a handler domain that reads frames,
    validates and resolves them, and hands execution to the engine:

    - cache-known specs are answered on the handler domain itself
      (the engine's batch path serves hits before touching the pool),
      so hot keys never pay a pool round-trip;
    - misses execute on the shared pool under the supervisor
      (per-request deadline, retry/backoff, quarantine), exactly like a
      batch campaign — verdicts are byte-for-byte the batch CLI's;
    - per-client token buckets reject over-rate requests with a [quota]
      error before any work is done.

    Graceful drain: SIGTERM/SIGINT (or a [drain] request) stops
    admission, lets in-flight requests finish, flushes the cache and
    returns from {!serve}. *)

module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Fi_forensics = Dpmr_fi.Forensics
module Engine = Dpmr_engine.Engine
module Job = Dpmr_engine.Job
module Telemetry = Dpmr_engine.Telemetry
module Chaos = Dpmr_engine.Chaos

type listen = Unix_sock of string | Tcp of string * int

let pp_listen = function
  | Unix_sock p -> Printf.sprintf "unix:%s" p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type config = {
  listen : listen;
  max_conns : int;  (** concurrent connections (each one handler domain) *)
  quota_rps : float;  (** per-connection token refill; [<= 0] = unlimited *)
  quota_burst : int;
  drain_grace : float;  (** seconds to wait for in-flight connections on drain *)
  verbose : bool;
  allow_chaos_kill : bool;
      (** permit [Wire_kill] chaos to [_exit] the process — only safe in
          a standalone daemon; in-process test servers downgrade the
          kill to a connection reset *)
}

let default_config =
  {
    listen = Unix_sock "dpmr.sock";
    max_conns = 16;
    quota_rps = 0.;
    quota_burst = 64;
    drain_grace = 30.;
    verbose = false;
    allow_chaos_kill = false;
  }

type t = {
  engine : Engine.t;
  cfg : config;
  draining : bool Atomic.t;
  conns : int Atomic.t;
  served : int Atomic.t;  (** requests answered, errors included *)
  errors : int Atomic.t;
  quota_rejects : int Atomic.t;
  (* golden-derived facts (budget, site lists) per experiment identity:
     resolved once on first request, shared by every connection.  Values
     are plain data, safe to cross domains — unlike the experiment
     contexts themselves, which stay in each worker's DLS. *)
  budgets : (string, int64) Hashtbl.t;
  sites : (string, Inject.site array) Hashtbl.t;
  meta_mu : Mutex.t;
  (* wire-chaos attempt counters: how many times each request identity
     was served, so the burst rule guarantees a retrying peer clean
     service eventually *)
  wire_attempts : (string, int) Hashtbl.t;
  wire_mu : Mutex.t;
}

let create ?(cfg = default_config) engine =
  {
    engine;
    cfg = { cfg with max_conns = max 1 (min 64 cfg.max_conns) };
    draining = Atomic.make false;
    conns = Atomic.make 0;
    served = Atomic.make 0;
    errors = Atomic.make 0;
    quota_rejects = Atomic.make 0;
    budgets = Hashtbl.create 16;
    sites = Hashtbl.create 16;
    meta_mu = Mutex.create ();
    wire_attempts = Hashtbl.create 64;
    wire_mu = Mutex.create ();
  }

let draining t = Atomic.get t.draining
let request_drain t = Atomic.set t.draining true

let logf t fmt =
  Printf.ksprintf
    (fun m -> if t.cfg.verbose then Printf.eprintf "[dpmr_serve] %s\n%!" m)
    fmt

(* ---------------- request resolution ---------------- *)

exception Reject of Protocol.error_code * string

let exp_key (p : Protocol.run_params) =
  Printf.sprintf "%s\x00%d\x00%Ld" p.workload p.scale p.exp_seed

(** The spec used only to locate/build the experiment context on a
    worker; variant and seeds are irrelevant to the context key. *)
let probe_spec (p : Protocol.run_params) =
  {
    Job.workload = p.workload;
    scale = p.scale;
    exp_seed = p.exp_seed;
    run_seed = p.exp_seed;
    budget = 0L;
    variant = Experiment.Golden;
  }

(** Budget (and, when [kind] is given, the injection-site list) of the
    request's experiment, resolved by one engine task on first use and
    memoized.  Building the context takes the golden run, so an unknown
    workload or a failing program surfaces here — before the request is
    admitted to the run path. *)
let resolve_meta t (p : Protocol.run_params) kind =
  let bkey = exp_key p in
  let skey = Option.map (fun k -> bkey ^ "\x00" ^ Inject.kind_repr k) kind in
  let cached =
    Mutex.protect t.meta_mu (fun () ->
        match (Hashtbl.find_opt t.budgets bkey, skey) with
        | Some b, None -> Some (b, [||])
        | Some b, Some sk -> (
            match Hashtbl.find_opt t.sites sk with
            | Some s -> Some (b, s)
            | None -> None)
        | None, _ -> None)
  in
  match cached with
  | Some r -> r
  | None -> (
      let task () =
        let e = Engine.experiment_for (probe_spec p) in
        let sites =
          match kind with
          | Some k -> Array.of_list (Experiment.sites e k)
          | None -> [||]
        in
        (e.Experiment.budget, sites)
      in
      match Engine.run_tasks t.engine [ task ] with
      | [ (budget, sites) ] ->
          Mutex.protect t.meta_mu (fun () ->
              Hashtbl.replace t.budgets bkey budget;
              Option.iter (fun sk -> Hashtbl.replace t.sites sk sites) skey);
          (budget, sites)
      | _ -> raise (Reject (Protocol.Internal, "meta resolution returned no result"))
      | exception Invalid_argument msg -> raise (Reject (Protocol.Unknown_workload, msg))
      | exception Failure msg -> raise (Reject (Protocol.Bad_request, msg)))

let spec_of_params t (p : Protocol.run_params) =
  let variant =
    if p.golden then Experiment.Golden
    else
      match p.kind with
      | None ->
          if p.plain then Experiment.Golden else Experiment.Nofi_dpmr (Protocol.config_of p)
      | Some k -> (
          (* an explicit site needs no site-list resolution: the
             dispatcher ships sites it already resolved, so a worker
             can serve the job without a golden-run round-trip *)
          match p.site_ref with
          | Some site ->
              if p.plain then Experiment.Fi_stdapp (k, site)
              else Experiment.Fi_dpmr (Protocol.config_of p, k, site)
          | None ->
              let _, sites = resolve_meta t p (Some k) in
              if p.site < 0 || p.site >= Array.length sites then
                raise
                  (Reject
                     ( Protocol.Bad_request,
                       Printf.sprintf "no such site %d for kind %s (have %d)" p.site
                         (Inject.kind_repr k) (Array.length sites) ))
              else if p.plain then Experiment.Fi_stdapp (k, sites.(p.site))
              else Experiment.Fi_dpmr (Protocol.config_of p, k, sites.(p.site)))
  in
  let budget =
    if Int64.compare p.budget 0L > 0 then p.budget else fst (resolve_meta t p None)
  in
  {
    Job.workload = p.workload;
    scale = p.scale;
    exp_seed = p.exp_seed;
    run_seed = p.run_seed;
    budget;
    variant;
  }

let run_forensics t spec (p : Protocol.run_params) =
  let task () =
    let e = Engine.experiment_for spec in
    let e =
      if Int64.equal e.Experiment.budget spec.Job.budget then e
      else { e with Experiment.budget = spec.Job.budget }
    in
    let tr = Fi_forensics.run_variant ~seed:p.run_seed e spec.Job.variant in
    (tr.Fi_forensics.classification, Fi_forensics.to_json tr)
  in
  match Engine.run_tasks t.engine [ task ] with
  | [ (cls, json) ] -> (cls, Some json)
  | _ -> raise (Reject (Protocol.Internal, "forensics task returned no result"))

let run_one t (p : Protocol.run_params) =
  let t0 = Unix.gettimeofday () in
  let spec = spec_of_params t p in
  let cached = Engine.cache_mem t.engine spec in
  let cls, forensics =
    if p.forensics then run_forensics t spec p
    else
      match Engine.run_specs_r t.engine [ spec ] with
      | [ Experiment.Run cls ] -> (cls, None)
      | [ Experiment.Job_failed f ] ->
          raise
            (Reject
               ( Protocol.Failed,
                 Printf.sprintf "%s after %d attempt(s): %s" f.Experiment.fail_reason
                   f.Experiment.fail_attempts f.Experiment.fail_error ))
      | _ -> raise (Reject (Protocol.Internal, "engine returned no result"))
  in
  let wall_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  Protocol.Verdict { Protocol.cls; cached; wall_us; vforensics = forensics }

(* ---------------- stats ---------------- *)

let stats_json t =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"dpmr-serve-stats/1\",\n";
  add "  \"served\": %d,\n" (Atomic.get t.served);
  add "  \"errors\": %d,\n" (Atomic.get t.errors);
  add "  \"quota_rejects\": %d,\n" (Atomic.get t.quota_rejects);
  add "  \"connections\": %d,\n" (Atomic.get t.conns);
  add "  \"draining\": %b,\n" (Atomic.get t.draining);
  add "  \"telemetry\": %s" (String.trim
    (Telemetry.to_json (Engine.telemetry t.engine) ~workers:(Engine.jobs t.engine)
       ~cache:(Engine.cache_stats t.engine)
       ~tier:(Dpmr_vm.Vm.tier_stats ())));
  add "\n}\n";
  Buffer.contents b

(* ---------------- wire chaos ---------------- *)

(* Drop the connection deliberately (reset, or the tail of a torn
   frame); the handler treats it like any peer hang-up. *)
exception Chaos_drop

let wire_attempt t key =
  Mutex.protect t.wire_mu (fun () ->
      let n = Option.value ~default:0 (Hashtbl.find_opt t.wire_attempts key) in
      Hashtbl.replace t.wire_attempts key (n + 1);
      n)

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

(* A torn frame: the length prefix promises the whole payload but only
   the first half arrives before the connection drops — the peer must
   detect the mid-frame EOF, not mis-parse a short record. *)
let write_torn_frame cfd payload =
  let n = String.length payload in
  let keep = max 1 (n / 2) in
  let buf = Bytes.create (4 + keep) in
  Bytes.set_uint8 buf 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 buf 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 buf 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 buf 3 (n land 0xff);
  Bytes.blit_string payload 0 buf 4 keep;
  (try write_all cfd buf 0 (4 + keep) with Unix.Unix_error _ -> ())

(** Write one response frame, subject to wire chaos when [ckey] names a
    retriable request identity (verdict frames only — control replies
    stay reliable so probes measure host health, not chaos). *)
let send_reply t cfd ?index ?ckey resp =
  let payload = Protocol.encode_response ?index resp in
  match ckey with
  | None -> Protocol.write_frame cfd payload
  | Some key -> (
      match Chaos.wire_active () with
      | None -> Protocol.write_frame cfd payload
      | Some c -> (
          let attempt = wire_attempt t key in
          match Chaos.wire_plan c ~key ~attempt with
          | None -> Protocol.write_frame cfd payload
          | Some (Chaos.Wire_stall d) ->
              Unix.sleepf d;
              Protocol.write_frame cfd payload
          | Some Chaos.Wire_torn ->
              write_torn_frame cfd payload;
              raise Chaos_drop
          | Some Chaos.Wire_reset -> raise Chaos_drop
          | Some Chaos.Wire_kill ->
              if t.cfg.allow_chaos_kill then begin
                (* the worker dies mid-job: no reply, no cache flush, no
                   drain — exactly the failure quarantine + re-dispatch
                   (and the cache's torn-tail recovery) must absorb *)
                logf t "wire chaos: killing worker process";
                Unix._exit 137
              end
              else raise Chaos_drop))

let chaos_key_of_run (p : Protocol.run_params) =
  Protocol.encode_request { Protocol.rid = 0; body = Protocol.Run p }

(* ---------------- per-connection handling ---------------- *)

let handle t (session : Session.t) (req : Protocol.request) =
  let reply =
    match req.Protocol.body with
    | Protocol.Hello client ->
        session.Session.client <- client;
        Protocol.Ack (Printf.sprintf "dpmr_serve protocol v%d" Protocol.version)
    | Protocol.Ping -> Protocol.Ack "pong"
    | Protocol.Stats -> Protocol.Stats_json (stats_json t)
    | Protocol.Drain ->
        request_drain t;
        Protocol.Ack "draining"
    | Protocol.Register ir -> (
        match Session.register_ir ir with
        | Ok name -> Protocol.Registered name
        | Error msg -> Protocol.Error (Protocol.Bad_request, msg))
    | Protocol.Batch _ ->
        (* batches are framed at the connection level (header + n run
           frames); one reaching the single-request path is a peer bug *)
        Protocol.Error (Protocol.Bad_request, "batch header outside connection framing")
    | Protocol.Run p -> (
        if Atomic.get t.draining then
          Protocol.Error (Protocol.Draining, "server is draining; resubmit elsewhere")
        else if not (Session.admit session) then begin
          Atomic.incr t.quota_rejects;
          Protocol.Error (Protocol.Quota, "per-connection rate limit exceeded")
        end
        else
          try run_one t p with
          | Reject (code, msg) -> Protocol.Error (code, msg)
          | e -> Protocol.Error (Protocol.Internal, Printexc.to_string e))
  in
  session.Session.served <- session.Session.served + 1;
  Atomic.incr t.served;
  (match reply with Protocol.Error _ -> Atomic.incr t.errors | _ -> ());
  { Protocol.rrid = req.Protocol.rid; reply }

(* One scattered chunk: a batch header followed by [n] run frames,
   answered with [n] frames in input order (each tagged with the header
   rid and its batch index).  All admissible items execute as ONE engine
   batch, so the remote pool parallelism and snapshot-cell forking the
   dispatcher grouped them for actually happen; inadmissible items
   (draining, quota, bad request, unknown workload) answer with their
   own error frames and never poison the rest of the chunk. *)
let handle_batch t (session : Session.t) cfd ~rid n =
  let frames =
    Array.init n (fun _ ->
        match Protocol.read_frame cfd with
        | Some payload -> payload
        | None -> raise Protocol.Closed)
  in
  let t0 = Unix.gettimeofday () in
  let slots =
    Array.map
      (fun payload ->
        match Protocol.decode_request payload with
        | Error msg -> `Err (Protocol.Bad_request, msg)
        | Ok { Protocol.body = Protocol.Run p; _ } ->
            if p.Protocol.forensics then
              `Err (Protocol.Bad_request, "forensics runs are not batchable")
            else if Atomic.get t.draining then
              `Err (Protocol.Draining, "server is draining; resubmit elsewhere")
            else if not (Session.admit session) then begin
              Atomic.incr t.quota_rejects;
              `Err (Protocol.Quota, "per-connection rate limit exceeded")
            end
            else (
              try
                let spec = spec_of_params t p in
                `Spec (spec, Engine.cache_mem t.engine spec)
              with
              | Reject (code, msg) -> `Err (code, msg)
              | e -> `Err (Protocol.Internal, Printexc.to_string e))
        | Ok _ -> `Err (Protocol.Bad_request, "batch items must be run requests"))
      frames
  in
  let specs =
    Array.to_list slots
    |> List.filter_map (function `Spec (s, _) -> Some s | `Err _ -> None)
  in
  let outcomes = Array.of_list (Engine.run_specs_r t.engine specs) in
  let wall_us =
    int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) / max 1 (Array.length outcomes)
  in
  let next = ref 0 in
  Array.iteri
    (fun i slot ->
      let reply, ckey =
        match slot with
        | `Err (code, msg) -> (Protocol.Error (code, msg), None)
        | `Spec (spec, cached) -> (
            let r = outcomes.(!next) in
            incr next;
            match r with
            | Experiment.Run cls ->
                ( Protocol.Verdict { Protocol.cls; cached; wall_us; vforensics = None },
                  Some (Job.repr spec) )
            | Experiment.Job_failed f ->
                ( Protocol.Error
                    ( Protocol.Failed,
                      Printf.sprintf "%s after %d attempt(s): %s" f.Experiment.fail_reason
                        f.Experiment.fail_attempts f.Experiment.fail_error ),
                  Some (Job.repr spec) ))
      in
      session.Session.served <- session.Session.served + 1;
      Atomic.incr t.served;
      (match reply with Protocol.Error _ -> Atomic.incr t.errors | _ -> ());
      send_reply t cfd ~index:i ?ckey { Protocol.rrid = rid; reply })
    slots

let handle_conn t cfd =
  let session =
    Session.create ~quota_rps:t.cfg.quota_rps ~quota_burst:t.cfg.quota_burst ()
  in
  (try
     let rec loop () =
       match Protocol.read_frame cfd with
       | None -> ()
       | Some payload ->
           (match Protocol.decode_request payload with
           | Ok { Protocol.rid; body = Protocol.Batch n } ->
               handle_batch t session cfd ~rid n
           | Ok req ->
               let resp = handle t session req in
               let ckey =
                 match req.Protocol.body with
                 | Protocol.Run p -> Some (chaos_key_of_run p)
                 | _ -> None
               in
               send_reply t cfd ?ckey resp
           | Error msg ->
               Atomic.incr t.served;
               Atomic.incr t.errors;
               Protocol.write_frame cfd
                 (Protocol.encode_response
                    { Protocol.rrid = 0; reply = Protocol.Error (Protocol.Bad_request, msg) }));
           loop ()
     in
     loop ();
     logf t "session %d (%s): %d request(s), %d quota reject(s)" session.Session.sid
       session.Session.client session.Session.served session.Session.rejected
   with
  | Protocol.Closed | Chaos_drop | Unix.Unix_error _ | Failure _ -> ()
  | e -> logf t "connection error: %s" (Printexc.to_string e));
  (try Unix.close cfd with Unix.Unix_error _ -> ());
  Atomic.decr t.conns

(* ---------------- the accept loop ---------------- *)

let bind_listener = function
  | Unix_sock path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      fd
  | Tcp (host, port) ->
      let addr =
        if host = "" || host = "*" then Unix.inet_addr_any
        else
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      fd

(** Run the daemon until drained.  Installs SIGINT/SIGTERM handlers
    that request a drain; returns once admission has stopped, in-flight
    connections have finished (or [drain_grace] expired) and the cache
    is flushed.  The engine itself is left open — the caller owns it. *)
let serve ?(ready = fun () -> ()) t =
  (* clients may vanish mid-reply; writes must fail with EPIPE, not
     kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let lfd = bind_listener t.cfg.listen in
  Unix.listen lfd 64;
  Drain.notify (fun () -> request_drain t);
  logf t "listening on %s (%d workers, quota %.1f rps)" (pp_listen t.cfg.listen)
    (Engine.jobs t.engine) t.cfg.quota_rps;
  ready ();
  let handlers = ref [] in
  let handlers_mu = Mutex.create () in
  while not (Atomic.get t.draining) do
    match Unix.select [ lfd ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept lfd with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | cfd, _ ->
            if Atomic.get t.conns >= t.cfg.max_conns then begin
              (* refuse politely: one error frame, then close *)
              (try
                 Protocol.write_frame cfd
                   (Protocol.encode_response
                      {
                        Protocol.rrid = 0;
                        reply =
                          Protocol.Error
                            ( Protocol.Busy,
                              Printf.sprintf "connection limit (%d) reached"
                                t.cfg.max_conns );
                      })
               with _ -> ());
              (try Unix.close cfd with Unix.Unix_error _ -> ())
            end
            else begin
              Atomic.incr t.conns;
              let d = Domain.spawn (fun () -> handle_conn t cfd) in
              Mutex.protect handlers_mu (fun () -> handlers := d :: !handlers)
            end)
  done;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (match t.cfg.listen with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ());
  (* drain: wait for in-flight connections, then join their domains *)
  let cutoff = Unix.gettimeofday () +. t.cfg.drain_grace in
  while Atomic.get t.conns > 0 && Unix.gettimeofday () < cutoff do
    Unix.sleepf 0.01
  done;
  if Atomic.get t.conns = 0 then
    List.iter Domain.join (Mutex.protect handlers_mu (fun () -> !handlers))
  else
    logf t "drain grace expired with %d connection(s) still open" (Atomic.get t.conns);
  Engine.drain t.engine;
  logf t "drained: %d request(s) served, %d error(s)" (Atomic.get t.served)
    (Atomic.get t.errors)
