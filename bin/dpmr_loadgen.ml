(* dpmr_loadgen — deterministic closed-loop load generator for
   dpmr_serve.

   N connections each issue their share of the total request count
   back-to-back (closed loop: next request only after the previous
   response).  The request stream is a pure function of --seed: a mix
   over the four built-in workloads and four variant classes (golden,
   DPMR no-fault, fault-injected resize / free at site 0), with
   hot-key skew — most requests draw from a small hot set of
   experiment identities, the rest from a cold space, so the run
   exercises both the federated cache and the worker pool.

   Reports client-observed throughput and latency percentiles as JSON
   on stdout, and also writes that report to --out FILE when given.

   --pinned / --pinned-local write the verdicts of a fixed request set
   (same bytes on every conforming build): --pinned asks the daemon
   over the socket, --pinned-local computes them in-process through
   the identical resolution path — diffing the two files proves the
   socket adds nothing and loses nothing. *)

open Cmdliner
module Engine = Dpmr_engine.Engine
module Protocol = Dpmr_server.Protocol
module Client = Dpmr_server.Client
module Server = Dpmr_server.Server
module Config = Dpmr_core.Config
module Inject = Dpmr_fi.Inject
module Experiment = Dpmr_fi.Experiment
module Rng = Dpmr_memsim.Rng

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("dpmr_loadgen: " ^ m); exit 2) fmt

(* ---------------- deterministic stream ---------------- *)

(* splitmix64: one independent stream per connection *)
let rand_below st n =
  Int64.to_int (Int64.rem (Int64.logand (Rng.next st) Int64.max_int) (Int64.of_int n))

let workloads = [| "art"; "bzip2"; "equake"; "mcf" |]

(** The per-request draw.  [hot_pct] of requests reuse one of 8 hot
    experiment identities (few distinct golden contexts, high cache-hit
    potential); the rest roam a cold seed space that mostly misses. *)
let gen_params st ~scale ~hot_pct =
  let hot = rand_below st 100 < hot_pct in
  let workload = workloads.(rand_below st (Array.length workloads)) in
  let exp_seed =
    if hot then Int64.of_int (42 + rand_below st 2)
    else Int64.of_int (1000 + rand_below st 64)
  in
  let run_seed = Int64.add exp_seed (Int64.of_int (rand_below st 4)) in
  let p =
    {
      Protocol.default_run with
      Protocol.workload;
      scale;
      exp_seed;
      run_seed;
      cfg_seed = exp_seed;
    }
  in
  match rand_below st 4 with
  | 0 -> { p with Protocol.golden = true }
  | 1 -> p (* DPMR build, no fault *)
  | 2 -> { p with Protocol.kind = Some (Inject.Heap_array_resize 50); site = 0 }
  | _ -> { p with Protocol.kind = Some Inject.Immediate_free; site = 0 }

(* ---------------- connection worker ---------------- *)

type tally = {
  lat_us : int array;  (** latency of each ok verdict; length = issued count *)
  mutable ok : int;
  mutable cached : int;
  mutable app_errors : int;
  mutable quota_rejects : int;
  mutable protocol_errors : int;
}

let connect ~socket ~tcp =
  match tcp with
  | Some (host, port) -> Client.connect_tcp host port
  | None -> Client.connect_unix socket

(** Retry the first connect for a few seconds: in CI the daemon may
    still be booting when the load generator starts. *)
let connect_retry ~socket ~tcp =
  let rec go n =
    match connect ~socket ~tcp with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when n > 0 ->
        Unix.sleepf 0.1;
        go (n - 1)
  in
  go 50

let run_conn ~socket ~tcp ~seed ~conn_id ~requests ~scale ~hot_pct =
  let st = Rng.create (Int64.add seed (Int64.mul 0x5851f42d4c957f2dL (Int64.of_int (conn_id + 1)))) in
  let t =
    {
      lat_us = Array.make (max requests 1) 0;
      ok = 0;
      cached = 0;
      app_errors = 0;
      quota_rejects = 0;
      protocol_errors = 0;
    }
  in
  (try
     let c = connect_retry ~socket ~tcp in
     (try
        (match Client.hello c (Printf.sprintf "dpmr_loadgen/%d" conn_id) with
        | Protocol.Ack _ -> ()
        | _ -> t.protocol_errors <- t.protocol_errors + 1);
        for _ = 1 to requests do
          let p = gen_params st ~scale ~hot_pct in
          let t0 = Unix.gettimeofday () in
          match Client.run c p with
          | Protocol.Verdict v ->
              t.lat_us.(t.ok) <-
                int_of_float ((Unix.gettimeofday () -. t0) *. 1e6);
              t.ok <- t.ok + 1;
              if v.Protocol.cached then t.cached <- t.cached + 1
          | Protocol.Error (Protocol.Quota, _) ->
              t.quota_rejects <- t.quota_rejects + 1
          | Protocol.Error _ -> t.app_errors <- t.app_errors + 1
          | _ -> t.protocol_errors <- t.protocol_errors + 1
        done
      with _ -> t.protocol_errors <- t.protocol_errors + 1);
     Client.close c
   with _ -> t.protocol_errors <- t.protocol_errors + 1);
  t

(* ---------------- percentiles and report ---------------- *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (int_of_float (Float.of_int n *. p /. 100.)))

let bench_json ~connections ~requests ~(tallies : tally list) ~wall ~sorted =
  let sum f = List.fold_left (fun a t -> a + f t) 0 tallies in
  let ok = sum (fun t -> t.ok) in
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "  \"schema\": \"dpmr-serve-bench/1\",\n";
  add "  \"connections\": %d,\n" connections;
  add "  \"requests\": %d,\n" requests;
  add "  \"ok\": %d,\n" ok;
  add "  \"cache_hits\": %d,\n" (sum (fun t -> t.cached));
  add "  \"app_errors\": %d,\n" (sum (fun t -> t.app_errors));
  add "  \"quota_rejects\": %d,\n" (sum (fun t -> t.quota_rejects));
  add "  \"protocol_errors\": %d,\n" (sum (fun t -> t.protocol_errors));
  add "  \"wall_s\": %.3f,\n" wall;
  add "  \"throughput_rps\": %.1f,\n"
    (if wall > 0. then float_of_int ok /. wall else 0.);
  add "  \"p50_us\": %d,\n" (percentile sorted 50.);
  add "  \"p95_us\": %d,\n" (percentile sorted 95.);
  add "  \"p99_us\": %d,\n" (percentile sorted 99.);
  add "  \"max_us\": %d\n"
    (if Array.length sorted = 0 then 0 else sorted.(Array.length sorted - 1));
  add "}\n";
  Buffer.contents b

(* ---------------- pinned request set ---------------- *)

(** Fixed, seed-independent request set: every workload crossed with
    every variant class, plus diversity/mode variations on one
    workload.  The rendering of each line excludes anything that may
    legitimately differ between transports (cache state, timing). *)
let pinned_set scale =
  let base w =
    {
      Protocol.default_run with
      Protocol.workload = w;
      scale;
      exp_seed = 42L;
      run_seed = 43L;
      cfg_seed = 42L;
    }
  in
  List.concat_map
    (fun w ->
      let p = base w in
      [
        { p with Protocol.golden = true };
        p;
        { p with Protocol.kind = Some (Inject.Heap_array_resize 50) };
        { p with Protocol.kind = Some Inject.Immediate_free };
        { p with Protocol.kind = Some (Inject.Heap_array_resize 50); plain = true };
      ])
    (Array.to_list workloads)
  @ [
      { (base "art") with Protocol.mode = Config.Mds };
      { (base "art") with Protocol.diversity = Config.Pad_malloc 16 };
      { (base "art") with Protocol.diversity = Config.Zero_before_free };
      {
        (base "mcf") with
        Protocol.kind = Some Inject.Immediate_free;
        policy = Config.Temporal 0xffL;
      };
    ]

let pinned_line p (v : Protocol.verdict) =
  let c = v.Protocol.cls in
  Printf.sprintf
    "%s -> sf=%b co=%b ndet=%b ddet=%b timeout=%b t2d=%s cost=%Ld peak=%d"
    (Protocol.encode_request { Protocol.rid = 0; body = Protocol.Run p })
    c.Experiment.sf c.Experiment.co c.Experiment.ndet c.Experiment.ddet
    c.Experiment.timeout
    (match c.Experiment.t2d with Some t -> Int64.to_string t | None -> "-")
    c.Experiment.cost c.Experiment.peak_heap

let write_lines file lines =
  let oc = open_out file in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let run_pinned ~socket ~tcp ~scale file =
  let c = connect_retry ~socket ~tcp in
  let lines =
    List.map
      (fun p ->
        match Client.run c p with
        | Protocol.Verdict v -> pinned_line p v
        | Protocol.Error (code, msg) ->
            die "pinned request rejected (%s): %s"
              (Protocol.error_code_to_string code) msg
        | _ -> die "pinned request got a non-verdict reply")
      (pinned_set scale)
  in
  Client.close c;
  write_lines file lines;
  Printf.printf "pinned  : %d verdicts -> %s\n" (List.length lines) file

(** The same set, computed in this process through the daemon's own
    resolution path (no socket, no cache) — the byte-identity baseline. *)
let run_pinned_local ~scale file =
  let engine = Engine.create ~jobs:2 ~use_cache:false () in
  let t = Server.create engine in
  let lines =
    List.map
      (fun p ->
        match Server.run_one t p with
        | Protocol.Verdict v -> pinned_line p v
        | _ -> die "pinned-local request failed")
      (pinned_set scale)
  in
  Engine.close engine;
  write_lines file lines;
  Printf.printf "pinned  : %d verdicts -> %s (local)\n" (List.length lines) file

(* ---------------- main ---------------- *)

let socket_t =
  Arg.(
    value
    & opt string "dpmr.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of the daemon.")

let tcp_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP instead.")

let connections_t =
  Arg.(
    value & opt int 4 & info [ "connections"; "c" ] ~docv:"N" ~doc:"Concurrent connections.")

let requests_t =
  Arg.(
    value
    & opt int 10_000
    & info [ "requests"; "n" ] ~docv:"N" ~doc:"Total requests across all connections.")

let seed_t =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Stream seed.")

let scale_t =
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Workload scale factor.")

let hot_t =
  Arg.(
    value
    & opt int 90
    & info [ "hot-pct" ] ~docv:"PCT"
        ~doc:"Share of requests drawn from the hot experiment identities (0-100).")

let out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Also write the benchmark report (printed on stdout) to $(docv).")

let pinned_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "pinned" ] ~docv:"FILE"
        ~doc:"Instead of load, run the pinned request set over the socket and \
              write its verdict lines to $(docv).")

let pinned_local_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "pinned-local" ] ~docv:"FILE"
        ~doc:"Compute the pinned set in-process (no daemon) and write the \
              baseline verdict lines to $(docv).")

let go socket tcp connections requests seed scale hot_pct out pinned pinned_local =
  let tcp =
    Option.map
      (fun spec ->
        match String.rindex_opt spec ':' with
        | Some i -> (
            match
              int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
            with
            | Some port -> (String.sub spec 0 i, port)
            | None -> die "bad --tcp %S" spec)
        | None -> die "bad --tcp %S" spec)
      tcp
  in
  match (pinned, pinned_local) with
  | Some file, _ -> run_pinned ~socket ~tcp ~scale file
  | None, Some file -> run_pinned_local ~scale file
  | None, None ->
      let connections = max 1 (min 32 connections) in
      let per_conn = max 1 (requests / connections) in
      let total = per_conn * connections in
      let t0 = Unix.gettimeofday () in
      let tallies =
        List.map Domain.join
          (List.init connections (fun conn_id ->
               Domain.spawn (fun () ->
                   run_conn ~socket ~tcp ~seed ~conn_id ~requests:per_conn ~scale
                     ~hot_pct)))
      in
      let wall = Unix.gettimeofday () -. t0 in
      let sorted =
        let a =
          Array.concat (List.map (fun t -> Array.sub t.lat_us 0 t.ok) tallies)
        in
        Array.sort compare a;
        a
      in
      let report = bench_json ~connections ~requests:total ~tallies ~wall ~sorted in
      print_string report;
      Option.iter
        (fun out ->
          let oc = open_out out in
          output_string oc report;
          close_out oc;
          Printf.printf "report  : %s\n" out)
        out;
      let protocol_errors =
        List.fold_left (fun a t -> a + t.protocol_errors) 0 tallies
      in
      if protocol_errors > 0 then exit 1

let cmd =
  Cmd.v
    (Cmd.info "dpmr_loadgen"
       ~doc:"Deterministic closed-loop load generator for dpmr_serve.")
    Term.(
      const go $ socket_t $ tcp_t $ connections_t $ requests_t $ seed_t $ scale_t
      $ hot_t $ out_t $ pinned_t $ pinned_local_t)

let () = exit (Cmd.eval cmd)
