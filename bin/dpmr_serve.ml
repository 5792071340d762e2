(* dpmr_serve — the resident DPMR daemon.

   Boots one engine (resident worker pool + shared sharded result
   cache), binds a Unix-domain or TCP socket, and serves detection
   verdicts until drained by SIGTERM/SIGINT or a drain request.  All
   supervision knobs of batch runs (deadline, retries, backoff, chaos)
   apply to served requests too. *)

open Cmdliner
module Engine = Dpmr_engine.Engine
module Supervisor = Dpmr_engine.Supervisor
module Chaos = Dpmr_engine.Chaos
module Server = Dpmr_server.Server

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("dpmr_serve: " ^ m); exit 2) fmt

let socket_t =
  Arg.(
    value
    & opt string "dpmr.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let tcp_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on TCP instead of the Unix-domain socket.")

let workers_t =
  Arg.(
    value
    & opt int 0
    & info [ "workers"; "j" ] ~docv:"N"
        ~doc:
          "Size of the resident pool: N - 1 worker domains, and the connection handler \
           that holds the pool's caller slot (0 = one per recommended core).")

let retries_t =
  Arg.(
    value
    & opt int Supervisor.default_policy.Supervisor.max_retries
    & info [ "retries" ] ~docv:"N"
        ~doc:"Extra attempts granted to transiently failing requests.")

let backoff_ms_t =
  Arg.(
    value
    & opt float (Supervisor.default_policy.Supervisor.backoff *. 1000.)
    & info [ "backoff-ms" ] ~docv:"MS"
        ~doc:"Base backoff between retry attempts, milliseconds (doubles per \
              attempt, deterministically jittered).")

let deadline_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:"Per-attempt wall-clock deadline for served requests (0 = none).")

let quota_rps_t =
  Arg.(
    value
    & opt float 0.
    & info [ "quota-rps" ] ~docv:"RPS"
        ~doc:"Per-connection token-bucket refill rate (0 = unlimited).")

let quota_burst_t =
  Arg.(
    value
    & opt int 64
    & info [ "quota-burst" ] ~docv:"N" ~doc:"Per-connection token-bucket burst size.")

let max_conns_t =
  Arg.(
    value
    & opt int 16
    & info [ "max-conns" ] ~docv:"N"
        ~doc:"Concurrent connections (each holds one handler domain).")

let drain_grace_t =
  Arg.(
    value
    & opt float 30.
    & info [ "drain-grace" ] ~docv:"SECS"
        ~doc:"How long a drain waits for in-flight connections before giving up.")

let chaos_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"P[,SEED]"
        ~doc:"Deterministically inject faults into the daemon's own workers and \
              cache writes with probability $(docv) (0 disables; overrides \
              DPMR_CHAOS).  Served verdicts must survive unchanged.")

let chaos_wire_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos-wire" ] ~docv:"P[,SEED]"
        ~doc:"Deterministically sabotage this daemon's replies with probability \
              $(docv): stalls, torn frames, connection resets, and whole-process \
              kills (0 disables).  A dispatching \
              client must still converge to byte-identical output.")

let cache_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Result-cache directory (default _dpmr_cache); several daemons and \
              batch runs may federate one directory.")

let no_cache_t =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the on-disk result cache.")

let quiet_t =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-session log lines.")

let go socket tcp workers retries backoff_ms deadline quota_rps quota_burst max_conns
    drain_grace chaos chaos_wire cache_dir no_cache quiet =
  (match chaos with
  | None -> ()
  | Some "0" -> Chaos.set None
  | Some s -> (
      match Chaos.parse s with
      | Some c -> Chaos.set (Some c)
      | None -> die "bad --chaos %S (want P or P,SEED with 0 < P <= 1)" s));
  (match chaos_wire with
  | None -> ()
  | Some "0" -> Chaos.set_wire None
  | Some s -> (
      match Chaos.parse s with
      | Some c -> Chaos.set_wire (Some c)
      | None -> die "bad --chaos-wire %S (want P or P,SEED with 0 < P <= 1)" s));
  let listen =
    match tcp with
    | None -> Server.Unix_sock socket
    | Some spec -> (
        match String.rindex_opt spec ':' with
        | Some i -> (
            let host = String.sub spec 0 i in
            match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
            | Some port -> Server.Tcp (host, port)
            | None -> die "bad --tcp %S (want HOST:PORT)" spec)
        | None -> die "bad --tcp %S (want HOST:PORT)" spec)
  in
  let policy =
    let base = Supervisor.default_policy in
    let backoff = Float.max 0. (backoff_ms /. 1000.) in
    {
      Supervisor.max_retries = max 0 retries;
      backoff;
      backoff_max = Float.max base.Supervisor.backoff_max (backoff *. 10.);
      deadline =
        (match deadline with
        | None -> base.Supervisor.deadline
        | Some d when d <= 0. -> None
        | Some d -> Some d);
    }
  in
  let jobs = if workers <= 0 then Engine.default_jobs () else workers in
  let engine =
    Engine.create ~jobs ~use_cache:(not no_cache) ?cache_dir ~policy ()
  in
  let cfg =
    {
      Server.listen;
      max_conns;
      quota_rps;
      quota_burst;
      drain_grace;
      verbose = not quiet;
      (* a standalone daemon may really die under wire chaos — the
         dispatcher's failover is what's under test; in-process test
         servers keep this off and downgrade kills to resets *)
      allow_chaos_kill = true;
    }
  in
  let t = Server.create ~cfg engine in
  let ready () =
    Printf.printf "dpmr_serve: ready on %s (%d workers, pid %d)\n%!"
      (Server.pp_listen listen) jobs (Unix.getpid ())
  in
  Server.serve ~ready t;
  Engine.print_summary engine;
  Engine.close engine

let cmd =
  Cmd.v
    (Cmd.info "dpmr_serve" ~doc:"Resident DPMR daemon: detection verdicts over a socket.")
    Term.(
      const go $ socket_t $ tcp_t $ workers_t $ retries_t $ backoff_ms_t $ deadline_t
      $ quota_rps_t $ quota_burst_t $ max_conns_t $ drain_grace_t $ chaos_t
      $ chaos_wire_t $ cache_dir_t $ no_cache_t $ quiet_t)

let () = exit (Cmd.eval cmd)
