(** Failure-hardened multi-host scatter/gather for campaign batches.

    A dispatcher scatters cache-miss job specs to resident [dpmr_serve]
    workers over the serving protocol and gathers their verdicts back
    into the engine's result path.  Robustness is the contract, not the
    plumbing: any schedule of worker failures (connection loss, stalls,
    crashes, drains, wire corruption) may slow a campaign down but can
    only change its output where {e no} execution capacity remains at
    all — and even then the batch degrades to explicit holes, never to
    an abort.

    Mechanisms (DESIGN.md §12):

    - {b bounded windows} — each host serves at most [window] chunks
      concurrently, one per connection, so a slow host backlogs itself,
      not the campaign;
    - {b heartbeats} — a per-host prober pings on its own connection;
      consecutive misses quarantine the host, later successes revive it;
    - {b connection-level supervision} — the Supervisor's
      deadline/retry/backoff policy lifted to the wire: failed chunks
      are re-dispatched with capped exponential backoff, and a host
      failing [quarantine_after] consecutive operations is quarantined
      while its in-flight work is re-dispatched elsewhere;
    - {b hedging} — a chunk in flight longer than [hedge_after] is
      duplicated to a second host; verdicts dedup first-result-wins by
      job content hash, so duplicated execution is invisible (every job
      is idempotent by construction);
    - {b graceful degradation} — chunks that exhaust their re-dispatch
      budget, and whole campaigns whose remotes all died, fall back to
      local execution; below a [min_workers] floor of healthy hosts the
      remaining jobs become explicit [Hole]s instead (a requested
      distributed guarantee fails loudly, not by silently running
      10x slower).

    The wire transport is injected ({!transport}): [lib/server] already
    depends on this library, so the protocol client cannot be named
    here.  [Dpmr_server.Remote.transport] is the production
    implementation; tests inject deterministic fakes. *)

module Experiment = Dpmr_fi.Experiment

type item = string * Job.spec
(** A job to dispatch: (content-hash cache key, spec). *)

type hole = {
  hreason : string;  (** e.g. ["dispatch-floor"], ["remote"] *)
  hattempts : int;
  herror : string;
}

type outcome = Done of Experiment.classification | Hole of hole

type completed = item * outcome * float * string option
(** (item, outcome, wall seconds billed, snapshot fork hash if any). *)

(** What one remote answered for one job of a chunk. *)
type remote_result =
  | R_verdict of Experiment.classification
  | R_failed of string
      (** the remote supervisor gave up deterministically — a job hole,
          not a host failure; re-dispatching elsewhere would fail the
          same way *)
  | R_reject of string
      (** the remote cannot run this job at all (unknown workload, bad
          request): execute it locally instead *)

exception Host_down of string
(** Connection-level failure: closed, reset, timed out, refused,
    draining.  The chunk is re-dispatched and the host suspected. *)

(** One established connection to a worker.  All operations may raise
    {!Host_down}; any other exception is treated the same way. *)
type conn = {
  c_run_batch : item array -> remote_result array;
      (** scatter one chunk, gather one result per item (in order) *)
  c_ping : unit -> bool;
  c_abort : unit -> unit;
      (** wake any blocked [c_run_batch] from another thread (shutdown
          both socket directions); used at campaign end so a read
          blocked on a dead host cannot delay completion *)
  c_close : unit -> unit;
}

type transport = { connect : string -> conn }
(** [connect addr] — raises {!Host_down} when the host is unreachable. *)

type policy = {
  base : Supervisor.policy;
      (** the per-job supervision policy lifted to the connection level:
          [max_retries] bounds chunk re-dispatches, [backoff] /
          [backoff_max] pace a failing host's next attempt *)
  window : int;  (** outstanding chunks (connections) per host *)
  chunk_jobs : int;  (** target jobs per chunk; [0] = auto-size *)
  hedge_after : float;
      (** seconds in flight before a chunk is duplicated to a second
          host; [0.] disables hedging *)
  quarantine_after : int;
      (** consecutive connection-level failures that quarantine a host *)
  probe_period : float;  (** heartbeat interval, seconds *)
  min_workers : int;
      (** healthy-host floor: when fewer remain, unfinished jobs become
          explicit holes ([0] = no floor; degrade to local execution) *)
}

val default_policy : policy

type host_stats = {
  hs_addr : string;
  hs_healthy : bool;
  hs_sent : int;  (** chunks dispatched (hedges included) *)
  hs_completed : int;  (** chunks answered in full *)
  hs_jobs : int;  (** job verdicts this host won *)
  hs_retried : int;  (** chunks re-dispatched after this host failed *)
  hs_hedged : int;  (** hedge duplicates issued against this host's stragglers *)
  hs_quarantined : int;  (** times quarantined *)
  hs_failures : int;
      (** connection-level failures (probes included; calls the batch-end
          abort cuts short are not failures) *)
  hs_rtt_p50_ms : float;  (** over completed chunks; [0.] when none *)
  hs_rtt_p95_ms : float;
}

type totals = {
  t_remote_jobs : int;
  t_local_jobs : int;  (** jobs that fell back to local execution *)
  t_holes : int;
  t_hedges : int;  (** hedge duplicates issued *)
  t_hedge_wins : int;  (** hedged chunks whose first verdict came from the duplicate *)
  t_requeues : int;  (** chunk re-dispatches *)
  t_duplicate_results : int;  (** verdicts discarded by first-result-wins dedup *)
}

type t

val create : ?policy:policy -> transport -> hosts:string list -> t
(** Host health, quarantine state and telemetry persist across {!run}
    calls (an engine dispatches many batches per campaign). *)

val run : t -> local:(item array list -> completed list) -> item array list -> completed list
(** Scatter the given groups and gather every outcome.  Grouped items
    (snapshot cells) always land in the same chunk, so remote engines
    can fork them from a shared baseline.  [local] executes groups on
    the caller's engine (the degradation path); it is invoked on the
    calling thread.  The result covers every input item exactly once,
    in input order. *)

val host_stats : t -> host_stats list
val totals : t -> totals
val healthy_hosts : t -> int
val summary_lines : t -> string list
