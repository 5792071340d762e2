(** Deterministic chaos injection for the engine's own machinery
    ([--chaos] / [DPMR_CHAOS]).

    Worker attempts raise {!Injected_fault} or stall briefly and cache
    appends get torn mid-record, all decided by pure hashes of
    [(seed, key, attempt)] — a chaos run is exactly reproducible.
    Injections never target attempt numbers [>= burst], so a supervisor
    retrying at least [burst] times always recovers: with chaos on,
    report output must stay byte-identical to a chaos-off run. *)

(** The transient-failure class: the supervisor retries these. *)
exception Injected_fault of string

type t = {
  prob : float;  (** per-attempt injection probability *)
  seed : int64;
  burst : int;  (** attempts [>= burst] are never injected into *)
  max_delay : float;  (** cap on injected stalls, seconds *)
}

val make : ?prob:float -> ?seed:int64 -> ?burst:int -> ?max_delay:float -> unit -> t

val parse : string -> t option
(** ["1"], ["0.3"] or ["0.3,7"] ([prob[,seed]]); [None] on junk or
    [prob <= 0]. *)

val of_env : unit -> t option
(** Parse [DPMR_CHAOS] (unset, [""] and ["0"] mean off). *)

val set : t option -> unit
(** Set the process-wide chaos config.  Call before worker domains
    spawn; workers only read. *)

val active : unit -> t option
(** Current config; consults [DPMR_CHAOS] on first use if {!set} was
    never called. *)

val with_chaos : t option -> (unit -> 'a) -> 'a
(** Run with the config pinned, restoring the previous one after. *)

type action = Fail | Delay of float

val plan : t -> key:string -> attempt:int -> action option
(** The (pure) decision for one worker attempt. *)

val attempt_fault : key:string -> attempt:int -> unit
(** Execute the decision: no-op, brief stall, or raise
    {!Injected_fault}.  No-op when chaos is off. *)

val truncation : key:string -> len:int -> int option
(** Torn-write decision for a cache record of [len] bytes (newline
    included): [Some n] means persist only the first [n] bytes. *)

(** {2 Wire chaos}

    Deterministic failure injection for the {e serving} path
    ([dpmr_serve --chaos-wire]), configured separately from
    worker chaos because its blast radius is a connection: response
    frames are torn mid-write, connections reset, replies stall, and
    (rarely) the worker process dies mid-job.  The recovery layer under
    test is the dispatcher / client-reconnect machinery.  The burst
    rule applies per peer-visible key, so retrying peers always reach
    clean service and goldens stay byte-identical. *)

type wire_action =
  | Wire_stall of float  (** delay the response; straggler/hedge fodder *)
  | Wire_torn  (** write a partial frame, then drop the connection *)
  | Wire_reset  (** drop the connection before replying *)
  | Wire_kill  (** the worker process dies mid-job ([_exit]) *)

val set_wire : t option -> unit
(** Set the process-wide wire-chaos config (the daemon's
    [--chaos-wire] flag). *)

val wire_active : unit -> t option
(** Current wire-chaos config: the last {!set_wire}, [None] before any. *)

val wire_plan : t -> key:string -> attempt:int -> wire_action option
(** The (pure) decision for one served response, keyed by request
    content and a per-peer attempt number.  Attempts [>= burst] are
    never injected into. *)
