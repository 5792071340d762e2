(** Fixed-size domain worker pool with deterministic result ordering.

    A pool of size J has J executors: {!create} spawns J − 1 worker
    domains once, and a domain that submits a batch runs that batch's
    tasks beside them.  The workers park between batches until
    {!shutdown}, so per-domain warmup (DLS-cached experiment contexts,
    lowered programs) survives from one batch to the next.  A pool of
    size 1 spawns no domain and runs its batches serially on the calling
    domain. *)

val default_size : unit -> int
(** [Domain.recommended_domain_count ()]. *)

type t
(** [size - 1] worker domains pulling batches from one queue, plus one
    caller slot; or the calling domain alone when [size] is 1. *)

val create : ?size:int -> unit -> t
(** Spawn [size - 1] worker domains (default {!default_size}, minimum 1;
    a size of 1 spawns none).  The [size]-th executor is whichever
    domain holds the pool's one caller slot: a domain that submits a
    batch takes the slot if it is free, runs its own batch's tasks
    beside the workers until none is left unclaimed, and releases it. *)

val size : t -> int

val shutdown : t -> unit
(** Drain the queue, stop the workers and join their domains.
    Idempotent only in the sense that a second call joins nothing. *)

val map_results_on :
  t ->
  ?progress:(done_:int -> total:int -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** [map_results_on t f xs] applies [f] to every element on the pool's
    workers and, while it holds the caller slot, on the calling domain;
    the i-th slot holds the i-th element's result regardless of which
    domain ran it or of completion order.  A raising job yields
    [Error (exn, backtrace)] in its own slot and never discards the
    other slots — the property the campaign supervisor builds on.  [f]
    must not share mutable state across calls — in particular it must
    not touch a [Prog.t] built outside itself (programs carry internal
    caches).  [progress] is called after each completion.  Thread-safe:
    batches submitted concurrently from several domains queue in
    submission order; one caller at a time holds the slot and runs only
    its own batch's tasks, the others wait while the workers run theirs,
    so at most [size] tasks run at once; each caller blocks only on its
    own completion count.  At size 1 every caller runs its own batch
    serially, concurrently with other callers. *)

val map_on :
  t ->
  ?progress:(done_:int -> total:int -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** {!map_results_on}, then the first error in input order is re-raised
    on the calling domain with the worker's backtrace preserved
    ([Printexc.raise_with_backtrace]). *)
