(** Deterministic pseudo-random stream (splitmix64).

    Every source of randomness in the system — rearrange-heap's
    [randInt], static load-checking's compile-time coin flips, initial
    heap/stack garbage, workload inputs — draws from a seeded instance,
    making whole experiments bit-reproducible. *)

type t

val create : int64 -> t
val next : t -> int64

(** Uniform in [0, bound). *)
val int : t -> int -> int

(** Uniform in [lo, hi], inclusive. *)
val range : t -> int -> int -> int

(** Uniform in [0, 1). *)
val float : t -> float

(** Stateless hash of two ints (deterministic page garbage). *)
val hash2 : int -> int -> int64

(** Raw stream position, for checkpointing a VM: restoring it with
    {!set_state} resumes the exact draw sequence. *)
val state : t -> int64

val set_state : t -> int64 -> unit

(** splitmix64's output function: a pure 64-bit mix ([next] is [mix] of
    the advanced state). *)
val mix : int64 -> int64

(** FNV-1a 64 over the bytes of a string, its offset basis xor-ed with
    [seed] (default [0L]): the one string hash of cache keys, [@ir/]
    names, per-site diversity words and chaos and backoff decisions. *)
val fnv1a64 : ?seed:int64 -> string -> int64
