(** Deterministic execution cost model.

    The paper's performance results compare instrumentation variants
    relative to a golden build on real hardware; we replace wall-clock
    time with cost units charged per executed instruction.  The constants
    encode the first-order effects the dissertation's analysis appeals
    to: loads/stores dominate and DPMR multiplies them; branches carry a
    misprediction-shaped surcharge (why temporal load-checking is slower
    than checking every load, §3.8); allocation cost grows with bytes
    touched; and a live-heap cache-pressure term taxes every access (why
    large pad-malloc variants are the most expensive diversity
    transforms, §3.7). *)

val load : int
val store : int
val gep : int
val alu : int
val falu : int
val cmp : int
val cast : int
val select : int
val branch : int
val cond_branch : int
val call_base : int
val call_per_arg : int
val ret : int

(** Fixed allocation path cost plus a per-touched-cache-line term. *)
val malloc_cost : int -> int

val free_cost : int
val alloca_cost : int -> int

(** Per-access surcharge for a given live heap size (one unit per
    32 KiB): the cache-pressure model. *)
val heap_pressure : int -> int
