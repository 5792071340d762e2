(** Deterministic execution cost model.

    The paper's performance results (Figures 3.10, 3.15, 4.3–4.6) compare
    instrumentation variants *relative to a golden build* on real
    hardware.  We replace wall-clock time with cost units charged per
    executed instruction.  The constants encode the first-order effects
    the dissertation's analysis appeals to:

    - loads/stores dominate and DPMR multiplies them;
    - branches carry a misprediction-shaped surcharge, which is why
      temporal load-checking (extra branch per load) is *slower* than
      checking every load (§3.8);
    - allocation cost grows with the number of bytes touched, which is why
      large pad-malloc variants are the most expensive diversity
      transforms and why they "cross cache page boundaries" (§3.7). *)

let load = 3
let store = 3
let gep = 1
let alu = 1
let falu = 2
let cmp = 1
let cast = 1
let select = 2
let branch = 1
let cond_branch = 3
let call_base = 6
let call_per_arg = 1
let ret = 2

(** malloc: fixed path cost plus a per-touched-cache-line term. *)
let malloc_cost bytes = 40 + (bytes / 32)

let free_cost = 25
let alloca_cost bytes = 2 + (bytes / 64)

(** Cache-pressure model: every load/store pays an extra term that grows
    with the *live* heap working set (one unit per 32 KiB).  This is the
    §3.7 hypothesis — large pad-malloc variants "cross cache page
    boundaries", diluting locality on every access — made concrete:
    padding inflates the live replica footprint, and the inflation taxes
    all subsequent memory traffic.  rearrange-heap's scratch allocations
    are freed immediately, so they cost only while held. *)
let heap_pressure live_bytes = live_bytes lsr 15
