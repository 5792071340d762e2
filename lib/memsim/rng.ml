(** Deterministic pseudo-random stream (splitmix64).

    Every source of randomness in the system — rearrange-heap's
    [randInt(1,20)], static load-checking's compile-time coin flips,
    initial heap/stack garbage, workload input generation — draws from a
    seeded instance of this module, which is what makes whole experiments
    bit-reproducible. *)

type t = { mutable state : int64 }

let create seed = { state = seed }

let golden = 0x9E3779B97F4A7C15L

(* splitmix64's output function *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

(** [int t bound] is uniform in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

(** [range t lo hi] is uniform in [lo, hi] inclusive. *)
let range t lo hi = lo + int t (hi - lo + 1)

(** [float t] is uniform in [0, 1). *)
let float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

(** Stateless hash of two ints — used for deterministic page garbage.
    The first draw of a stream seeded with [a lxor (b * golden)], built
    without the stream: inlined, it allocates nothing. *)
let[@inline] hash2 a b =
  mix (Int64.add (Int64.logxor (Int64.of_int a) (Int64.mul (Int64.of_int b) golden)) golden)

(** Raw stream position, for checkpointing: [set_state t (state t')]
    makes [t] produce exactly the draws [t'] would have. *)
let state t = t.state

let set_state t s = t.state <- s

(** FNV-1a 64 over the bytes of [str], its offset basis xor-ed with
    [seed]: the system's one string hash (cache keys, [@ir/] names,
    per-site diversity words, chaos and backoff decisions). *)
let fnv1a64 ?(seed = 0L) str =
  let h = ref (Int64.logxor 0xcbf29ce484222325L seed) in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    str;
  !h
