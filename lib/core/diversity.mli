(** Diversity transformations (Table 2.8), plus the layout-perm and
    pad-jitter extensions, which decorrelate the replica's heap addresses
    per allocation site.

    Each transformation rewrites the {e replica} side of heap allocation
    and deallocation; application behaviour is untouched, and under
    error-free execution replica state stays equal to application
    state. *)

open Dpmr_ir
open Types
open Inst

type state
(** Per-program state (rearrange-heap's 20-slot scratch pointer buffer,
    and the seed of the per-site choices). *)

val rearrange_slots : int

(** Add any globals the transformation needs to the output program;
    [seed] (the config seed) drives the per-site choices. *)
val prepare : Config.diversity -> seed:int64 -> Prog.t -> state

(** Emit the replica heap allocation for [count] objects of (augmented)
    type [aug_ty]; returns an operand of type [Ptr aug_ty].  [site]
    numbers the heap-allocation site: layout-perm's dummies and
    pad-jitter's pad are a pure function of (seed, site). *)
val emit_replica_malloc :
  state -> Config.diversity -> site:int -> Builder.t -> ty -> operand -> operand

(** Emit the replica deallocation (zero-before-free zeroes first). *)
val emit_replica_free : state -> Config.diversity -> Builder.t -> operand -> unit

(** Emit the replica stack allocation (diversified only by the
    Pad_alloca extension). *)
val emit_replica_alloca :
  state -> Config.diversity -> Builder.t -> ty -> operand -> operand
