(** Diversity transformations (Table 2.8).

    Each transformation rewrites the {e replica} side of heap allocation
    and deallocation; application behaviour is untouched, and under
    error-free execution replica state stays equal to application
    state. *)

open Dpmr_ir
open Types
open Inst

type state
(** Per-program state (rearrange-heap's 20-slot scratch pointer buffer). *)

val rearrange_slots : int

(** Add any globals the transformation needs to the output program. *)
val prepare : Config.diversity -> Prog.t -> state

(** Emit the replica heap allocation for [count] objects of (augmented)
    type [aug_ty]; returns an operand of type [Ptr aug_ty].  [extra_pad]
    (default 0) adds the diversity-family request growth for this
    site. *)
val emit_replica_malloc :
  state -> Config.diversity -> ?extra_pad:int -> Builder.t -> ty -> operand -> operand

(** Emit the replica deallocation (zero-before-free zeroes first). *)
val emit_replica_free : state -> Config.diversity -> Builder.t -> operand -> unit

(** Emit the replica stack allocation (diversified only by the
    Pad_alloca extension). *)
val emit_replica_alloca :
  state -> Config.diversity -> Builder.t -> ty -> operand -> operand
