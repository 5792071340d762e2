(** Shadow and augmented type computation.

    Implements [st()] (Table 2.1, Figure 2.5), [at()] (Table 2.3 for SDS,
    Table 4.1 for MDS; Figures 2.6/2.7), the composed [(st ∘ at)()]
    (Table 2.5, Figure 2.8) in one pass, and the helper functions of the
    symbol list: [φ()], [rpt()], [spt()].

    Recursion flows through named structs, so the dissertation's
    placeholders become declared-but-undefined struct names pre-registered
    in the memo table before their bodies are computed; the three
    dynamic-programming caches are the [ST]/[AT]/[SAT] maps of the
    figures. *)

open Dpmr_ir
open Types

(** The stand-in for C's [void*] ([i8*]): the NSOP type when the pointee
    has a null shadow (Table 2.1). *)
val void_ptr : ty

type t
(** A computation context: memo tables over a (mutable) type environment
    that receives the generated shadow/augmented struct definitions. *)

val create : Tenv.t -> Config.mode -> t

(** Does the type transitively mention a function type?  ([at] is the
    identity on types that do not.) *)
val contains_fun_ty : t -> string list -> ty -> bool

(** [st t]: the shadow type, or [None] when null (Table 2.1). *)
val st : t -> ty -> ty option

(** [sat t] = [(st ∘ at) t], computed in one calculation (Table 2.5 /
    Figure 2.8). *)
val sat : t -> ty -> ty option

(** [at t]: the augmented type (function types gain ROP/NSOP parameters
    and the rvSop/rvRopPtr return channel). *)
val at : t -> ty -> ty

(** rpt(): replica parameter type — [Some (at t)] for pointers. *)
val rpt : t -> ty -> ty option

(** spt() (SDS): shadow parameter type — pointer to the pointee's
    [sat], or [void*]. *)
val spt : t -> ty -> ty option

(** Augmented function type (Figure 2.7 / Table 4.1 by mode). *)
val at_fun : t -> fun_ty -> fun_ty

(** φ(): map an original field index to its shadow-struct index
    (Equation 2.2). *)
val phi : t -> string -> int -> int

(** Declared type of the NSOP register for a pointer to [pointee]. *)
val shadow_reg_ty : t -> ty -> ty
