(** Glue: the DPMR transformation with the Chapter 5 scope expansion.

    Runs Data Structure Analysis, computes the exclusion closure, and
    invokes the MDS transformation with excluded accesses left out of
    replication.  SDS + DSA is rejected: exclusion cannot provide the
    shadow-addressing guarantees SDS needs. *)

open Dpmr_ir

val transform : Dpmr_core.Config.t -> Prog.t -> Prog.t
val transform_with_scope : Dpmr_core.Config.t -> Prog.t -> Prog.t * Scope.t
