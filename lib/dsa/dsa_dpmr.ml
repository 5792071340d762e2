(** Glue: DPMR transformation with the Chapter 5 scope expansion.

    Runs Data Structure Analysis over the input, computes the exclusion
    closure, and invokes the MDS transformation with accesses through
    excluded registers left out of replication.  The dissertation pairs DSA with
    the MDS design (Chapter 5 builds on Chapter 4); SDS needs shadow
    addressing guarantees that exclusion does not provide, so SDS + DSA is
    rejected. *)

open Dpmr_ir
module Config = Dpmr_core.Config

(** [transform cfg prog] like {!Dpmr_core.Transform.transform}, but
    restrictions that DSA can reason away (int-to-pointer casts, unknown
    allocation sources, type-inhomogeneous memory) no longer reject the
    program — the affected memory is refined out of the partial replica. *)
let transform (cfg : Config.t) (prog : Prog.t) =
  if cfg.Config.mode <> Config.Mds then
    invalid_arg "Dsa_dpmr.transform: the DSA scope expansion requires MDS (Chapter 5)";
  let scope = Scope.compute prog in
  Dpmr_core.Transform.transform
    ~excluded:(fun fname r -> Scope.excluded_reg scope fname r)
    cfg prog

(** Same, also returning the scope for inspection (exclusion ratios). *)
let transform_with_scope (cfg : Config.t) (prog : Prog.t) =
  if cfg.Config.mode <> Config.Mds then
    invalid_arg "Dsa_dpmr.transform: the DSA scope expansion requires MDS (Chapter 5)";
  let scope = Scope.compute prog in
  let tp =
    Dpmr_core.Transform.transform
      ~excluded:(fun fname r -> Scope.excluded_reg scope fname r)
      cfg prog
  in
  (tp, scope)
