(** State comparison policies (§2.7, Table 2.9).

    A load check performs the replica load and compares it with the
    application load; policies tune how often checks run: every load,
    a rolling 64-bit mask counter at runtime (temporal, Table 2.9), or a
    compile-time coin flip per site (static). *)

open Dpmr_ir
open Types
open Inst

type state
(** Per-program state: the temporal policy's mask-counter global and the
    static policy's compile-time RNG. *)

val mask_counter_name : string
val prepare : Config.policy -> int64 -> Prog.t -> state

(** Emit the raw comparison: load the replica value, compare, branch to
    the detect label on mismatch. *)
val emit_compare : Builder.t -> ty -> operand -> operand -> string -> unit

(** Emit the (policy-gated) load check for one site: an {!emit_compare}
    of the application value against the replica address.  Returns
    whether any check code was emitted. *)
val emit_check :
  state -> Config.policy -> Builder.t -> ty -> operand -> operand -> string -> bool
