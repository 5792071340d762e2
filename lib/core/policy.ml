(** State comparison policies (§2.7, Table 2.9).

    A *load check* performs the replica load and compares it with the
    application load; the policies tune how often checks run:

    - [All_loads] — every load is replicated and compared;
    - [Temporal mask] — a rolling 64-bit mask counter gates each check at
      runtime (Table 2.9);
    - [Static fraction] — each load site keeps or drops its check at
      compile time with the given probability. *)

open Dpmr_ir
open Dpmr_memsim
open Types
open Inst

type state = {
  mask_counter : string option;  (** global i32 for temporal checking *)
  rng : Rng.t;  (** compile-time coin flips for static checking *)
}

let mask_counter_name = "__dpmr_mask_counter"

let prepare (p : Config.policy) seed (dst : Prog.t) =
  let rng = Rng.create seed in
  match p with
  | Config.Temporal _ ->
      Prog.add_global dst
        { Prog.gname = mask_counter_name; gty = i32; ginit = Prog.Gint 0L };
      { mask_counter = Some mask_counter_name; rng }
  | Config.All_loads | Config.Static _ -> { mask_counter = None; rng }

(** Emit the comparison itself: load the replica value, compare it with
    the application value, branch to [detect_label] on mismatch. *)
let emit_compare (b : Builder.t) ty app_val rep_addr detect_label =
  let rep_val = Builder.load b ~name:"chk" ty rep_addr in
  let eq =
    match ty with
    | Float -> Builder.fcmp b Foeq app_val rep_val
    | Int w -> Builder.icmp b Ieq w app_val rep_val
    | Ptr _ ->
        let a = Builder.ptr_to_int b app_val in
        let r = Builder.ptr_to_int b rep_val in
        Builder.icmp b Ieq W64 a r
    | _ -> invalid_arg "Policy.emit_compare: non-scalar load"
  in
  let cont = Builder.new_block b "chk.ok" in
  Builder.cbr b eq cont.Func.label detect_label;
  Builder.position b cont

(** Emit the (possibly gated) load check for one load site.  Returns
    [true] if any check code was emitted (used by tests and statistics). *)
let emit_check state (p : Config.policy) (b : Builder.t) ty app_val rep_addr
    detect_label =
  let compare () = emit_compare b ty app_val rep_addr detect_label in
  match p with
  | Config.All_loads ->
      compare ();
      true
  | Config.Static fraction ->
      if Rng.float state.rng < fraction then begin
        compare ();
        true
      end
      else false
  | Config.Temporal mask ->
      (* Table 2.9: the check runs iff bit [maskCounter] of [mask] is set
         [mask shifted left by 64 - c - 1, then logically right by 63],
         and maskCounter advances to [maskCounter + 1 mod 64]. *)
      let counter = Global (Option.get state.mask_counter) in
      let c = Builder.load b ~name:"mc" i32 counter in
      let c64 = Builder.int_cast b ~signed:false W64 c in
      let shift = Builder.sub b W64 (Builder.i64c 63) c64 in
      let shifted = Builder.binop b Shl W64 (Cint (W64, mask)) shift in
      let bit = Builder.binop b Lshr W64 shifted (Builder.i64c 63) in
      Builder.if_ b bit compare;
      let c1 = Builder.add b W32 c (Builder.i32c 1) in
      let cm = Builder.srem b W32 c1 (Builder.i32c 64) in
      Builder.store b i32 cm counter;
      true
