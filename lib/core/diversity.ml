(** Diversity transformations (Table 2.8).

    Each transformation rewrites the *replica* side of heap allocation and
    deallocation; application behaviour is untouched, and under error-free
    execution replica state stays equal to application state.  Stack and
    global allocations keep the standard replica behaviour (§2.6 notes the
    same techniques could be applied there; the evaluated tool targets the
    heap). *)

open Dpmr_ir
open Types
open Inst

(** Per-program state: rearrange-heap needs its scratch pointer buffer
    [B] (a global holding up to 20 pointers). *)
type state = { rearrange_buf : string option }

let rearrange_slots = 20

(** Add any globals/externs the diversity transformation needs to the
    output program. *)
let prepare (d : Config.diversity) (dst : Prog.t) =
  match d with
  | Config.Rearrange_heap ->
      let name = "__dpmr_rearrange_buf" in
      Prog.add_global dst
        { Prog.gname = name; gty = arr (Ptr i8) rearrange_slots; ginit = Prog.Gzero };
      { rearrange_buf = Some name }
  | Config.No_diversity | Config.Pad_malloc _ | Config.Zero_before_free
  | Config.Pad_alloca _ ->
      { rearrange_buf = None }

(** Emit the replica heap allocation for an application allocation of
    [count] objects of (augmented) type [aug_ty].  Returns an operand of
    type [Ptr aug_ty].  [extra_pad] is the diversity-family request
    growth for this site; 0 preserves the paper's emission byte for
    byte. *)
let emit_replica_malloc state (d : Config.diversity) ?(extra_pad = 0)
    (b : Builder.t) aug_ty count =
  let padded_request ~label pad =
    (* replica request becomes a byte-array request of
       sizeof(aug) * count + pad, then cast back (Table 2.8) *)
    let esz = Layout.size_of b.Builder.prog.Prog.tenv aug_ty in
    let bytes = Builder.mul b W64 count (Builder.i64c esz) in
    let padded = Builder.add b W64 bytes (Builder.i64c pad) in
    let raw = Builder.malloc b ~name:label ~count:padded i8 in
    Builder.bitcast b (Ptr aug_ty) raw
  in
  let plain () =
    if extra_pad = 0 then Builder.malloc b ~name:"rep" ~count aug_ty
    else padded_request ~label:"rep.pad" extra_pad
  in
  match d with
  | Config.No_diversity | Config.Zero_before_free | Config.Pad_alloca _ -> plain ()
  | Config.Pad_malloc pad -> padded_request ~label:"rep.pad" (pad + extra_pad)
  | Config.Rearrange_heap ->
      (* allocate 1..20 dummies of the same request, allocate the replica,
         free the dummies — randomizing the replica's placement *)
      let buf =
        match state.rearrange_buf with
        | Some g -> Global g
        | None -> invalid_arg "Diversity: rearrange state missing"
      in
      let k =
        Builder.call1 b ~name:"k" (Direct "__dpmr_rand_range")
          [ Builder.i64c 1; Builder.i64c rearrange_slots ]
      in
      Builder.for_ b ~from:(Builder.i64c 0) ~below:k (fun j ->
          let dummy = Builder.malloc b ~count aug_ty in
          let dummy8 = Builder.bitcast b (Ptr i8) dummy in
          let slot = Builder.gep_index b buf j in
          Builder.store b (Ptr i8) dummy8 slot);
      let rep = plain () in
      Builder.for_ b ~from:(Builder.i64c 0) ~below:k (fun j ->
          let slot = Builder.gep_index b buf j in
          let dummy = Builder.load b (Ptr i8) slot in
          Builder.free b dummy);
      rep

(** Emit the replica deallocation for [free(p)]. *)
let emit_replica_free _state (d : Config.diversity) (b : Builder.t) rep_ptr =
  (match d with
  | Config.Zero_before_free ->
      (* zero the replica buffer prior to deallocation; lowered to a
         runtime call whose cost model matches the Table 2.8 store loop *)
      let p8 = Builder.bitcast b (Ptr i8) rep_ptr in
      let sz = Builder.call1 b (Direct "__dpmr_heap_size") [ p8 ] in
      Builder.call0 b (Direct "__dpmr_zero") [ p8; sz ]
  | Config.No_diversity | Config.Pad_malloc _ | Config.Rearrange_heap
  | Config.Pad_alloca _ -> ());
  Builder.free b rep_ptr

(** Emit the replica *stack* allocation: only the Pad_alloca extension
    diversifies it; everything else mirrors the application alloca. *)
let emit_replica_alloca _state (d : Config.diversity) (b : Builder.t) aug_ty count =
  match d with
  | Config.Pad_alloca pad ->
      let esz = Layout.size_of b.Builder.prog.Prog.tenv aug_ty in
      let bytes = Builder.mul b W64 count (Builder.i64c esz) in
      let padded = Builder.add b W64 bytes (Builder.i64c pad) in
      let raw = Builder.alloca b ~name:"rep.spad" ~count:padded i8 in
      Builder.bitcast b (Ptr aug_ty) raw
  | Config.No_diversity | Config.Pad_malloc _ | Config.Zero_before_free
  | Config.Rearrange_heap ->
      Builder.alloca b ~name:"rep" ~count aug_ty
