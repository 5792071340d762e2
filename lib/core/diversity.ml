(** Diversity transformations (Table 2.8), plus two extensions that
    decorrelate the replica's heap addresses per allocation site.

    Each transformation rewrites the *replica* side of heap allocation and
    deallocation; application behaviour is untouched, and under error-free
    execution replica state stays equal to application state.  Stack and
    global allocations keep the standard replica behaviour (§2.6 notes the
    same techniques could be applied there; the evaluated tool targets the
    heap). *)

open Dpmr_ir
open Types
open Inst
module Rng = Dpmr_memsim.Rng

(** Per-program state: rearrange-heap needs its scratch pointer buffer
    [B] (a global holding up to 20 pointers); layout-perm and pad-jitter
    draw their per-site choices from the config seed. *)
type state = { rearrange_buf : string option; seed : int64 }

let rearrange_slots = 20

(** Add any globals/externs the diversity transformation needs to the
    output program. *)
let prepare (d : Config.diversity) ~seed (dst : Prog.t) =
  match d with
  | Config.Rearrange_heap ->
      let name = "__dpmr_rearrange_buf" in
      Prog.add_global dst
        { Prog.gname = name; gty = arr (Ptr i8) rearrange_slots; ginit = Prog.Gzero };
      { rearrange_buf = Some name; seed }
  | Config.No_diversity | Config.Pad_malloc _ | Config.Zero_before_free
  | Config.Pad_alloca _ | Config.Layout_perm | Config.Pad_jitter ->
      { rearrange_buf = None; seed }

(* ---------------- deterministic per-site randomness ---------------- *)

(** [derive ~seed ~tag ~site] — the random word for one site decision.
    The tags and the constant golden-ratio term are part of the
    derivation: through them every layout-perm and pad-jitter build's IR
    is pinned by test/golden/transform-digests.txt.  The word is a pure
    splitmix64 mix, so a site's choice depends only on the derivation
    inputs and never on emission order. *)
let derive ~seed ~tag ~site =
  Rng.mix
    (Int64.logxor
       (Int64.add seed (Rng.fnv1a64 tag))
       (Int64.add 0x9e3779b97f4a7c15L
          (Int64.mul (Int64.of_int (site + 1)) 0xd1b54a32d192ed03L)))

(** Map a random word into [lo, hi] inclusive. *)
let rand_in ~lo ~hi x =
  if hi <= lo then lo
  else
    let span = Int64.of_int (hi - lo + 1) in
    lo + Int64.to_int (Int64.unsigned_rem x span)

(** Emit the replica heap allocation for an application allocation of
    [count] objects of (augmented) type [aug_ty].  Returns an operand of
    type [Ptr aug_ty].  [site] numbers the program's heap-allocation
    sites; only layout-perm and pad-jitter read it. *)
let emit_replica_malloc state (d : Config.diversity) ~site (b : Builder.t) aug_ty count =
  let padded_request ~label pad =
    (* replica request becomes a byte-array request of
       sizeof(aug) * count + pad, then cast back (Table 2.8) *)
    let esz = Layout.size_of b.Builder.prog.Prog.tenv aug_ty in
    let bytes = Builder.mul b W64 count (Builder.i64c esz) in
    let padded = Builder.add b W64 bytes (Builder.i64c pad) in
    let raw = Builder.malloc b ~name:label ~count:padded i8 in
    Builder.bitcast b (Ptr aug_ty) raw
  in
  let plain () = Builder.malloc b ~name:"rep" ~count aug_ty in
  match d with
  | Config.No_diversity | Config.Zero_before_free | Config.Pad_alloca _ -> plain ()
  | Config.Pad_malloc pad -> padded_request ~label:"rep.pad" pad
  | Config.Pad_jitter ->
      (* 0..128 bytes in 8-byte steps, drawn independently per site *)
      let pad = rand_in ~lo:0 ~hi:16 (derive ~seed:state.seed ~tag:"pad-jitter" ~site) * 8 in
      if pad = 0 then plain () else padded_request ~label:"rep.pad" pad
  | Config.Layout_perm ->
      (* allocate 1..3 seeded dummies of 16..256 bytes, allocate the
         replica, free the dummies — the replica lands past holes the
         application does not share *)
      let n = rand_in ~lo:1 ~hi:3 (derive ~seed:state.seed ~tag:"layout-perm" ~site) in
      let dummies =
        List.init n (fun j ->
            let w = derive ~seed:state.seed ~tag:(Printf.sprintf "layout-perm/%d" j) ~site in
            Builder.malloc b ~name:"nv.dummy" ~count:(Builder.i64c (rand_in ~lo:16 ~hi:256 w)) i8)
      in
      let rep = plain () in
      List.iter (Builder.free b) dummies;
      rep
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
  | Config.Pad_alloca _ | Config.Layout_perm | Config.Pad_jitter -> ());
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
  | Config.Rearrange_heap | Config.Layout_perm | Config.Pad_jitter ->
      Builder.alloca b ~name:"rep" ~count aug_ty
