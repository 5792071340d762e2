(** The diversity-family registry's standard members.

    Each family implements {!Dpmr_core.Diversity_family.S} and targets a
    different axis of address-space decorrelation between the
    application and its replica (§2.6 generalized): where a replica
    object lands ([layout-perm]), a constant displacement approximating
    a distinct segment base ([segment-base]), and per-site request
    jitter ([pad-jitter]).

    All decisions derive from [(config seed, family name, site)] through
    {!Dpmr_core.Diversity_family.derive} — pure compile-time randomness,
    so the transformed program is a deterministic function of the
    configuration and results cache soundly.

    Field reordering (permuting struct layouts for the replica) is the
    one Table 2.8-adjacent family deliberately not implemented: it
    changes every [Gep_field] offset and the shadow-type layout, which
    the comparison-policy codegen is not prepared for (DESIGN.md §13
    records it as future work). *)

open Dpmr_ir
open Types
open Inst
module DF = Dpmr_core.Diversity_family

(** Displace the replica heap layout: before a replica allocation,
    allocate 1..3 seeded dummy blocks (16..256 bytes); free them after,
    so the replica lands past holes the application does not share. *)
module Layout_perm : DF.S = struct
  let name = "layout-perm"

  let description =
    "permute replica heap placement with seeded dummy allocations"

  type state = { seed : int64 }

  let prepare _prog ~seed = { seed }
  let alloc_pad _ ~site:_ = 0

  let pre_alloc st ~site b _aug_ty _count =
    let n = DF.rand_in ~lo:1 ~hi:3 (DF.derive ~seed:st.seed ~tag:name ~site) in
    List.init n (fun j ->
        let w = DF.derive ~seed:st.seed ~tag:(Printf.sprintf "%s/%d" name j) ~site in
        let sz = DF.rand_in ~lo:16 ~hi:256 w in
        Builder.malloc b ~name:"nv.dummy" ~count:(Builder.i64c sz) i8)

  let post_alloc _ ~site:_ b dummies = List.iter (Builder.free b) dummies
  let startup _ _ = ()

  (* Application-side analog: displace every application allocation by a
     seeded dummy (allocated before, freed after), so a re-execution
     puts victim objects elsewhere. *)
  let rx_rewrite prog ~seed =
    let q = Clone.prog prog in
    let site = ref 0 in
    Prog.iter_funcs q (fun f ->
        List.iter
          (fun (blk : Func.block) ->
            blk.Func.insts <-
              List.concat_map
                (fun inst ->
                  match inst with
                  | Malloc (r, ty, n) ->
                      let s = !site in
                      incr site;
                      let w = DF.derive ~seed ~tag:(name ^ "/rx") ~site:s in
                      let sz = DF.rand_in ~lo:32 ~hi:512 w in
                      let d = Func.fresh_reg f ~name:"nv_rx" (Ptr i8) in
                      [
                        Malloc (d, i8, Cint (W64, Int64.of_int sz));
                        Malloc (r, ty, n);
                        Free (Reg d);
                      ]
                  | other -> [ other ])
                blk.Func.insts)
          f.Func.blocks);
    q
end

(** Approximate a distinct segment base: every replica allocation grows
    by one seeded constant pad (32..512 bytes, 16-byte aligned),
    shearing the replica's whole address space against the
    application's.  An honest approximation — the simulator has one flat
    heap, so a true replica base register does not exist; DESIGN.md
    §13 documents the gap. *)
module Segment_base : DF.S = struct
  let name = "segment-base"
  let description = "replica-constant allocation displacement (segment-base shear)"

  type state = { pad : int }

  let replica_pad seed = DF.rand_in ~lo:2 ~hi:32 (DF.derive ~seed ~tag:name ~site:0) * 16
  let prepare _prog ~seed = { pad = replica_pad seed }
  let alloc_pad st ~site:_ = st.pad
  let pre_alloc _ ~site:_ _ _ _ = []
  let post_alloc _ ~site:_ _ _ = ()
  let startup _ _ = ()

  (* Application-side analog: shift every application request by the
     replica's constant. *)
  let rx_rewrite prog ~seed = Dpmr_core.Rx.pad_heap_requests prog (replica_pad seed)
end

(** Per-site request jitter: each replica allocation grows by 0..128
    bytes in 8-byte steps, decided independently per site — the
    Pad_malloc transform with a different, seeded pad at every site. *)
module Pad_jitter : DF.S = struct
  let name = "pad-jitter"
  let description = "seeded per-site request padding (0..128 bytes)"

  type state = { seed : int64 }

  let prepare _prog ~seed = { seed }
  let alloc_pad st ~site = DF.rand_in ~lo:0 ~hi:16 (DF.derive ~seed:st.seed ~tag:name ~site) * 8
  let pre_alloc _ ~site:_ _ _ _ = []
  let post_alloc _ ~site:_ _ _ = ()
  let startup _ _ = ()

  (* Application-side analog: a mid-range (64-byte) program-wide pad. *)
  let rx_rewrite prog ~seed =
    Dpmr_core.Rx.pad_heap_requests prog
      (DF.rand_in ~lo:8 ~hi:16 (DF.derive ~seed ~tag:"pad-jitter/rx" ~site:0) * 8)
end

let all : DF.family list = [ (module Layout_perm); (module Segment_base); (module Pad_jitter) ]

let registered = ref false

(** Register every standard family (idempotent).  Entry points that
    accept family names — the CLI, the serving daemon, the tests — call
    this before resolving configurations. *)
let ensure () =
  if not !registered then begin
    registered := true;
    List.iter DF.register all
  end
