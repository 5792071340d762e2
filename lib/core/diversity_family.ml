(** Pluggable diversity-transform families.

    The paper evaluates its replica under one diversity transformation
    (Table 2.8); the families are a registry of further transformations,
    each a module implementing {!S}, that stack on top of it.  A family
    observes every replica heap-allocation site and may (a) grow the
    request by a per-site pad, (b) emit dummy allocations before/after
    the replica allocation to displace its placement, and (c) emit
    one-time startup code in the synthesized [main].

    All family randomness is *compile-time* and derived purely from
    [(config seed, family name, site index)], so the transformed
    program — and therefore every cached verdict — is a deterministic
    function of the {!Config.t}.

    Implementations live in [lib/nversion] (the subsystem proper) and
    self-register here; the transform engine resolves names through
    {!find} and fails with a clear error when a family was named but the
    implementing library is not linked. *)

open Dpmr_ir

module type S = sig
  val name : string
  val description : string

  type state

  val prepare : Prog.t -> seed:int64 -> state

  (** Extra bytes appended to the replica request at allocation site
      [site] (0 = no pad). *)
  val alloc_pad : state -> site:int -> int

  (** Emitted immediately before the replica allocation at [site];
      returns the dummy pointers [post_alloc] must release.
      [aug_ty]/[count] describe the application request. *)
  val pre_alloc :
    state -> site:int -> Builder.t -> Types.ty -> Inst.operand -> Inst.operand list

  (** Emitted immediately after the replica allocation, receiving
      [pre_alloc]'s dummies. *)
  val post_alloc : state -> site:int -> Builder.t -> Inst.operand list -> unit

  (** One-time startup emission in the synthesized [main], before
      [mainAug] is called. *)
  val startup : state -> Builder.t -> unit

  (** Application-side Rx environment change: rewrite the (untransformed)
      program the way this family displaces replica objects, so a
      re-execution after detection can absorb the fault ([Rx]). *)
  val rx_rewrite : Prog.t -> seed:int64 -> Prog.t
end

type family = (module S)

(** A family applied to one program: [prepare]'s state packed with the
    hooks, so the transform engine needs no first-class-module plumbing
    per call. *)
type instance = {
  i_name : string;
  i_alloc_pad : site:int -> int;
  i_pre_alloc : site:int -> Builder.t -> Types.ty -> Inst.operand -> Inst.operand list;
  i_post_alloc : site:int -> Builder.t -> Inst.operand list -> unit;
  i_startup : Builder.t -> unit;
}

let instantiate (module F : S) prog ~seed =
  let st = F.prepare prog ~seed in
  {
    i_name = F.name;
    i_alloc_pad = F.alloc_pad st;
    i_pre_alloc = F.pre_alloc st;
    i_post_alloc = F.post_alloc st;
    i_startup = F.startup st;
  }

(* ---------------- registry ---------------- *)

let registry : (string, family) Hashtbl.t = Hashtbl.create 8

let register ((module F : S) as f) = Hashtbl.replace registry F.name f
let find name : family option = Hashtbl.find_opt registry name
let names () = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])

let description name =
  match find name with Some (module F) -> Some F.description | None -> None

(** Resolve a config's family-name list; [Error] names the first unknown
    family (callers turn this into a validation error, never an abort). *)
let resolve names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
        match find n with Some f -> go (f :: acc) rest | None -> Error n)
  in
  go [] names

(* ---------------- deterministic per-site randomness ---------------- *)

(** splitmix64 finalizer: a pure 64-bit mix, so family decisions depend
    only on the derivation inputs and never on hook call order. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fnv1a64 str =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    str;
  !h

(** [derive ~seed ~tag ~site] — the family's random word for one site
    decision.  The constant golden-ratio term is part of the derivation:
    family words, and through them every family build's IR and cache key,
    are pinned by test/golden/transform-digests.txt. *)
let derive ~seed ~tag ~site =
  mix64
    (Int64.logxor
       (Int64.add seed (fnv1a64 tag))
       (Int64.add 0x9e3779b97f4a7c15L
          (Int64.mul (Int64.of_int (site + 1)) 0xd1b54a32d192ed03L)))

(** Map a random word into [lo, hi] inclusive. *)
let rand_in ~lo ~hi x =
  if hi <= lo then lo
  else
    let span = Int64.of_int (hi - lo + 1) in
    lo + Int64.to_int (Int64.unsigned_rem x span)
