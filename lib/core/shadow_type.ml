(** Shadow and augmented type computation.

    Implements [st()] (Table 2.1, Figure 2.5), [at()] (Table 2.3 for SDS,
    Table 4.1 for MDS, Figures 2.6/2.7), and the composed [(st ∘ at)()]
    (Table 2.5, Figure 2.8) in one calculation, plus the helper functions
    from the symbol list: [φ()] (shadow field indices), [rpt()] and
    [spt()] (replica/shadow parameter types).

    The dissertation's placeholder machinery (Figures 2.5–2.8) exists to
    handle recursive types: here recursion flows through *named* structs,
    so a placeholder is simply a declared-but-not-yet-defined struct name
    that we pre-register in the memo table before computing its body —
    recursive references then resolve through the table, and "placeholder
    resolution" is the final [define_struct].  The dynamic-programming
    caches ([ST], [AT], [SAT] in the figures) are the three hashtables
    below. *)

open Dpmr_ir
open Types

(** The C [void*]: our IR has no void pointer, so [i8*] stands in, exactly
    as the null-shadow NSOP placeholder type of Table 2.1. *)
let void_ptr = Ptr i8

type t = {
  tenv : Tenv.t;
  mode : Config.mode;
  st_cache : (ty, ty option) Hashtbl.t;
  at_cache : (ty, ty) Hashtbl.t;
  sat_cache : (ty, ty option) Hashtbl.t;
  fun_free : (string, bool) Hashtbl.t;  (** struct name -> contains fun type *)
}

let create tenv mode =
  {
    tenv;
    mode;
    st_cache = Hashtbl.create 64;
    at_cache = Hashtbl.create 64;
    sat_cache = Hashtbl.create 64;
    fun_free = Hashtbl.create 64;
  }

(** Does [t] transitively mention a function type?  [at()] is the identity
    on types that do not (it only rewrites function types), which lets us
    keep original struct names for the common case. *)
let rec contains_fun_ty ctx seen t =
  match t with
  | Fun _ -> true
  | Int _ | Float | Void -> false
  | Ptr e | Arr (e, _) -> contains_fun_ty ctx seen e
  | Struct n | Union n -> (
      match Hashtbl.find_opt ctx.fun_free n with
      | Some b -> b
      | None ->
          if List.mem n seen then false
          else
            let b =
              List.exists
                (contains_fun_ty ctx (n :: seen))
                (Tenv.fields ctx.tenv n)
            in
            Hashtbl.replace ctx.fun_free n b;
            b)

(* ------------------------------------------------------------------ *)
(* st(): Table 2.1                                                     *)
(* ------------------------------------------------------------------ *)

let rec st ctx t =
  match Hashtbl.find_opt ctx.st_cache t with
  | Some r -> r
  | None ->
      if not (contains_pointer_outside_fun_ty ctx.tenv t) then begin
        (* short-circuit of Figure 2.5 line 17; covers primitives,
           function types, void, and pointer-free aggregates *)
        Hashtbl.replace ctx.st_cache t None;
        None
      end
      else begin
        match t with
        | Ptr tau ->
            (* pre-register the named pair struct: this is the placeholder *)
            let name = Tenv.fresh_name ctx.tenv "sdw.ptr" in
            Tenv.declare_struct ctx.tenv name;
            Hashtbl.replace ctx.st_cache t (Some (Struct name));
            let nsop =
              match st ctx tau with None -> void_ptr | Some s -> Ptr s
            in
            Tenv.define_struct ctx.tenv name [ t; nsop ];
            Some (Struct name)
        | Arr (e, n) ->
            let r =
              match st ctx e with None -> None | Some s -> Some (Arr (s, n))
            in
            Hashtbl.replace ctx.st_cache t r;
            r
        | Struct sname | Union sname ->
            let is_union = (Tenv.body ctx.tenv sname).is_union in
            let name = Tenv.fresh_name ctx.tenv (sname ^ ".sdw") in
            Tenv.declare_struct ctx.tenv name;
            let self = if is_union then Union name else Struct name in
            Hashtbl.replace ctx.st_cache t (Some self);
            let fields = List.filter_map (st ctx) (Tenv.fields ctx.tenv sname) in
            if is_union then Tenv.define_union ctx.tenv name fields
            else Tenv.define_struct ctx.tenv name fields;
            Some self
        | Int _ | Float | Void | Fun _ -> assert false (* short-circuited *)
      end

(* ------------------------------------------------------------------ *)
(* sat() = (st ∘ at)(): Table 2.5, computed in one pass (Figure 2.8)   *)
(* ------------------------------------------------------------------ *)

let rec sat ctx t =
  match Hashtbl.find_opt ctx.sat_cache t with
  | Some r -> r
  | None ->
      (* at() preserves pointer structure outside function types, so the
         same short-circuit applies *)
      if not (contains_pointer_outside_fun_ty ctx.tenv t) then begin
        Hashtbl.replace ctx.sat_cache t None;
        None
      end
      else begin
        match t with
        | Ptr tau ->
            let name = Tenv.fresh_name ctx.tenv "satsdw.ptr" in
            Tenv.declare_struct ctx.tenv name;
            Hashtbl.replace ctx.sat_cache t (Some (Struct name));
            let nsop =
              match sat ctx tau with None -> void_ptr | Some s -> Ptr s
            in
            let rop = at ctx t in
            Tenv.define_struct ctx.tenv name [ rop; nsop ];
            Some (Struct name)
        | Arr (e, n) ->
            let r =
              match sat ctx e with None -> None | Some s -> Some (Arr (s, n))
            in
            Hashtbl.replace ctx.sat_cache t r;
            r
        | Struct sname | Union sname ->
            let is_union = (Tenv.body ctx.tenv sname).is_union in
            let name = Tenv.fresh_name ctx.tenv (sname ^ ".satsdw") in
            Tenv.declare_struct ctx.tenv name;
            let self = if is_union then Union name else Struct name in
            Hashtbl.replace ctx.sat_cache t (Some self);
            let fields = List.filter_map (sat ctx) (Tenv.fields ctx.tenv sname) in
            if is_union then Tenv.define_union ctx.tenv name fields
            else Tenv.define_struct ctx.tenv name fields;
            Some self
        | Int _ | Float | Void | Fun _ -> assert false
      end

(* ------------------------------------------------------------------ *)
(* at(): Table 2.3 (SDS) / Table 4.1 (MDS), Figures 2.6/2.7            *)
(* ------------------------------------------------------------------ *)

and at ctx t =
  match Hashtbl.find_opt ctx.at_cache t with
  | Some r -> r
  | None -> (
      match t with
      | Int _ | Float | Void ->
          Hashtbl.replace ctx.at_cache t t;
          t
      | Ptr tau ->
          if not (contains_fun_ty ctx [] t) then begin
            Hashtbl.replace ctx.at_cache t t;
            t
          end
          else begin
            (* Pre-registration is only needed for recursion, which flows
               through named structs (handled below); a raw [Ptr] chain to
               a function type is finite. *)
            let r = Ptr (at ctx tau) in
            Hashtbl.replace ctx.at_cache t r;
            r
          end
      | Arr (e, n) ->
          let r = if contains_fun_ty ctx [] t then Arr (at ctx e, n) else t in
          Hashtbl.replace ctx.at_cache t r;
          r
      | Struct sname | Union sname ->
          if not (contains_fun_ty ctx [] t) then begin
            Hashtbl.replace ctx.at_cache t t;
            t
          end
          else begin
            let is_union = (Tenv.body ctx.tenv sname).is_union in
            let name = Tenv.fresh_name ctx.tenv (sname ^ ".aug") in
            Tenv.declare_struct ctx.tenv name;
            let self = if is_union then Union name else Struct name in
            Hashtbl.replace ctx.at_cache t self;
            let fields = List.map (at ctx) (Tenv.fields ctx.tenv sname) in
            if is_union then Tenv.define_union ctx.tenv name fields
            else Tenv.define_struct ctx.tenv name fields;
            self
          end
      | Fun ft ->
          let r = Fun (at_fun ctx ft) in
          Hashtbl.replace ctx.at_cache t r;
          r)

(** rpt() — replica parameter type: [at(τ)*] for pointers, null otherwise. *)
and rpt ctx t = match t with Ptr _ -> Some (at ctx t) | _ -> None

(** spt() — shadow parameter type (SDS only): [st(at(τ))*] for pointer
    parameters whose pointee has a shadow, [void*] for pointer parameters
    whose pointee does not, null for non-pointers. *)
and spt ctx t =
  match t with
  | Ptr tau -> (
      match sat ctx tau with None -> Some void_ptr | Some s -> Some (Ptr s))
  | _ -> None

(** Augmented function type (the getAugFunTypeImpl of Figure 2.7). *)
and at_fun ctx (ft : fun_ty) =
  let rv_extra =
    match (ft.ret, ctx.mode) with
    | Ptr _, Config.Sds -> (
        (* rvSop: pointer to st(at(r)) — always non-null for pointer r *)
        match sat ctx ft.ret with
        | Some s -> [ Ptr s ]
        | None -> assert false)
    | Ptr _, Config.Mds -> [ Ptr (at ctx ft.ret) ]  (* rvRopPtr: rpt(r)* *)
    | _ -> []
  in
  let param_group p =
    let base = at ctx p in
    match (p, ctx.mode) with
    | Ptr _, Config.Sds -> [ base; Option.get (rpt ctx p); Option.get (spt ctx p) ]
    | Ptr _, Config.Mds -> [ base; Option.get (rpt ctx p) ]
    | _ -> [ base ]
  in
  {
    ret = at ctx ft.ret;
    params = rv_extra @ List.concat_map param_group ft.params;
    vararg = ft.vararg;
  }

(* ------------------------------------------------------------------ *)
(* φ() and layout helpers                                              *)
(* ------------------------------------------------------------------ *)

(** φ(): map field index [i] of struct [sname] to the index of the
    corresponding field in the shadow struct (Equation 2.2): the number of
    earlier fields with non-null shadows. *)
let phi ctx sname i =
  let fields = Tenv.fields ctx.tenv sname in
  let rec go j acc = function
    | [] -> invalid_arg "Shadow_type.phi: index out of range"
    | f :: rest ->
        if j = i then acc
        else go (j + 1) (acc + if sat ctx f <> None then 1 else 0) rest
  in
  go 0 0 fields

(** Shadow pointer type for a register of type [Ptr tau]: the declared
    type of its NSOP register. *)
let shadow_reg_ty ctx pointee =
  match sat ctx pointee with None -> void_ptr | Some s -> Ptr s
