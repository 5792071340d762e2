(** The DPMR code transformation engine.

    One parameterized engine implements both designs: Shadow Data
    Structures (Tables 2.6/2.7) and Mirrored Data Structures (Tables
    4.3/4.4).  The two differ only where the tables differ — shadow
    object allocation and addressing, pointer load/store mirroring, and
    the γ()/π() argument expansions — so those points branch on
    [cfg.mode]; everything else is shared.

    Inputs are never mutated: the engine reads the source program and
    builds a fresh program (with a copied, extended type environment). *)

open Dpmr_ir
open Types
open Inst

exception Unsupported of string
(** Raised when the input program violates the design's restrictions
    (§2.9 for SDS, §4.4 for MDS) — e.g. an int-to-pointer cast. *)

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

let is_intrinsic name =
  String.length name >= 2
  && (String.sub name 0 (min 7 (String.length name)) = "__dpmr_"
     || String.sub name 0 (min 5 (String.length name)) = "__fi_")

(** New-register group for an original register: the application register
    plus one replica register per replica ([reps] is empty for
    non-pointers) and the SDS shadow register.  With N = 1 this is the
    dissertation's (x, xr, xs) triple. *)
type triple = { app : reg; reps : reg array; shd : reg option }

(** Where an injected fault (§3.4) sits in the source program: its
    function and block, and the positions within that block of the
    instructions that exist only because of the fault.  The registers
    those instructions define are the fault's own. *)
type fault = { fault_func : string; fault_block : string; fault_insts : int list }

type env = {
  cfg : Config.t;
  stx : Shadow_type.t;
  src : Prog.t;
  dst : Prog.t;
  pol : Policy.state;
  div : Diversity.state;
  nrep : int;  (** replica count N (>= 1) *)
  fams : Diversity_family.instance list;
      (** resolved N-version diversity families, hook order = config order *)
  asite : int ref;  (** global heap-allocation-site counter (family seeding) *)
  excluded : string -> reg -> bool;
      (** Chapter 5 scope refinement: accesses through excluded registers
          (memory DSA cannot vouch for) keep their original behaviour and
          are left out of replication.  Always [false] without DSA. *)
  fault : fault option;  (** the injected fault's extent, if any *)
}

let rep_global g = g ^ ".rep"

(** Replica [k]'s global name: replica 0 keeps the paper's [".rep"]
    suffix; extras are numbered from 2. *)
let rep_global_k g k =
  if k = 0 then rep_global g else Printf.sprintf "%s.rep%d" g (k + 1)

let shd_global g = g ^ ".sdw"

(** Replica [k]'s register suffix for parameter/register names. *)
let rep_suffix k = if k = 0 then "_r" else Printf.sprintf "_r%d" (k + 1)

let efw_name n = n ^ "_efw"

let map_fun_name env n =
  if n = "main" then "mainAug"
  else if Prog.has_func env.src n then n
  else if is_intrinsic n then n
  else efw_name n

(* ------------------------------------------------------------------ *)
(* Global variables                                                    *)
(* ------------------------------------------------------------------ *)

(** Shadow initializer for a global of type [ty] with initializer [g]:
    keeps only pointer positions, each becoming an {ROP_1..ROP_N; NSOP}
    group ({ROP; NSOP} pair at N = 1; §2.8: replica/shadow memory for
    globals is statically initialized). *)
let rec shadow_ginit env ty (g : Prog.ginit) : Prog.ginit option =
  let tenv = env.dst.Prog.tenv in
  let pair rop nsop =
    Prog.Gagg (List.init env.nrep (fun _ -> rop) @ [ nsop ])
  in
  match ty with
  | Int _ | Float | Void | Fun _ -> None
  | Ptr _ -> (
      if Shadow_type.sat env.stx ty = None then None
      else
        match g with
        | Prog.Gptr_null | Prog.Gzero -> Some (pair Prog.Gptr_null Prog.Gptr_null)
        | Prog.Gptr_fun f ->
            (* address-of-function rule: ROP = same address, NSOP = null *)
            Some (pair (Prog.Gptr_fun f) Prog.Gptr_null)
        | Prog.Gptr_global target ->
            let target_has_shadow =
              Shadow_type.sat env.stx (Prog.global_ty env.src target) <> None
            in
            let nsop =
              if target_has_shadow then Prog.Gptr_global (shd_global target)
              else Prog.Gptr_null
            in
            Some (pair (Prog.Gptr_global target) nsop)
        | _ -> unsupported "global pointer cell with non-pointer initializer")
  | Arr (e, n) -> (
      match Shadow_type.sat env.stx ty with
      | None -> None
      | Some _ -> (
          match g with
          | Prog.Gzero -> Some Prog.Gzero
          | Prog.Gagg elems ->
              Some (Prog.Gagg (List.filter_map (shadow_ginit env e) elems))
          | _ ->
              ignore n;
              unsupported "array global with scalar initializer"))
  | Struct sname | Union sname -> (
      match Shadow_type.sat env.stx ty with
      | None -> None
      | Some _ -> (
          match g with
          | Prog.Gzero -> Some Prog.Gzero
          | Prog.Gagg elems ->
              let fields = Tenv.fields tenv sname in
              Some
                (Prog.Gagg
                   (List.concat
                      (List.map2
                         (fun fty fi ->
                           match shadow_ginit env fty fi with
                           | Some s -> [ s ]
                           | None -> [])
                         fields elems)))
          | _ -> unsupported "aggregate global with scalar initializer"))

(** SDS replica initializer: identical to the application initializer —
    stored pointer values are the same in both (Figure 2.3).  MDS replica
    [k]'s pointers point at replica [k]'s objects instead (Figure 2.2). *)
let rec replica_ginit env k ty (g : Prog.ginit) : Prog.ginit =
  match env.cfg.Config.mode with
  | Config.Sds -> g
  | Config.Mds -> (
      match (ty, g) with
      | Ptr _, Prog.Gptr_global target ->
          if Prog.has_global env.src target then
            Prog.Gptr_global (rep_global_k target k)
          else g
      | (Arr (e, _) | Ptr e), Prog.Gagg elems ->
          Prog.Gagg (List.map (replica_ginit env k e) elems)
      | (Struct sname | Union sname), Prog.Gagg elems ->
          let fields = Tenv.fields env.dst.Prog.tenv sname in
          Prog.Gagg (List.map2 (replica_ginit env k) fields elems)
      | _ -> g)

let transform_globals env =
  Prog.iter_globals env.src (fun g ->
      let aug_ty = Shadow_type.at env.stx g.Prog.gty in
      Prog.add_global env.dst { Prog.gname = g.Prog.gname; gty = aug_ty; ginit = g.Prog.ginit };
      for k = 0 to env.nrep - 1 do
        Prog.add_global env.dst
          {
            Prog.gname = rep_global_k g.Prog.gname k;
            gty = aug_ty;
            ginit = replica_ginit env k g.Prog.gty g.Prog.ginit;
          }
      done;
      if env.cfg.Config.mode = Config.Sds then
        match Shadow_type.sat env.stx g.Prog.gty with
        | Some sdw_ty ->
            let sinit =
              match shadow_ginit env g.Prog.gty g.Prog.ginit with
              | Some s -> s
              | None -> Prog.Gzero
            in
            Prog.add_global env.dst
              { Prog.gname = shd_global g.Prog.gname; gty = sdw_ty; ginit = sinit }
        | None -> ())

(* ------------------------------------------------------------------ *)
(* Function signatures                                                 *)
(* ------------------------------------------------------------------ *)

(** γ()-expanded parameter list plus the π() return-value parameter. *)
let augment_params env (f : Func.t) =
  let rv_extra =
    match (f.Func.ret, env.cfg.Config.mode) with
    | Ptr _, Config.Sds ->
        [ ("rvSop", Ptr (Option.get (Shadow_type.sat env.stx f.Func.ret))) ]
    | Ptr _, Config.Mds -> [ ("rvRopPtr", Ptr (Shadow_type.at env.stx f.Func.ret)) ]
    | _ -> []
  in
  let expand (r, ty) =
    let name = Func.reg_name f r in
    match ty with
    | Ptr pointee ->
        let aug = Shadow_type.at env.stx ty in
        let base =
          (name, aug)
          :: List.init env.nrep (fun k -> (name ^ rep_suffix k, aug))
        in
        if env.cfg.Config.mode = Config.Sds then
          base @ [ (name ^ "_s", Shadow_type.shadow_reg_ty env.stx pointee) ]
        else base
    | _ -> [ (name, Shadow_type.at env.stx ty) ]
  in
  rv_extra @ List.concat_map expand f.Func.params

(* ------------------------------------------------------------------ *)
(* Function bodies                                                     *)
(* ------------------------------------------------------------------ *)

type fn_ctx = {
  env : env;
  sf : Func.t;  (** source function *)
  df : Func.t;  (** destination function *)
  triples : (reg, triple) Hashtbl.t;
  rv_param : reg option;  (** rvSop / rvRopPtr parameter of [df] *)
  mutable detect_label : string option;
  mutable site : int;
  rv_slots : (ty, reg) Hashtbl.t;
      (** per-type rvSop/rvRopPtr stack slots, hoisted to the entry block
          so call sites in loops do not grow the stack *)
  mutable entry_allocas : inst list;
  mutable late_regs : reg list;
      (** destination registers that exist only because of the fault *)
  mutable late_blocks : Func.block list;  (** same, for blocks *)
}

(** A stack slot for a call-site return channel, allocated once per
    function in the entry block and reused across call sites.  [count]
    (default 1) sizes the slot: MDS with N > 1 returns N ROPs through
    an N-element rvRopPtr buffer. *)
let rv_slot c ?(count = 1) ty =
  match Hashtbl.find_opt c.rv_slots ty with
  | Some r -> Reg r
  | None ->
      let r = Func.fresh_reg c.df ~name:"rvslot" (Ptr ty) in
      c.entry_allocas <-
        Alloca (r, ty, Cint (W64, Int64.of_int count)) :: c.entry_allocas;
      Hashtbl.replace c.rv_slots ty r;
      Reg r

let sds c = c.env.cfg.Config.mode = Config.Sds

(** Allocate destination registers for every source register, in
    ascending source-register order so the numbering does not depend on
    the register table's layout. *)
let make_triples env (sf : Func.t) (df : Func.t) rv_param_count =
  let triples = Hashtbl.create 32 in
  (* parameters first: their destination registers are the declared params *)
  let dparams = Array.of_list (List.map fst df.Func.params) in
  let cursor = ref rv_param_count in
  List.iter
    (fun (r, ty) ->
      match ty with
      | Ptr _ ->
          let app = dparams.(!cursor) in
          let reps = Array.init env.nrep (fun k -> dparams.(!cursor + 1 + k)) in
          let shd =
            if env.cfg.Config.mode = Config.Sds then
              Some dparams.(!cursor + 1 + env.nrep)
            else None
          in
          cursor :=
            !cursor + 1 + env.nrep
            + (if env.cfg.Config.mode = Config.Sds then 1 else 0);
          Hashtbl.replace triples r { app; reps; shd }
      | _ ->
          Hashtbl.replace triples r { app = dparams.(!cursor); reps = [||]; shd = None };
          incr cursor)
    sf.Func.params;
  (* remaining registers *)
  let regs = Hashtbl.fold (fun r ty acc -> (r, ty) :: acc) sf.Func.reg_tys [] in
  List.iter
    (fun (r, ty) ->
      if not (Hashtbl.mem triples r) then
        let name = Func.reg_name sf r in
        match ty with
        | Ptr pointee ->
            let aug = Shadow_type.at env.stx ty in
            let app = Func.fresh_reg df ~name aug in
            let reps =
              Array.init env.nrep (fun k ->
                  Func.fresh_reg df ~name:(name ^ rep_suffix k) aug)
            in
            let shd =
              if env.cfg.Config.mode = Config.Sds then
                Some
                  (Func.fresh_reg df ~name:(name ^ "_s")
                     (Shadow_type.shadow_reg_ty env.stx pointee))
              else None
            in
            Hashtbl.replace triples r { app; reps; shd }
        | _ ->
            let app = Func.fresh_reg df ~name (Shadow_type.at env.stx ty) in
            Hashtbl.replace triples r { app; reps = [||]; shd = None })
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) regs);
  triples

let triple_of c r =
  match Hashtbl.find_opt c.triples r with
  | Some t -> t
  | None -> unsupported "%s: register %d has no destination mapping" c.sf.Func.name r

(** Is [o] a register DSA excluded from replication? *)
let excl c (o : operand) =
  match o with Reg r -> c.env.excluded c.sf.Func.name r | _ -> false

(** Mark a pointer definition as unreplicated: its replica register takes
    the application value (and its shadow, if any, goes null).  Values
    flowing out of excluded memory stay consistent this way: replica
    stores of them write the application pointer, and dereferences of them
    are themselves excluded by the DSA reachability closure. *)
let set_unreplicated c b dst_reg =
  let t = triple_of c dst_reg in
  Array.iter
    (fun r -> Builder.emit b (Bitcast (r, Func.reg_ty c.df r, Reg t.app)))
    t.reps;
  match t.shd with
  | Some s -> Builder.emit b (Bitcast (s, Func.reg_ty c.df s, Null i8))
  | None -> ()

(** Map an operand to its (application, replicas, shadow) destination
    operands.  For non-pointer operands every replica = application
    (non-memory computation is not replicated, §2.1) and shadow is
    unused. *)
let map_operand c (o : operand) =
  let n = c.env.nrep in
  match o with
  | Reg r ->
      let t = triple_of c r in
      let reps =
        if Array.length t.reps = 0 then Array.make n (Reg t.app)
        else Array.map (fun r' -> Reg r') t.reps
      in
      let shd = match t.shd with Some s -> Reg s | None -> Null i8 in
      (Reg t.app, reps, shd)
  | Cint _ | Cfloat _ -> (o, Array.make n o, Null i8)
  | Null t ->
      let aug = Shadow_type.at c.env.stx t in
      (Null aug, Array.make n (Null aug), Null i8)
  | Global g ->
      let reps = Array.init n (fun k -> Global (rep_global_k g k)) in
      let shd =
        if sds c && Prog.has_global c.env.dst (shd_global g) then
          Global (shd_global g)
        else Null i8
      in
      (Global g, reps, shd)
  | Fun_addr fn ->
      (* address-of-function rule: ROP = same value, NSOP = null *)
      let fn' = map_fun_name c.env fn in
      (Fun_addr fn', Array.make n (Fun_addr fn'), Null i8)

let app_op c o = let a, _, _ = map_operand c o in a
let rep_ops c o = let _, r, _ = map_operand c o in r
let shd_op c o = let _, _, s = map_operand c o in s

(** The per-function detection block: [call __dpmr_detect(id); unreachable]. *)
let detect_label c (b : Builder.t) =
  match c.detect_label with
  | Some l -> l
  | None ->
      let blk = Func.add_block c.df "dpmr.detect" in
      let save = b.Builder.cur in
      Builder.position b blk;
      Builder.call0 b (Direct "__dpmr_detect") [ Builder.i64c c.site ];
      Builder.unreachable b;
      Builder.position b save;
      c.detect_label <- Some blk.Func.label;
      blk.Func.label

(** The [xs <- null] cases of Table 2.6, materialized as a cast into the
    shadow register (which keeps its declared type). *)
let set_shd_null c b (t : triple) =
  match t.shd with
  | Some s ->
      let ty = Func.reg_ty c.df s in
      Builder.emit b (Bitcast (s, ty, Null i8))
  | None -> ()

(** Pointee type of a source pointer register/operand (static type). *)
let src_pointee c o =
  match Prog.operand_ty c.env.src c.sf o with
  | Ptr t -> t
  | t -> unsupported "%s: expected pointer operand, got %a" c.sf.Func.name Types.pp t

(** Shadow struct name for pointer cells of (source) pointee type [t]:
    sat(Ptr t) is always an {ROP_1..ROP_N; NSOP} struct (a two-field
    {ROP; NSOP} pair at N = 1). *)
let pair_struct c cell_ty =
  match Shadow_type.sat c.env.stx (Ptr cell_ty) with
  | Some (Struct s) -> s
  | _ -> assert false

(** Compose the diversity families' per-site permutations of the replica
    emission order into one permutation of [0 .. n-1]. *)
let replica_order c ~site =
  let n = c.env.nrep in
  let order = Array.init n (fun i -> i) in
  List.fold_left
    (fun acc fam ->
      let p = fam.Diversity_family.i_order ~site ~n in
      Array.init n (fun i -> acc.(p.(i))))
    order c.env.fams

(* --- the per-instruction transformation (Tables 2.6/2.7, 4.3/4.4) --- *)

let transform_alloc c b ~heap dst_reg src_ty count =
  let t = triple_of c dst_reg in
  let aug = Shadow_type.at c.env.stx src_ty in
  let n_app = app_op c count in
  if heap then begin
    Builder.emit b (Malloc (t.app, aug, n_app));
    let site = !(c.env.asite) in
    c.env.asite := site + 1;
    (* replica allocations in the (family-permuted) emission order; each
       family may pad the request and surround it with dummy allocations *)
    Array.iter
      (fun k ->
        let extra =
          List.fold_left
            (fun acc f -> acc + f.Diversity_family.i_alloc_pad ~replica:k ~site)
            0 c.env.fams
        in
        let pres =
          List.map
            (fun f ->
              (f, f.Diversity_family.i_pre_alloc ~replica:k ~site b aug n_app))
            c.env.fams
        in
        let rep_val =
          Diversity.emit_replica_malloc c.env.div c.env.cfg.Config.diversity
            ~extra_pad:extra b aug n_app
        in
        List.iter
          (fun (f, ds) -> f.Diversity_family.i_post_alloc ~replica:k ~site b ds)
          (List.rev pres);
        match rep_val with
        | Reg src -> Builder.emit b (Bitcast (t.reps.(k), Ptr aug, Reg src))
        | _ -> assert false)
      (replica_order c ~site);
    if sds c then
      match (Shadow_type.sat c.env.stx src_ty, t.shd) with
      | Some sdw, Some s -> Builder.emit b (Malloc (s, sdw, n_app))
      | None, Some _ -> set_shd_null c b t
      | _, None -> ()
  end
  else begin
    Builder.emit b (Alloca (t.app, aug, n_app));
    Array.iter
      (fun rk ->
        let rep_val =
          Diversity.emit_replica_alloca c.env.div c.env.cfg.Config.diversity b
            aug n_app
        in
        match rep_val with
        | Reg src -> Builder.emit b (Bitcast (rk, Ptr aug, Reg src))
        | _ -> assert false)
      t.reps;
    if sds c then
      match (Shadow_type.sat c.env.stx src_ty, t.shd) with
      | Some sdw, Some s -> Builder.emit b (Alloca (s, sdw, n_app))
      | None, Some _ -> set_shd_null c b t
      | _, None -> ()
  end

let transform_free c b p =
  Builder.free b (app_op c p);
  Array.iter
    (fun rp ->
      Diversity.emit_replica_free c.env.div c.env.cfg.Config.diversity b rp)
    (rep_ops c p);
  if sds c then begin
    (* if (ps != null) { free(ps) } — runtime check, in case the static
       type is not precise enough (Table 2.6) *)
    let s = shd_op c p in
    match s with
    | Null _ -> ()
    | _ ->
        let si = Builder.ptr_to_int b s in
        let nz = Builder.icmp b Ine W64 si (Builder.i64c 0) in
        Builder.if_ b nz (fun () -> Builder.free b s)
  end

let transform_load c b dst_reg ty p =
  let t = triple_of c dst_reg in
  let aug_ty = Shadow_type.at c.env.stx ty in
  Builder.emit b (Load (t.app, aug_ty, app_op c p));
  let is_ptr = is_pointer ty in
  let do_check =
    (* under MDS, loads that return pointers are never compared — the
       pointers differ by definition (§4.2) *)
    (not is_ptr) || sds c
  in
  if do_check then begin
    let lbl = detect_label c b in
    c.site <- c.site + 1;
    ignore
      (Policy.emit_check c.env.pol c.env.cfg.Config.policy
         c.env.cfg.Config.vote b aug_ty (Reg t.app)
         (Array.to_list (rep_ops c p)) lbl)
  end;
  if is_ptr then
    if sds c then begin
      (* xr_k <- (ps->rop_k); xs <- (ps->nsop) *)
      let cell = src_pointee c p in
      let pair = pair_struct c cell in
      let ps = shd_op c p in
      (match ps with
      | Null _ ->
          unsupported "%s: pointer load through null shadow (restriction %s)"
            c.sf.Func.name "2.9"
      | _ -> ());
      Array.iteri
        (fun k rk ->
          let rop_addr =
            Func.fresh_reg c.df (Ptr (Shadow_type.at c.env.stx cell))
          in
          Builder.emit b (Gep_field (rop_addr, pair, ps, k));
          Builder.emit b (Load (rk, aug_ty, Reg rop_addr)))
        t.reps;
      let nsop_ty = Func.reg_ty c.df (Option.get t.shd) in
      let nsop_addr = Func.fresh_reg c.df (Ptr nsop_ty) in
      Builder.emit b (Gep_field (nsop_addr, pair, ps, c.env.nrep));
      Builder.emit b (Load (Option.get t.shd, nsop_ty, Reg nsop_addr))
    end
    else
      (* MDS: xr_k <- *pr_k *)
      let prs = rep_ops c p in
      Array.iteri (fun k rk -> Builder.emit b (Load (rk, aug_ty, prs.(k)))) t.reps

let transform_store c b ty v p =
  let aug_ty = Shadow_type.at c.env.stx ty in
  let v_app, v_reps, v_shd = map_operand c v in
  Builder.store b aug_ty v_app (app_op c p);
  let is_ptr = is_pointer ty in
  (* SDS stores the identical value to every replica memory (comparable
     pointers, Figure 2.3); MDS stores replica k's ROP to replica k
     (Figure 2.2). *)
  let prs = rep_ops c p in
  Array.iteri
    (fun k pr ->
      let rep_value = if sds c then v_app else v_reps.(k) in
      Builder.store b aug_ty rep_value pr)
    prs;
  if is_ptr && sds c then begin
    let cell = src_pointee c p in
    let pair = pair_struct c cell in
    let ps = shd_op c p in
    (match ps with
    | Null _ ->
        unsupported "%s: pointer store through null shadow (restriction 2.9)"
          c.sf.Func.name
    | _ -> ());
    let rop_ty = Shadow_type.at c.env.stx cell in
    Array.iteri
      (fun k vr ->
        let rop_addr = Func.fresh_reg c.df (Ptr rop_ty) in
        Builder.emit b (Gep_field (rop_addr, pair, ps, k));
        Builder.store b rop_ty vr (Reg rop_addr))
      v_reps;
    let nsop_ty =
      List.nth (Tenv.fields c.env.dst.Prog.tenv pair) c.env.nrep
    in
    let nsop_addr = Func.fresh_reg c.df (Ptr nsop_ty) in
    Builder.emit b (Gep_field (nsop_addr, pair, ps, c.env.nrep));
    Builder.store b nsop_ty v_shd (Reg nsop_addr)
  end

let transform_gep_field c b dst_reg sname p i =
  let t = triple_of c dst_reg in
  let aug_sname =
    match Shadow_type.at c.env.stx (Struct sname) with
    | Struct s | Union s -> s
    | _ -> assert false
  in
  Builder.emit b (Gep_field (t.app, aug_sname, app_op c p, i));
  let prs = rep_ops c p in
  Array.iteri
    (fun k r -> Builder.emit b (Gep_field (r, aug_sname, prs.(k), i)))
    t.reps;
  if sds c then
    let field_ty = List.nth (Tenv.fields c.env.src.Prog.tenv sname) i in
    match (Shadow_type.sat c.env.stx field_ty, t.shd) with
    | Some _, Some s -> (
        match Shadow_type.sat c.env.stx (Struct sname) with
        | Some (Struct sdw_name) | Some (Union sdw_name) -> (
            let ps = shd_op c p in
            match ps with
            | Null _ ->
                unsupported "%s: field address through null shadow" c.sf.Func.name
            | _ ->
                Builder.emit
                  b
                  (Gep_field (s, sdw_name, ps, Shadow_type.phi c.env.stx sname i)))
        | _ -> unsupported "%s: struct has pointer field but no shadow" c.sf.Func.name)
    | None, Some _ -> set_shd_null c b t
    | _, None -> ()

let transform_gep_index c b dst_reg ety p i =
  let t = triple_of c dst_reg in
  let aug_e = Shadow_type.at c.env.stx ety in
  let i_app = app_op c i in
  Builder.emit b (Gep_index (t.app, aug_e, app_op c p, i_app));
  let prs = rep_ops c p in
  Array.iteri
    (fun k r -> Builder.emit b (Gep_index (r, aug_e, prs.(k), i_app)))
    t.reps;
  if sds c then
    match (Shadow_type.sat c.env.stx ety, t.shd) with
    | Some sdw_e, Some s -> (
        let ps = shd_op c p in
        match ps with
        | Null _ ->
            unsupported "%s: element address through null shadow" c.sf.Func.name
        | _ -> Builder.emit b (Gep_index (s, sdw_e, ps, i_app)))
    | None, Some _ -> set_shd_null c b t
    | _, None -> ()

let transform_bitcast c b dst_reg target p =
  let t = triple_of c dst_reg in
  let pointee = match target with Ptr e -> e | _ -> unsupported "bitcast to non-pointer" in
  let aug_target = Ptr (Shadow_type.at c.env.stx pointee) in
  Builder.emit b (Bitcast (t.app, aug_target, app_op c p));
  let prs = rep_ops c p in
  Array.iteri
    (fun k r -> Builder.emit b (Bitcast (r, aug_target, prs.(k))))
    t.reps;
  if sds c then
    match t.shd with
    | Some s ->
        let sty = Shadow_type.shadow_reg_ty c.env.stx pointee in
        Builder.emit b (Bitcast (s, sty, shd_op c p))
    | None -> ()

(** Compute the sdwSize extra argument for the qsort/memcpy/memmove
    wrappers (§3.1.5): look through bitcasts to the operand's pre-cast
    type to recover the "real" element type. *)
let rec original_pointee c (defs : (reg, inst) Hashtbl.t) (o : operand) =
  match o with
  | Reg r -> (
      match Hashtbl.find_opt defs r with
      | Some (Bitcast (_, _, src)) -> original_pointee c defs src
      | _ -> (
          match Func.reg_ty c.sf r with Ptr t -> Some t | _ -> None))
  | Global g -> Some (Prog.global_ty c.env.src g)
  | Null t -> Some t
  | _ -> None

let elem_of = function Arr (e, _) -> e | t -> t

let sdw_size_arg c defs callee args =
  match (c.env.cfg.Config.mode, callee, args) with
  | Config.Sds, "qsort", base :: _ ->
      let esz =
        match original_pointee c defs base with
        | Some t -> (
            match Shadow_type.sat c.env.stx (elem_of t) with
            | Some s -> Layout.size_of c.env.dst.Prog.tenv s
            | None -> 0)
        | None -> 0
      in
      Some (Builder.i64c esz)
  | Config.Sds, ("memcpy" | "memmove"), dst :: _ ->
      (* total shadow bytes corresponding to the copied region: scale n by
         sizeof(shadow elem) / sizeof(elem) *)
      let scale =
        match original_pointee c defs dst with
        | Some t -> (
            let e = elem_of t in
            match Shadow_type.sat c.env.stx e with
            | Some s ->
                Some
                  ( Layout.size_of c.env.dst.Prog.tenv s,
                    Layout.size_of c.env.dst.Prog.tenv e )
            | None -> None)
        | None -> None
      in
      Some
        (match scale with
        | None -> Builder.i64c 0
        | Some (ssz, esz) -> Builder.i64c ((ssz lsl 16) lor esz)
          (* packed (shadow elem size << 16 | elem size); the wrapper
             unpacks and scales the runtime length *))
  | _ -> None

let transform_call c b defs dst_reg callee args =
  (* intrinsics pass through untransformed (application operands only) *)
  (match callee with
  | Direct n when is_intrinsic n ->
      let args' = List.map (app_op c) args in
      let dst' = Option.map (fun r -> (triple_of c r).app) dst_reg in
      Builder.emit b (Call (dst', Direct n, args'))
  | _ ->
      let sig_ =
        match callee with
        | Direct n -> Prog.fun_sig c.env.src n
        | Indirect o -> (
            match Prog.operand_ty c.env.src c.sf o with
            | Ptr (Fun ft) -> ft
            | t -> unsupported "indirect call through %a" Types.pp t)
      in
      let callee' =
        match callee with
        | Direct n -> Direct (map_fun_name c.env n)
        | Indirect o -> Indirect (app_op c o)
      in
      let nfixed = List.length sig_.params in
      let fixed_args = List.filteri (fun i _ -> i < nfixed) args in
      let var_args = List.filteri (fun i _ -> i >= nfixed) args in
      (* γ(): each fixed pointer argument becomes (arg, ROP_1..ROP_N[, NSOP]) *)
      let expand_fixed p a =
        match p with
        | Ptr _ ->
            let app, reps, shd = map_operand c a in
            let base = app :: Array.to_list reps in
            if sds c then base @ [ shd ] else base
        | _ -> [ app_op c a ]
      in
      let fixed' = List.concat (List.map2 expand_fixed sig_.params fixed_args) in
      (* variable-length argument lists: original values stay in place;
         ROPs (and NSOPs under SDS) are appended at the end (§3.1.2) *)
      let var_app = List.map (app_op c) var_args in
      let var_extra =
        List.concat_map
          (fun a ->
            let _, reps, shd = map_operand c a in
            let rl = Array.to_list reps in
            if sds c then rl @ [ shd ] else rl)
          var_args
      in
      (* π(): return-value ROP/NSOP channel *)
      let rv_alloca =
        match (sig_.ret, c.env.cfg.Config.mode) with
        | Ptr _, Config.Sds ->
            let pair_ty = Option.get (Shadow_type.sat c.env.stx sig_.ret) in
            Some (rv_slot c pair_ty, pair_ty)
        | Ptr _, Config.Mds ->
            let pty = Shadow_type.at c.env.stx sig_.ret in
            Some (rv_slot c ~count:c.env.nrep pty, pty)
        | _ -> None
      in
      let rv_args = match rv_alloca with Some (a, _) -> [ a ] | None -> [] in
      let sdw_extra =
        match callee with
        | Direct n when Prog.is_extern c.env.src n -> (
            match sdw_size_arg c defs n args with Some a -> [ a ] | None -> [])
        | _ -> []
      in
      let all_args = sdw_extra @ rv_args @ fixed' @ var_app @ var_extra in
      let dst' = Option.map (fun r -> (triple_of c r).app) dst_reg in
      Builder.emit b (Call (dst', callee', all_args));
      (* unload the returned ROPs/NSOP *)
      match (dst_reg, rv_alloca) with
      | Some r, Some (slot, slot_ty) -> (
          let t = triple_of c r in
          match c.env.cfg.Config.mode with
          | Config.Sds ->
              let pair =
                match slot_ty with Struct s -> s | _ -> assert false
              in
              let rop_ty = Func.reg_ty c.df t.app in
              Array.iteri
                (fun k rk ->
                  let ak = Func.fresh_reg c.df (Ptr rop_ty) in
                  Builder.emit b (Gep_field (ak, pair, slot, k));
                  Builder.emit b (Load (rk, rop_ty, Reg ak)))
                t.reps;
              let nsop_ty = Func.reg_ty c.df (Option.get t.shd) in
              let a1 = Func.fresh_reg c.df (Ptr nsop_ty) in
              Builder.emit b (Gep_field (a1, pair, slot, c.env.nrep));
              Builder.emit b (Load (Option.get t.shd, nsop_ty, Reg a1))
          | Config.Mds ->
              if c.env.nrep = 1 then
                Builder.emit b (Load (t.reps.(0), slot_ty, slot))
              else
                Array.iteri
                  (fun k rk ->
                    let ak = Func.fresh_reg c.df (Ptr slot_ty) in
                    Builder.emit b (Gep_index (ak, slot_ty, slot, Builder.i64c k));
                    Builder.emit b (Load (rk, slot_ty, Reg ak)))
                  t.reps)
      | _ -> ())

let transform_ret c b o =
  match o with
  | None -> Builder.ret0 b
  | Some v -> (
      let v_app, v_reps, v_shd = map_operand c v in
      match (Prog.operand_ty c.env.src c.sf v, c.rv_param) with
      | Ptr _, Some rv -> (
          match c.env.cfg.Config.mode with
          | Config.Sds ->
              let pair =
                match Func.reg_ty c.df rv with
                | Ptr (Struct s) -> s
                | _ -> assert false
              in
              let fields = Tenv.fields c.env.dst.Prog.tenv pair in
              let rop_ty = List.nth fields 0
              and nsop_ty = List.nth fields c.env.nrep in
              Array.iteri
                (fun k vr ->
                  let ak = Func.fresh_reg c.df (Ptr rop_ty) in
                  Builder.emit b (Gep_field (ak, pair, Reg rv, k));
                  Builder.store b rop_ty vr (Reg ak))
                v_reps;
              let a1 = Func.fresh_reg c.df (Ptr nsop_ty) in
              Builder.emit b (Gep_field (a1, pair, Reg rv, c.env.nrep));
              Builder.store b nsop_ty v_shd (Reg a1);
              Builder.ret b (Some v_app)
          | Config.Mds ->
              let pty = match Func.reg_ty c.df rv with Ptr t -> t | _ -> assert false in
              if c.env.nrep = 1 then Builder.store b pty v_reps.(0) (Reg rv)
              else
                Array.iteri
                  (fun k vr ->
                    let ak = Func.fresh_reg c.df (Ptr pty) in
                    Builder.emit b (Gep_index (ak, pty, Reg rv, Builder.i64c k));
                    Builder.store b pty vr (Reg ak))
                  v_reps;
              Builder.ret b (Some v_app))
      | _ -> Builder.ret b (Some v_app))

let transform_select c b dst_reg ty cond a0 a1 =
  let t = triple_of c dst_reg in
  let cond' = app_op c cond in
  let aug = Shadow_type.at c.env.stx ty in
  Builder.emit b (Select (t.app, aug, cond', app_op c a0, app_op c a1));
  let r0 = rep_ops c a0 and r1 = rep_ops c a1 in
  Array.iteri
    (fun k r -> Builder.emit b (Select (r, aug, cond', r0.(k), r1.(k))))
    t.reps;
  match t.shd with
  | Some s ->
      let sty = Func.reg_ty c.df s in
      let cast o =
        match o with
        | Null _ -> Null i8
        | _ -> o
      in
      let s0 = Func.fresh_reg c.df sty and s1 = Func.fresh_reg c.df sty in
      Builder.emit b (Bitcast (s0, sty, cast (shd_op c a0)));
      Builder.emit b (Bitcast (s1, sty, cast (shd_op c a1)));
      Builder.emit b (Select (s, sty, cond', Reg s0, Reg s1))
  | None -> ()

let transform_inst c b defs inst =
  match inst with
  (* --- Chapter 5 exclusions: accesses DSA cannot vouch for keep their
     original behaviour and leave replication alone --- *)
  | Malloc (r, ty, n) when excl c (Reg r) ->
      Builder.emit
        b
        (Malloc ((triple_of c r).app, Shadow_type.at c.env.stx ty, app_op c n));
      set_unreplicated c b r
  | Alloca (r, ty, n) when excl c (Reg r) ->
      Builder.emit
        b
        (Alloca ((triple_of c r).app, Shadow_type.at c.env.stx ty, app_op c n));
      set_unreplicated c b r
  | Free p when excl c p -> Builder.free b (app_op c p)
  | Load (r, ty, p) when excl c p ->
      Builder.emit b (Load ((triple_of c r).app, Shadow_type.at c.env.stx ty, app_op c p));
      if is_pointer ty then set_unreplicated c b r
  | Store (ty, v, p) when excl c p ->
      Builder.store b (Shadow_type.at c.env.stx ty) (app_op c v) (app_op c p)
  | Gep_field (r, s, p, i) when excl c p ->
      let aug_s =
        match Shadow_type.at c.env.stx (Struct s) with
        | Struct s' | Union s' -> s'
        | _ -> assert false
      in
      Builder.emit b (Gep_field ((triple_of c r).app, aug_s, app_op c p, i));
      set_unreplicated c b r
  | Gep_index (r, e, p, i) when excl c p ->
      Builder.emit
        b
        (Gep_index ((triple_of c r).app, Shadow_type.at c.env.stx e, app_op c p, app_op c i));
      set_unreplicated c b r
  | Bitcast (r, ty, p) when excl c p ->
      let pointee = match ty with Ptr e -> e | _ -> unsupported "bitcast to non-pointer" in
      Builder.emit
        b
        (Bitcast ((triple_of c r).app, Ptr (Shadow_type.at c.env.stx pointee), app_op c p));
      set_unreplicated c b r
  | Int_to_ptr (r, ty, v) when excl c (Reg r) ->
      (* permitted exactly when DSA has excluded the manufactured pointer
         (Unknown + int-to-ptr node, closed under reachability) *)
      Builder.emit
        b
        (Int_to_ptr ((triple_of c r).app, Ptr (Shadow_type.at c.env.stx
            (match ty with Ptr e -> e | t -> t)), app_op c v));
      set_unreplicated c b r
  (* --- standard transformation --- *)
  | Malloc (r, ty, n) -> transform_alloc c b ~heap:true r ty n
  | Alloca (r, ty, n) -> transform_alloc c b ~heap:false r ty n
  | Free p -> transform_free c b p
  | Load (r, ty, p) -> transform_load c b r ty p
  | Store (ty, v, p) -> transform_store c b ty v p
  | Gep_field (r, s, p, i) -> transform_gep_field c b r s p i
  | Gep_index (r, e, p, i) -> transform_gep_index c b r e p i
  | Bitcast (r, ty, p) -> transform_bitcast c b r ty p
  | Ptr_to_int (r, p) ->
      Builder.emit b (Ptr_to_int ((triple_of c r).app, app_op c p))
  | Int_to_ptr _ ->
      unsupported
        "%s: int-to-pointer casts are not allowed under SDS/MDS (§2.9, §4.4) \
         without the Chapter 5 DSA scope expansion"
        c.sf.Func.name
  | Binop (r, op, w, a, b') ->
      Builder.emit b (Binop ((triple_of c r).app, op, w, app_op c a, app_op c b'))
  | Fbinop (r, op, a, b') ->
      Builder.emit b (Fbinop ((triple_of c r).app, op, app_op c a, app_op c b'))
  | Icmp (r, cond, w, a, b') ->
      Builder.emit b (Icmp ((triple_of c r).app, cond, w, app_op c a, app_op c b'))
  | Fcmp (r, cond, a, b') ->
      Builder.emit b (Fcmp ((triple_of c r).app, cond, app_op c a, app_op c b'))
  | Int_cast (r, w, s, v) ->
      Builder.emit b (Int_cast ((triple_of c r).app, w, s, app_op c v))
  | F_to_i (r, w, v) -> Builder.emit b (F_to_i ((triple_of c r).app, w, app_op c v))
  | I_to_f (r, w, v) -> Builder.emit b (I_to_f ((triple_of c r).app, w, app_op c v))
  | Select (r, ty, cond, a0, a1) -> transform_select c b r ty cond a0 a1
  | Call (r, callee, args) -> transform_call c b defs r callee args

(* Transform one of the fault's own instructions: the triple of the
   register it defines and every register and block its translation
   creates exist only because of the fault. *)
let transform_late c b defs inst =
  (match Inst.def_of inst with
  | Some r ->
      let t = triple_of c r in
      c.late_regs <- (t.app :: Array.to_list t.reps) @ Option.to_list t.shd @ c.late_regs
  | None -> ());
  let r0 = c.df.Func.next_reg and nb = List.length c.df.Func.blocks in
  transform_inst c b defs inst;
  for r = r0 to c.df.Func.next_reg - 1 do
    c.late_regs <- r :: c.late_regs
  done;
  c.late_blocks <- c.late_blocks @ List.filteri (fun i _ -> i >= nb) c.df.Func.blocks

(* Renumber [c.df] so that every register and block that exists only
   because of the fault comes after all the ids the uninjected
   program's transform creates too: shared registers keep their order
   and close ranks, late ones follow, and late blocks move to the end of
   the block list.  A fault-injected build then equals the uninjected
   one at every position outside the fault's own code, which is what
   lets a snapshot of the uninjected run resume on it unchanged.
   Parameters come first and are never late, so they keep their ids. *)
let number_late_last c =
  if c.late_regs <> [] || c.late_blocks <> [] then begin
    let df = c.df in
    let n = df.Func.next_reg in
    let late = Array.make n false in
    List.iter (fun r -> late.(r) <- true) c.late_regs;
    let perm = Array.make n 0 and next = ref 0 in
    let number want =
      for r = 0 to n - 1 do
        if late.(r) = want then begin
          perm.(r) <- !next;
          incr next
        end
      done
    in
    number false;
    number true;
    let rekey tbl =
      let entries = Hashtbl.fold (fun r v acc -> (perm.(r), v) :: acc) tbl [] in
      Hashtbl.reset tbl;
      List.iter (fun (r, v) -> Hashtbl.replace tbl r v) entries
    in
    rekey df.Func.reg_tys;
    rekey df.Func.reg_names;
    let shared, late_blocks =
      List.partition (fun b -> not (List.memq b c.late_blocks)) df.Func.blocks
    in
    df.Func.blocks <- shared @ late_blocks;
    df.Func.label_cache <- None;
    df.Func.index_cache <- None;
    List.iter
      (fun (b : Func.block) ->
        b.Func.insts <- List.map (Inst.map_regs (Array.get perm)) b.Func.insts;
        b.Func.term <- Inst.map_regs_in_term (Array.get perm) b.Func.term)
      df.Func.blocks
  end

let transform_body env (sf : Func.t) (df : Func.t) =
  let rv_param_count =
    match sf.Func.ret with Ptr _ -> 1 | _ -> 0
  in
  let rv_param =
    if rv_param_count = 1 then Some (fst (List.hd df.Func.params)) else None
  in
  let triples = make_triples env sf df rv_param_count in
  let c =
    {
      env;
      sf;
      df;
      triples;
      rv_param;
      detect_label = None;
      site = 0;
      rv_slots = Hashtbl.create 4;
      entry_allocas = [];
      late_regs = [];
      late_blocks = [];
    }
  in
  (* the fault's instruction positions in source block [label] *)
  let fault_insts label =
    match env.fault with
    | Some f when f.fault_func = sf.Func.name && f.fault_block = label ->
        f.fault_insts
    | _ -> []
  in
  (* defining-instruction map, for looking through bitcasts (§3.1.5) *)
  let defs = Hashtbl.create 32 in
  Func.iter_insts sf (fun _ inst ->
      match Inst.def_of inst with
      | Some r -> Hashtbl.replace defs r inst
      | None -> ());
  (* fresh labels must not collide with copied source labels *)
  df.Func.next_label <- sf.Func.next_label;
  (* create all destination blocks first so branches resolve *)
  List.iter
    (fun (sb : Func.block) -> ignore (Func.add_block df sb.Func.label))
    sf.Func.blocks;
  List.iter
    (fun (sb : Func.block) ->
      let dbk = Func.find_block df sb.Func.label in
      let b = Builder.on_func env.dst df dbk in
      let late = fault_insts sb.Func.label in
      List.iteri
        (fun i inst ->
          if List.mem i late then transform_late c b defs inst
          else transform_inst c b defs inst)
        sb.Func.insts;
      match sb.Func.term with
      | Br l -> Builder.br b l
      | Cbr (o, l1, l2) -> Builder.cbr b (app_op c o) l1 l2
      | Ret o -> transform_ret c b o
      | Unreachable -> Builder.unreachable b)
    sf.Func.blocks;
  (* hoisted return-channel slots go at the top of the entry block *)
  if c.entry_allocas <> [] then begin
    let entry = Func.entry df in
    entry.Func.insts <- List.rev c.entry_allocas @ entry.Func.insts
  end;
  number_late_last c

(* ------------------------------------------------------------------ *)
(* main() handling (§3.1.1)                                            *)
(* ------------------------------------------------------------------ *)

let synthesize_main env (orig_main : Func.t) =
  let startups b =
    (* one-time diversity-family startup code, ahead of any replication *)
    List.iter (fun f -> f.Diversity_family.i_startup b) env.fams
  in
  match orig_main.Func.params with
  | [] ->
      (* no command-line arguments: main just tail-calls mainAug *)
      let b = Builder.create env.dst ~name:"main" ~params:[] ~ret:orig_main.Func.ret () in
      startups b;
      let r = Builder.call b (Direct "mainAug") [] in
      Builder.ret b r
  | [ (_, argc_ty); (_, argv_ty) ] ->
      let b =
        Builder.create env.dst ~name:"main"
          ~params:[ ("argc", argc_ty); ("argv", argv_ty) ]
          ~ret:orig_main.Func.ret ()
      in
      let argc = Builder.param b 0 and argv = Builder.param b 1 in
      startups b;
      let argv_rs =
        List.init env.nrep (fun k ->
            Builder.call1 b
              ~name:("argv" ^ rep_suffix k)
              (Direct "__dpmr_argv_r") [ argc; argv ])
      in
      let args =
        match env.cfg.Config.mode with
        | Config.Sds ->
            let argv_s =
              Builder.call1 b ~name:"argv_s" (Direct "__dpmr_argv_s") [ argc; argv ]
            in
            (argc :: argv :: argv_rs) @ [ argv_s ]
        | Config.Mds -> argc :: argv :: argv_rs
      in
      let r = Builder.call b (Direct "mainAug") args in
      Builder.ret b r
  | _ -> unsupported "main must take () or (argc, argv)"

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(** Transform [src] under configuration [cfg] into a new program.  The
    source program is left untouched.  [excluded] is the Chapter 5 DSA
    scope callback (function name, register) -> leave-unreplicated.
    [fault] names the code an injected fault added to [src]; it changes
    only the numbering, never the program's behaviour. *)
let transform ?(excluded = fun _ _ -> false) ?fault (cfg : Config.t) (src : Prog.t) :
    Prog.t =
  if cfg.Config.replicas < 1 then
    unsupported "replica count must be >= 1 (got %d)" cfg.Config.replicas;
  let dst = Prog.create ~tenv:(Tenv.copy src.Prog.tenv) () in
  let stx =
    Shadow_type.create ~replicas:cfg.Config.replicas dst.Prog.tenv
      cfg.Config.mode
  in
  let pol = Policy.prepare cfg.Config.policy cfg.Config.seed dst in
  let div = Diversity.prepare cfg.Config.diversity dst in
  let fams =
    match Diversity_family.resolve cfg.Config.families with
    | Ok fs ->
        List.map
          (fun f ->
            Diversity_family.instantiate f src ~seed:cfg.Config.seed
              ~replicas:cfg.Config.replicas)
          fs
    | Error n ->
        unsupported "unknown diversity family %S (registered: %s)" n
          (match Diversity_family.names () with
          | [] -> "none"
          | ns -> String.concat ", " ns)
  in
  let env =
    {
      cfg;
      stx;
      src;
      dst;
      pol;
      div;
      nrep = cfg.Config.replicas;
      fams;
      asite = ref 0;
      excluded;
      fault;
    }
  in
  (* intrinsic signatures (also declares the base libc names; transformed
     code never calls those directly, but the declarations are harmless) *)
  Dpmr_vm.Extern.declare_signatures dst;
  (* external function wrappers: one _efw per source extern *)
  Hashtbl.iter
    (fun name ft ->
      if not (is_intrinsic name) then begin
        let aug = Shadow_type.at_fun stx ft in
        let aug =
          (* qsort/memcpy/memmove take the extra shadow-size parameter
             under SDS (§3.1.5) *)
          if cfg.Config.mode = Config.Sds
             && (name = "qsort" || name = "memcpy" || name = "memmove")
          then { aug with params = i64 :: aug.params }
          else aug
        in
        Prog.declare_extern dst (efw_name name) aug
      end)
    src.Prog.externs;
  (* argv replication runtime support *)
  (match (Hashtbl.find_opt src.Prog.funcs "main" : Func.t option) with
  | Some f when List.length f.Func.params = 2 ->
      let argv_ty = snd (List.nth f.Func.params 1) in
      let argc_ty = snd (List.nth f.Func.params 0) in
      Prog.declare_extern dst "__dpmr_argv_r"
        { ret = argv_ty; params = [ argc_ty; argv_ty ]; vararg = false };
      if cfg.Config.mode = Config.Sds then begin
        let pointee = match argv_ty with Ptr t -> t | _ -> argv_ty in
        let pair = Option.get (Shadow_type.sat stx (Ptr pointee)) in
        Prog.declare_extern dst "__dpmr_argv_s"
          { ret = Ptr pair; params = [ argc_ty; argv_ty ]; vararg = false }
      end
  | _ -> ());
  transform_globals env;
  (* shells first so calls resolve *)
  let shells = Hashtbl.create 16 in
  Prog.iter_funcs src (fun f ->
      let name = if f.Func.name = "main" then "mainAug" else f.Func.name in
      let df =
        Func.create ~name
          ~params:(augment_params env f)
          ~ret:(Shadow_type.at stx f.Func.ret)
          ~vararg:f.Func.vararg ()
      in
      Prog.add_func dst df;
      Hashtbl.replace shells f.Func.name df);
  Prog.iter_funcs src (fun f -> transform_body env f (Hashtbl.find shells f.Func.name));
  (match Hashtbl.find_opt src.Prog.funcs "main" with
  | Some f -> synthesize_main env f
  | None -> ());
  dst
