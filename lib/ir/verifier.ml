(** Lightweight well-formedness checker for IR programs.

    Catches the construction mistakes that would otherwise surface as
    confusing interpreter traps: ill-typed register assignments, loads and
    stores of non-scalar types, branches to missing labels, calls with
    arity mismatches, and use of undeclared functions.  All workloads and
    all transformed programs are verified in the test suite. *)

open Types
open Inst

exception Ill_formed of string

let fail fmt = Fmt.kstr (fun s -> raise (Ill_formed s)) fmt

(* A [ctx] prints where a fault is; it formats only when a check fails. *)
let check_scalar ctx t =
  if not (is_scalar t) then
    fail "%t: type %a is not a scalar (registers hold scalars only)" ctx Types.pp t

let check_func (p : Prog.t) (f : Func.t) =
  let oty o = Prog.operand_ty p f o in
  let check_ptr ctx o =
    match oty o with
    | Ptr _ -> ()
    | t -> fail "%t: operand has non-pointer type %a" ctx Types.pp t
  in
  let check_int ctx o =
    match oty o with
    | Int _ -> ()
    | t -> fail "%t: operand has non-integer type %a" ctx Types.pp t
  in
  let labels = Hashtbl.create 16 in
  List.iter (fun (b : Func.block) -> Hashtbl.replace labels b.label ()) f.blocks;
  let check_label from l =
    if not (Hashtbl.mem labels l) then fail "%s: branch to missing label %S" from l
  in
  if f.blocks = [] then fail "%s: no blocks" f.name;
  List.iter
    (fun (b : Func.block) ->
      List.iter
        (fun inst ->
          (match def_of inst with
          | Some r when not (Hashtbl.mem f.reg_tys r) ->
              fail "%s/%s: destination register %d has no declared type" f.name b.label r
          | _ -> ());
          let ctx ppf = Fmt.pf ppf "%s/%s: %s" f.name b.label (Text.inst_to_string f inst) in
          match inst with
          | Malloc (r, t, n) | Alloca (r, t, n) ->
              check_int ctx n;
              ignore (Layout.size_of p.tenv t);
              if Func.reg_ty f r <> Ptr t then
                fail "%t: allocation result type mismatch" ctx
          | Free q -> check_ptr ctx q
          | Load (r, t, q) ->
              check_scalar ctx t;
              check_ptr ctx q;
              if Func.reg_ty f r <> t then fail "%t: load result type mismatch" ctx
          | Store (t, v, q) ->
              check_scalar ctx t;
              check_ptr ctx q;
              let vt = oty v in
              let compatible =
                match (t, vt) with
                | Ptr _, Ptr _ -> true (* pointer stores may be imprecisely typed *)
                | a, b -> a = b
              in
              if not compatible then
                fail "%t: stored value type %a does not match %a" ctx Types.pp vt
                  Types.pp t
          | Gep_field (r, s, q, i) -> (
              check_ptr ctx q;
              if not (Tenv.is_defined p.tenv s) then
                fail "%t: gep_field on undefined struct %%%s" ctx s;
              let fields = Tenv.fields p.tenv s in
              if i < 0 || i >= List.length fields then
                fail "%t: field index %d out of range for %%%s" ctx i s;
              match Func.reg_ty f r with
              | Ptr _ -> ()
              | t -> fail "%t: gep_field result type %a" ctx Types.pp t)
          | Gep_index (r, e, q, i) -> (
              check_ptr ctx q;
              check_int ctx i;
              match Func.reg_ty f r with
              | Ptr e' when e' = e -> ()
              | t -> fail "%t: gep_index result type %a" ctx Types.pp t)
          | Bitcast (r, t, q) -> (
              check_ptr ctx q;
              match (t, Func.reg_ty f r) with
              | Ptr _, rt when rt = t -> ()
              | _ -> fail "%t: bitcast target must be the result pointer type" ctx)
          | Ptr_to_int (r, q) ->
              check_ptr ctx q;
              if Func.reg_ty f r <> i64 then fail "%t: ptrtoint result must be i64" ctx
          | Int_to_ptr (r, t, v) -> (
              check_int ctx v;
              match (t, Func.reg_ty f r) with
              | Ptr _, rt when rt = t -> ()
              | _ -> fail "%t: inttoptr result type mismatch" ctx)
          | Binop (r, _, w, a, bo) ->
              check_int ctx a;
              check_int ctx bo;
              if Func.reg_ty f r <> Int w then fail "%t: binop result width" ctx
          | Fbinop (r, _, a, bo) ->
              if oty a <> Float || oty bo <> Float then fail "%t: fbinop operands" ctx;
              if Func.reg_ty f r <> Float then fail "%t: fbinop result" ctx
          | Icmp (r, _, _, a, bo) ->
              (match (oty a, oty bo) with
              | Int _, Int _ | Ptr _, Ptr _ -> ()
              | _ -> fail "%t: icmp operands must both be ints or pointers" ctx);
              if Func.reg_ty f r <> i8 then fail "%t: icmp result must be i8" ctx
          | Fcmp (r, _, a, bo) ->
              if oty a <> Float || oty bo <> Float then fail "%t: fcmp operands" ctx;
              if Func.reg_ty f r <> i8 then fail "%t: fcmp result must be i8" ctx
          | Int_cast (r, w, _, v) ->
              check_int ctx v;
              if Func.reg_ty f r <> Int w then fail "%t: int_cast result width" ctx
          | F_to_i (r, w, v) ->
              if oty v <> Float then fail "%t: fptosi operand" ctx;
              if Func.reg_ty f r <> Int w then fail "%t: fptosi result" ctx
          | I_to_f (r, _, v) ->
              check_int ctx v;
              if Func.reg_ty f r <> Float then fail "%t: sitofp result" ctx
          | Select (r, t, c, a, bo) ->
              check_int ctx c;
              if oty a <> t || oty bo <> t then fail "%t: select arm types" ctx;
              if Func.reg_ty f r <> t then fail "%t: select result" ctx
          | Call (r, callee, args) -> (
              let ft =
                match callee with
                | Direct n -> (
                    try Prog.fun_sig p n
                    with Invalid_argument _ -> fail "%t: unknown callee %S" ctx n)
                | Indirect o -> (
                    match oty o with
                    | Ptr (Fun ft) -> ft
                    | t -> fail "%t: indirect callee type %a" ctx Types.pp t)
              in
              let nfixed = List.length ft.params in
              if List.length args < nfixed then fail "%t: too few arguments" ctx
              else if (not ft.vararg) && List.length args > nfixed then
                fail "%t: too many arguments" ctx;
              List.iteri
                (fun i pt ->
                  let at = oty (List.nth args i) in
                  let ok =
                    match (pt, at) with Ptr _, Ptr _ -> true | a, b -> a = b
                  in
                  if not ok then
                    fail "%t: argument %d has type %a, expected %a" ctx i Types.pp
                      at Types.pp pt)
                ft.params;
              match (r, ft.ret) with
              | None, _ -> ()
              | Some _, Void -> fail "%t: void call with result register" ctx
              | Some r, t ->
                  let ok =
                    match (t, Func.reg_ty f r) with
                    | Ptr _, Ptr _ -> true
                    | a, b -> a = b
                  in
                  if not ok then fail "%t: call result type mismatch" ctx))
        b.insts;
      match b.term with
      | Br l -> check_label b.label l
      | Cbr (c, l1, l2) ->
          check_int (fun ppf -> Fmt.pf ppf "%s/%s: cbr" f.name b.label) c;
          check_label b.label l1;
          check_label b.label l2
      | Ret None ->
          if f.ret <> Void then fail "%s: ret void in non-void function" f.name
      | Ret (Some o) ->
          let ok =
            match (f.ret, oty o) with Ptr _, Ptr _ -> true | a, b -> a = b
          in
          if not ok then fail "%s: return type mismatch" f.name
      | Unreachable -> ())
    f.blocks

let check_prog p = Prog.iter_funcs p (fun f -> check_func p f)
