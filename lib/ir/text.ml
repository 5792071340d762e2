(** Textual IR: the one textual form of whole programs.

    [emit] and [parse] round-trip: for any well-formed program [p],
    [parse (emit p)] is a program with identical behaviour (the test
    suite checks output- and cost-equality over every workload, every
    build the transform digests pin and randomly generated programs).
    [parse] numbers registers in textual order, so [emit] is a fixpoint
    from the second round on.  [emit] depends only on the program: type
    and extern names are sorted, floats print as exact hex.

    Grammar (informal):
    {v
      item    := struct NAME { ty, ... } | union NAME { ty, ... }
               | global NAME : ty [= ginit]
               | extern NAME : ty ( ty, ... [, ...] )
               | func [vararg] @NAME ( %NAME : ty, ... ) : ty { block+ }
      block   := LABEL: inst* term
      inst    := %NAME : ty = rhs | store ty OPERAND, OPERAND
               | free OPERAND | call CALLEE (OPERAND, ...)
      term    := br LABEL | cbr OPERAND, LABEL, LABEL | ret [OPERAND]
               | unreachable
      ty      := (i8|i16|i32|i64|f64|void|%NAME|[N x ty]|fn(ty,...[,...] -> ty)) '*'*
      operand := %NAME | INT[:iN] | FLOAT | null ty | @NAME | &NAME
    v} *)

open Types
open Inst

exception Parse_error of int * string

let fail line fmt = Fmt.kstr (fun m -> raise (Parse_error (line, m))) fmt

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let rec emit_ty buf t =
  match t with
  | Int w -> Buffer.add_string buf (Printf.sprintf "i%d" (bits_of_width w))
  | Float -> Buffer.add_string buf "f64"
  | Void -> Buffer.add_string buf "void"
  | Ptr e ->
      emit_ty buf e;
      Buffer.add_char buf '*'
  | Arr (e, n) ->
      Buffer.add_string buf (Printf.sprintf "[%d x " n);
      emit_ty buf e;
      Buffer.add_char buf ']'
  | Struct n | Union n ->
      Buffer.add_char buf '%';
      Buffer.add_string buf n
  | Fun ft ->
      (* fn(params -> ret): the closing paren disambiguates '*' suffixes *)
      Buffer.add_string buf "fn(";
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_string buf ", ";
          emit_ty buf p)
        ft.params;
      if ft.vararg then
        Buffer.add_string buf (if ft.params = [] then "..." else ", ...");
      Buffer.add_string buf " -> ";
      emit_ty buf ft.ret;
      Buffer.add_char buf ')'

let ty_str t =
  let b = Buffer.create 16 in
  emit_ty b t;
  Buffer.contents b

let emit_operand buf o =
  match o with
  | Reg r -> Buffer.add_string buf (Printf.sprintf "%%r%d" r)
  | Cint (w, v) -> Buffer.add_string buf (Printf.sprintf "%Ld:i%d" v (bits_of_width w))
  | Cfloat x ->
      let s = Printf.sprintf "%h" x in
      Buffer.add_string buf s
  | Null t -> Buffer.add_string buf (Printf.sprintf "null %s" (ty_str t))
  | Global g -> Buffer.add_string buf ("@" ^ g)
  | Fun_addr fn -> Buffer.add_string buf ("&" ^ fn)

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv" | Srem -> "srem"
  | Udiv -> "udiv" | Urem -> "urem" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"

let fbinop_name = function Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"

let icond_name = function
  | Ieq -> "eq" | Ine -> "ne" | Islt -> "slt" | Isle -> "sle" | Isgt -> "sgt"
  | Isge -> "sge" | Iult -> "ult" | Iule -> "ule" | Iugt -> "ugt" | Iuge -> "uge"

let fcond_name = function
  | Foeq -> "oeq" | Fone -> "one" | Folt -> "olt" | Fole -> "ole" | Fogt -> "ogt"
  | Foge -> "oge"

let emit_inst (f : Func.t) buf inst =
  let op o = emit_operand buf o in
  let def r =
    Buffer.add_string buf
      (Printf.sprintf "%%r%d : %s = " r (ty_str (Func.reg_ty f r)))
  in
  let str s = Buffer.add_string buf s in
  (match inst with
  | Malloc (r, t, n) ->
      def r;
      str (Printf.sprintf "malloc %s, " (ty_str t));
      op n
  | Alloca (r, t, n) ->
      def r;
      str (Printf.sprintf "alloca %s, " (ty_str t));
      op n
  | Free p ->
      str "free ";
      op p
  | Load (r, t, p) ->
      def r;
      str (Printf.sprintf "load %s, " (ty_str t));
      op p
  | Store (t, v, p) ->
      str (Printf.sprintf "store %s " (ty_str t));
      op v;
      str ", ";
      op p
  | Gep_field (r, s, p, i) ->
      def r;
      str (Printf.sprintf "gepf %%%s, " s);
      op p;
      str (Printf.sprintf ", %d" i)
  | Gep_index (r, e, p, i) ->
      def r;
      str (Printf.sprintf "gepi %s, " (ty_str e));
      op p;
      str ", ";
      op i
  | Bitcast (r, _, p) ->
      def r;
      str "bitcast ";
      op p
  | Ptr_to_int (r, p) ->
      def r;
      str "ptrtoint ";
      op p
  | Int_to_ptr (r, _, v) ->
      def r;
      str "inttoptr ";
      op v
  | Binop (r, o, w, a, b) ->
      def r;
      str (Printf.sprintf "%s i%d " (binop_name o) (bits_of_width w));
      op a;
      str ", ";
      op b
  | Fbinop (r, o, a, b) ->
      def r;
      str (fbinop_name o ^ " ");
      op a;
      str ", ";
      op b
  | Icmp (r, c, w, a, b) ->
      def r;
      str (Printf.sprintf "icmp %s i%d " (icond_name c) (bits_of_width w));
      op a;
      str ", ";
      op b
  | Fcmp (r, c, a, b) ->
      def r;
      str (Printf.sprintf "fcmp %s " (fcond_name c));
      op a;
      str ", ";
      op b
  | Int_cast (r, _, signed, v) ->
      def r;
      str (Printf.sprintf "icast %s " (if signed then "signed" else "unsigned"));
      op v
  | F_to_i (r, _, v) ->
      def r;
      str "fptosi ";
      op v
  | I_to_f (r, _, v) ->
      def r;
      str "sitofp ";
      op v
  | Select (r, t, c, a, b) ->
      def r;
      str (Printf.sprintf "select %s " (ty_str t));
      op c;
      str ", ";
      op a;
      str ", ";
      op b
  | Call (r, callee, args) ->
      (match r with Some r -> def r | None -> str "call_void ");
      (match callee with
      | Direct n -> str (Printf.sprintf "call %s(" n)
      | Indirect o ->
          str "call *";
          op o;
          str "(");
      List.iteri
        (fun i a ->
          if i > 0 then str ", ";
          op a)
        args;
      str ")");
  Buffer.add_char buf '\n'

let emit_term buf term =
  let op o = emit_operand buf o in
  (match term with
  | Br l -> Buffer.add_string buf (Printf.sprintf "br %s" l)
  | Cbr (c, l1, l2) ->
      Buffer.add_string buf "cbr ";
      op c;
      Buffer.add_string buf (Printf.sprintf ", %s, %s" l1 l2)
  | Ret None -> Buffer.add_string buf "ret"
  | Ret (Some o) ->
      Buffer.add_string buf "ret ";
      op o
  | Unreachable -> Buffer.add_string buf "unreachable");
  Buffer.add_char buf '\n'

let inst_to_string f inst =
  let buf = Buffer.create 64 in
  emit_inst f buf inst;
  Buffer.sub buf 0 (Buffer.length buf - 1)

let rec emit_ginit buf (g : Prog.ginit) =
  match g with
  | Prog.Gzero -> Buffer.add_string buf "zero"
  | Prog.Gint v -> Buffer.add_string buf (Int64.to_string v)
  | Prog.Gfloat x -> Buffer.add_string buf (Printf.sprintf "%h" x)
  | Prog.Gptr_null -> Buffer.add_string buf "null"
  | Prog.Gptr_global g -> Buffer.add_string buf ("@" ^ g)
  | Prog.Gptr_fun f -> Buffer.add_string buf ("&" ^ f)
  | Prog.Gstring s -> Buffer.add_string buf (Printf.sprintf "%S" s)
  | Prog.Gagg gs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i gi ->
          if i > 0 then Buffer.add_string buf ", ";
          emit_ginit buf gi)
        gs;
      Buffer.add_char buf '}'

let emit (p : Prog.t) =
  let buf = Buffer.create 4096 in
  let tenv = p.Prog.tenv in
  (* deterministic order: sort names (hashtable iteration is unordered) *)
  let typedefs =
    List.sort compare
      (let acc = ref [] in
       Tenv.iter tenv (fun name body -> acc := (name, body) :: !acc);
       !acc)
  in
  List.iter (fun (name, (body : agg_body)) ->
      Buffer.add_string buf (if body.is_union then "union " else "struct ");
      Buffer.add_string buf name;
      Buffer.add_string buf " { ";
      List.iteri
        (fun i fty ->
          if i > 0 then Buffer.add_string buf ", ";
          emit_ty buf fty)
        body.fields;
      Buffer.add_string buf " }\n")
    typedefs;
  Prog.iter_globals p (fun g ->
      Buffer.add_string buf
        (Printf.sprintf "global %s : %s = " g.Prog.gname (ty_str g.Prog.gty));
      emit_ginit buf g.Prog.ginit;
      Buffer.add_char buf '\n');
  let externs =
    List.sort compare
      (Hashtbl.fold (fun name ft acc -> (name, ft) :: acc) p.Prog.externs [])
  in
  List.iter
    (fun (name, (ft : fun_ty)) ->
      Buffer.add_string buf (Printf.sprintf "extern %s : %s (" name (ty_str ft.ret));
      List.iteri
        (fun i pt ->
          if i > 0 then Buffer.add_string buf ", ";
          emit_ty buf pt)
        ft.params;
      if ft.vararg then
        Buffer.add_string buf (if ft.params = [] then "..." else ", ...");
      Buffer.add_string buf ")\n")
    externs;
  Prog.iter_funcs p (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "func%s @%s ("
           (if f.Func.vararg then " vararg" else "")
           f.Func.name);
      List.iteri
        (fun i (r, ty) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "%%r%d : %s" r (ty_str ty)))
        f.Func.params;
      Buffer.add_string buf (Printf.sprintf ") : %s {\n" (ty_str f.Func.ret));
      List.iter
        (fun (b : Func.block) ->
          Buffer.add_string buf (b.Func.label ^ ":\n");
          List.iter
            (fun inst ->
              Buffer.add_string buf "  ";
              emit_inst f buf inst)
            b.Func.insts;
          Buffer.add_string buf "  ";
          emit_term buf b.Func.term)
        f.Func.blocks;
      Buffer.add_string buf "}\n");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type token =
  | Tid of string  (* bare identifier / keyword *)
  | Treg of string  (* %name *)
  | Tglobal of string  (* @name *)
  | Tfun_addr of string  (* &name *)
  | Tint of int64
  | Tfloat of float
  | Tstring of string
  | Tpunct of char  (* ( ) { } [ ] , : * = *)
  | Tarrow  (* -> *)
  | Tellipsis  (* ... *)

let is_id_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '/'

(* Tokenize one line (comments run from '#' to end of line). *)
let tokenize_line lineno s =
  let n = String.length s in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then i := n
    else if c = '-' && !i + 1 < n && s.[!i + 1] = '>' then begin
      push Tarrow;
      i := !i + 2
    end
    else if c = '.' && !i + 2 < n && s.[!i + 1] = '.' && s.[!i + 2] = '.' then begin
      push Tellipsis;
      i := !i + 3
    end
    else if c = '%' || c = '@' || c = '&' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && is_id_char s.[!j] do
        incr j
      done;
      if !j = start then fail lineno "empty name after '%c'" c;
      let name = String.sub s start (!j - start) in
      push
        (match c with
        | '%' -> Treg name
        | '@' -> Tglobal name
        | _ -> Tfun_addr name);
      i := !j
    end
    else if c = '"' then begin
      (* OCaml-escaped string literal *)
      let j = ref (!i + 1) in
      let b = Buffer.create 8 in
      let rec scan () =
        if !j >= n then fail lineno "unterminated string"
        else if s.[!j] = '"' then ()
        else if s.[!j] = '\\' && !j + 1 < n then begin
          (match s.[!j + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | '\\' -> Buffer.add_char b '\\'
          | '"' -> Buffer.add_char b '"'
          | 'x' when !j + 3 < n ->
              Buffer.add_char b
                (Char.chr (int_of_string ("0x" ^ String.sub s (!j + 2) 2)));
              j := !j + 2
          | d when d >= '0' && d <= '9' && !j + 3 < n ->
              Buffer.add_char b (Char.chr (int_of_string (String.sub s (!j + 1) 3)));
              j := !j + 2
          | c2 -> fail lineno "bad escape \\%c" c2);
          j := !j + 2;
          scan ()
        end
        else begin
          Buffer.add_char b s.[!j];
          incr j;
          scan ()
        end
      in
      scan ();
      push (Tstring (Buffer.contents b));
      i := !j + 1
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && s.[!i + 1] >= '0' && s.[!i + 1] <= '9')
    then begin
      let start = !i in
      let j = ref (!i + 1) in
      while
        !j < n
        && (is_id_char s.[!j] || s.[!j] = '+' || s.[!j] = '-' || s.[!j] = 'x'
           || s.[!j] = 'p')
      do
        incr j
      done;
      (* trailing ":iN" width suffix is handled by the grammar, stop at ':' *)
      let lit = String.sub s start (!j - start) in
      (match (Int64.of_string_opt lit, float_of_string_opt lit) with
      | Some v, _ when not (String.contains lit '.' || String.contains lit 'p') ->
          push (Tint v)
      | _, Some f -> push (Tfloat f)
      | Some v, None -> push (Tint v)
      | None, None -> fail lineno "bad numeric literal %S" lit);
      i := !j
    end
    else if is_id_char c then begin
      let start = !i in
      let j = ref !i in
      while !j < n && is_id_char s.[!j] do
        incr j
      done;
      push (Tid (String.sub s start (!j - start)));
      i := !j
    end
    else
      match c with
      | '(' | ')' | '{' | '}' | '[' | ']' | ',' | ':' | '*' | '=' ->
          push (Tpunct c);
          incr i
      | _ -> fail lineno "unexpected character %C" c
  done;
  List.rev !toks

(* token-stream cursor *)
type cursor = { mutable toks : token list; line : int }

let peek c = match c.toks with [] -> None | t :: _ -> Some t

let next c =
  match c.toks with
  | [] -> fail c.line "unexpected end of line"
  | t :: rest ->
      c.toks <- rest;
      t

let expect_punct c ch =
  match next c with
  | Tpunct p when p = ch -> ()
  | _ -> fail c.line "expected %C" ch

let expect_id c s =
  match next c with
  | Tid i when i = s -> ()
  | _ -> fail c.line "expected %S" s

let ident c =
  match next c with Tid s -> s | _ -> fail c.line "expected identifier"

let width_of_name line = function
  | "i8" -> W8
  | "i16" -> W16
  | "i32" -> W32
  | "i64" -> W64
  | s -> fail line "expected integer type, got %S" s

(* parse a type; [kind_of] resolves a %name to struct-or-union *)
let rec parse_ty c kind_of =
  let base =
    match next c with
    | Tid "i8" -> Int W8
    | Tid "i16" -> Int W16
    | Tid "i32" -> Int W32
    | Tid "i64" -> Int W64
    | Tid "f64" -> Float
    | Tid "void" -> Void
    | Treg name -> if kind_of name then Union name else Struct name
    | Tpunct '[' ->
        let n =
          match next c with
          | Tint v -> Int64.to_int v
          | _ -> fail c.line "expected array length"
        in
        expect_id c "x";
        let e = parse_ty c kind_of in
        expect_punct c ']';
        Arr (e, n)
    | Tid "fn" ->
        expect_punct c '(';
        let params = ref [] in
        let vararg = ref false in
        let done_params = ref false in
        let rec params_loop first =
          if not !done_params then
            match peek c with
            | Some Tarrow ->
                ignore (next c);
                done_params := true
            | Some (Tpunct ',') when not first ->
                ignore (next c);
                params_loop true
            | Some Tellipsis ->
                ignore (next c);
                vararg := true;
                params_loop false
            | Some _ ->
                params := parse_ty c kind_of :: !params;
                params_loop false
            | None -> fail c.line "unterminated function type"
        in
        params_loop true;
        let ret = parse_ty c kind_of in
        expect_punct c ')';
        Fun { ret; params = List.rev !params; vararg = !vararg }
    | t ->
        ignore t;
        fail c.line "expected a type"
  in
  let rec stars t =
    match peek c with
    | Some (Tpunct '*') ->
        ignore (next c);
        stars (Ptr t)
    | _ -> t
  in
  stars base

(* ginit *)
let rec parse_ginit c =
  match next c with
  | Tid "zero" -> Prog.Gzero
  | Tid "null" -> Prog.Gptr_null
  | Tint v -> Prog.Gint v
  | Tfloat x -> Prog.Gfloat x
  | Tglobal g -> Prog.Gptr_global g
  | Tfun_addr f -> Prog.Gptr_fun f
  | Tstring s -> Prog.Gstring s
  | Tpunct '{' ->
      let items = ref [] in
      let rec loop first =
        match peek c with
        | Some (Tpunct '}') -> ignore (next c)
        | Some (Tpunct ',') when not first ->
            ignore (next c);
            loop true
        | Some _ ->
            items := parse_ginit c :: !items;
            loop false
        | None -> fail c.line "unterminated initializer"
      in
      loop true;
      Prog.Gagg (List.rev !items)
  | _ -> fail c.line "expected initializer"

type fn_parse_state = {
  func : Func.t;
  regmap : (string, reg) Hashtbl.t;  (* textual name -> register *)
  labels : (string, unit) Hashtbl.t;
  mutable blocks : Func.block list;  (* reversed *)
  mutable cur : Func.block option;
  mutable insts : inst list;  (* the current block's, reversed *)
}

let close_block st =
  Option.iter (fun (b : Func.block) -> b.insts <- List.rev st.insts) st.cur;
  st.insts <- []

let close_func st =
  close_block st;
  st.func.Func.blocks <- List.rev st.blocks

let parse_operand st c kind_of =
  match next c with
  | Treg name -> (
      match Hashtbl.find_opt st.regmap name with
      | Some r -> Reg r
      | None -> fail c.line "use of undefined register %%%s" name)
  | Tint v -> (
      (* optional :iN suffix; default i64 *)
      match peek c with
      | Some (Tpunct ':') ->
          ignore (next c);
          let w = width_of_name c.line (ident c) in
          Cint (w, v)
      | _ -> Cint (W64, v))
  | Tfloat x -> Cfloat x
  | Tid "null" ->
      let t = parse_ty c kind_of in
      Null t
  | Tglobal g -> Global g
  | Tfun_addr f -> Fun_addr f
  | _ -> fail c.line "expected operand"

let parse_args st c kind_of =
  expect_punct c '(';
  let args = ref [] in
  let rec loop first =
    match peek c with
    | Some (Tpunct ')') -> ignore (next c)
    | Some (Tpunct ',') when not first ->
        ignore (next c);
        loop true
    | Some _ ->
        args := parse_operand st c kind_of :: !args;
        loop false
    | None -> fail c.line "unterminated argument list"
  in
  loop true;
  List.rev !args

let binop_of = function
  | "add" -> Some Add | "sub" -> Some Sub | "mul" -> Some Mul | "sdiv" -> Some Sdiv
  | "srem" -> Some Srem | "udiv" -> Some Udiv | "urem" -> Some Urem
  | "and" -> Some And | "or" -> Some Or | "xor" -> Some Xor | "shl" -> Some Shl
  | "lshr" -> Some Lshr | "ashr" -> Some Ashr | _ -> None

let fbinop_of = function
  | "fadd" -> Some Fadd | "fsub" -> Some Fsub | "fmul" -> Some Fmul
  | "fdiv" -> Some Fdiv | _ -> None

let icond_of line = function
  | "eq" -> Ieq | "ne" -> Ine | "slt" -> Islt | "sle" -> Isle | "sgt" -> Isgt
  | "sge" -> Isge | "ult" -> Iult | "ule" -> Iule | "ugt" -> Iugt | "uge" -> Iuge
  | s -> fail line "unknown icmp condition %S" s

let fcond_of line = function
  | "oeq" -> Foeq | "one" -> Fone | "olt" -> Folt | "ole" -> Fole | "ogt" -> Fogt
  | "oge" -> Foge
  | s -> fail line "unknown fcmp condition %S" s

(* parse the right-hand side of a definition "%x : ty = ..." *)
let parse_rhs st c kind_of dst dst_ty =
  let opnd () = parse_operand st c kind_of in
  let comma () = expect_punct c ',' in
  match ident c with
  | "malloc" ->
      let t = parse_ty c kind_of in
      comma ();
      Malloc (dst, t, opnd ())
  | "alloca" ->
      let t = parse_ty c kind_of in
      comma ();
      Alloca (dst, t, opnd ())
  | "load" ->
      let t = parse_ty c kind_of in
      comma ();
      Load (dst, t, opnd ())
  | "gepf" -> (
      match next c with
      | Treg sname ->
          comma ();
          let p = opnd () in
          comma ();
          let i =
            match next c with
            | Tint v -> Int64.to_int v
            | _ -> fail c.line "expected field index"
          in
          Gep_field (dst, sname, p, i)
      | _ -> fail c.line "expected struct name after gepf")
  | "gepi" ->
      let e = parse_ty c kind_of in
      comma ();
      let p = opnd () in
      comma ();
      Gep_index (dst, e, p, opnd ())
  | "bitcast" -> Bitcast (dst, dst_ty, opnd ())
  | "ptrtoint" -> Ptr_to_int (dst, opnd ())
  | "inttoptr" -> Int_to_ptr (dst, dst_ty, opnd ())
  | "icmp" ->
      let cond = icond_of c.line (ident c) in
      let w = width_of_name c.line (ident c) in
      let a = opnd () in
      comma ();
      Icmp (dst, cond, w, a, opnd ())
  | "fcmp" ->
      let cond = fcond_of c.line (ident c) in
      let a = opnd () in
      comma ();
      Fcmp (dst, cond, a, opnd ())
  | "icast" ->
      let signed =
        match ident c with
        | "signed" -> true
        | "unsigned" -> false
        | s -> fail c.line "expected signed/unsigned, got %S" s
      in
      let w = match dst_ty with Int w -> w | _ -> fail c.line "icast needs int dst" in
      Int_cast (dst, w, signed, opnd ())
  | "fptosi" ->
      let w = match dst_ty with Int w -> w | _ -> fail c.line "fptosi needs int dst" in
      F_to_i (dst, w, opnd ())
  | "sitofp" -> I_to_f (dst, W64, opnd ())
  | "select" ->
      let t = parse_ty c kind_of in
      let cnd = opnd () in
      comma ();
      let a = opnd () in
      comma ();
      Select (dst, t, cnd, a, opnd ())
  | "call" -> (
      match peek c with
      | Some (Tpunct '*') ->
          ignore (next c);
          let callee = opnd () in
          Call (Some dst, Indirect callee, parse_args st c kind_of)
      | _ ->
          (* bind before parse_args: argument evaluation order *)
          let callee = ident c in
          Call (Some dst, Direct callee, parse_args st c kind_of))
  | name -> (
      match (binop_of name, fbinop_of name) with
      | Some o, _ ->
          let w = width_of_name c.line (ident c) in
          let a = opnd () in
          comma ();
          Binop (dst, o, w, a, opnd ())
      | None, Some o ->
          let a = opnd () in
          comma ();
          Fbinop (dst, o, a, opnd ())
      | None, None -> fail c.line "unknown instruction %S" name)

(* First non-blank character of a line; ' ' when there is none. *)
let lead s =
  let n = String.length s in
  let rec go i =
    if i >= n then ' '
    else match s.[i] with ' ' | '\t' | '\r' -> go (i + 1) | c -> c
  in
  go 0

(* Allocate, in textual order, every register the body starting at line
   index [start] defines, so that a use may precede its definition in
   the text: a transformed build places the continuation blocks of its
   checks after the blocks that branch into them.  A name defined twice
   is one register (registers are mutable slots). *)
let declare_body_regs lines start func regmap kind_of =
  let rec go i =
    if i < Array.length lines then
      match lead lines.(i) with
      | '}' -> ()
      | '%' ->
          (match tokenize_line (i + 1) lines.(i) with
          | Treg name :: Tpunct ':' :: toks -> (
              let ty = parse_ty { toks; line = i + 1 } kind_of in
              match Hashtbl.find_opt regmap name with
              | None -> Hashtbl.replace regmap name (Func.fresh_reg func ~name ty)
              | Some r when Func.reg_ty func r = ty -> ()
              | Some _ -> fail (i + 1) "register %%%s redefined with another type" name)
          | _ -> ());
          go (i + 1)
      | _ -> go (i + 1)
  in
  go start

(** Parse a whole program from its textual form. *)
let parse (text : string) : Prog.t =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let prog = Prog.create () in
  let tenv = prog.Prog.tenv in
  (* pass 1: register struct/union names so types resolve *)
  let union_names = Hashtbl.create 8 in
  Array.iteri
    (fun i line ->
      match tokenize_line (i + 1) line with
      | Tid "struct" :: Tid name :: _ -> Tenv.declare_struct tenv name
      | Tid "union" :: Tid name :: _ ->
          Tenv.declare_struct tenv name;
          Hashtbl.replace union_names name ()
      | _ -> ())
    lines;
  let kind_of name = Hashtbl.mem union_names name in
  (* pass 2 *)
  let cur_fn : fn_parse_state option ref = ref None in
  Array.iteri
    (fun i line ->
      let lineno = i + 1 in
      let toks = tokenize_line lineno line in
      if toks <> [] then
        let c = { toks; line = lineno } in
        match (peek c, !cur_fn) with
        | Some (Tid "struct"), None | Some (Tid "union"), None ->
            let is_union = ident c = "union" in
            let name = ident c in
            expect_punct c '{';
            let fields = ref [] in
            let rec loop first =
              match peek c with
              | Some (Tpunct '}') -> ignore (next c)
              | Some (Tpunct ',') when not first ->
                  ignore (next c);
                  loop true
              | Some _ ->
                  fields := parse_ty c kind_of :: !fields;
                  loop false
              | None -> fail lineno "unterminated field list"
            in
            loop true;
            if is_union then Tenv.define_union tenv name (List.rev !fields)
            else Tenv.define_struct tenv name (List.rev !fields)
        | Some (Tid "global"), None ->
            ignore (next c);
            let name = ident c in
            expect_punct c ':';
            let ty = parse_ty c kind_of in
            let ginit =
              match peek c with
              | Some (Tpunct '=') ->
                  ignore (next c);
                  parse_ginit c
              | _ -> Prog.Gzero
            in
            Prog.add_global prog { Prog.gname = name; gty = ty; ginit }
        | Some (Tid "extern"), None ->
            ignore (next c);
            let name = ident c in
            expect_punct c ':';
            let ret = parse_ty c kind_of in
            expect_punct c '(';
            let params = ref [] in
            let vararg = ref false in
            let rec loop first =
              match peek c with
              | Some (Tpunct ')') -> ignore (next c)
              | Some (Tpunct ',') when not first ->
                  ignore (next c);
                  loop true
              | Some Tellipsis ->
                  ignore (next c);
                  vararg := true;
                  expect_punct c ')'
              | Some _ ->
                  params := parse_ty c kind_of :: !params;
                  loop false
              | None -> fail lineno "unterminated extern params"
            in
            loop true;
            Prog.declare_extern prog name
              { ret; params = List.rev !params; vararg = !vararg }
        | Some (Tid "func"), None ->
            ignore (next c);
            let vararg =
              match peek c with
              | Some (Tid "vararg") ->
                  ignore (next c);
                  true
              | _ -> false
            in
            let name =
              match next c with
              | Tglobal n -> n
              | _ -> fail lineno "expected @name after func"
            in
            expect_punct c '(';
            let params = ref [] in
            let rec loop first =
              match peek c with
              | Some (Tpunct ')') -> ignore (next c)
              | Some (Tpunct ',') when not first ->
                  ignore (next c);
                  loop true
              | Some (Treg pname) ->
                  ignore (next c);
                  expect_punct c ':';
                  let ty = parse_ty c kind_of in
                  params := (pname, ty) :: !params;
                  loop false
              | _ -> fail lineno "expected %%name : ty parameter"
            in
            loop true;
            expect_punct c ':';
            let ret = parse_ty c kind_of in
            expect_punct c '{';
            let params = List.rev !params in
            let func = Func.create ~name ~params ~ret ~vararg () in
            Prog.add_func prog func;
            let regmap = Hashtbl.create 32 in
            List.iter2
              (fun (pname, _) (r, _) -> Hashtbl.replace regmap pname r)
              params func.Func.params;
            declare_body_regs lines (i + 1) func regmap kind_of;
            cur_fn :=
              Some
                { func; regmap; labels = Hashtbl.create 16; blocks = []; cur = None; insts = [] }
        | Some (Tpunct '}'), Some st ->
            close_func st;
            cur_fn := None
        | Some _, Some st -> (
            (* inside a function: label, instruction, or terminator *)
            let append_inst inst =
              if Option.is_none st.cur then fail lineno "instruction outside any block";
              st.insts <- inst :: st.insts
            in
            let set_term t =
              match st.cur with
              | Some b -> b.Func.term <- t
              | None -> fail lineno "terminator outside any block"
            in
            match c.toks with
            | [ Tid label; Tpunct ':' ] ->
                if Hashtbl.mem st.labels label then fail lineno "duplicate label %S" label;
                Hashtbl.replace st.labels label ();
                close_block st;
                let b = { Func.label; insts = []; term = Unreachable } in
                st.blocks <- b :: st.blocks;
                st.cur <- Some b
            | Treg _ :: _ -> (
                match next c with
                | Treg dname ->
                    expect_punct c ':';
                    let dty = parse_ty c kind_of in
                    expect_punct c '=';
                    (* [declare_body_regs] allocated it *)
                    let dst = Hashtbl.find st.regmap dname in
                    append_inst (parse_rhs st c kind_of dst dty)
                | _ -> assert false)
            | Tid "store" :: _ ->
                ignore (next c);
                let t = parse_ty c kind_of in
                let v = parse_operand st c kind_of in
                expect_punct c ',';
                append_inst (Store (t, v, parse_operand st c kind_of))
            | Tid "free" :: _ ->
                ignore (next c);
                append_inst (Free (parse_operand st c kind_of))
            | Tid "call_void" :: _ -> (
                ignore (next c);
                expect_id c "call";
                match peek c with
                | Some (Tpunct '*') ->
                    ignore (next c);
                    let callee = parse_operand st c kind_of in
                    append_inst (Call (None, Indirect callee, parse_args st c kind_of))
                | _ ->
                    let n = ident c in
                    append_inst (Call (None, Direct n, parse_args st c kind_of)))
            | Tid "call" :: _ -> (
                ignore (next c);
                match peek c with
                | Some (Tpunct '*') ->
                    ignore (next c);
                    let callee = parse_operand st c kind_of in
                    append_inst (Call (None, Indirect callee, parse_args st c kind_of))
                | _ ->
                    let n = ident c in
                    append_inst (Call (None, Direct n, parse_args st c kind_of)))
            | Tid "br" :: _ ->
                ignore (next c);
                set_term (Br (ident c))
            | Tid "cbr" :: _ ->
                ignore (next c);
                let o = parse_operand st c kind_of in
                expect_punct c ',';
                let l1 = ident c in
                expect_punct c ',';
                set_term (Cbr (o, l1, ident c))
            | Tid "ret" :: _ ->
                ignore (next c);
                if peek c = None then set_term (Ret None)
                else set_term (Ret (Some (parse_operand st c kind_of)))
            | Tid "unreachable" :: _ -> set_term Unreachable
            | _ -> fail lineno "cannot parse line inside function")
        | Some _, None -> fail lineno "cannot parse top-level line"
        | None, _ -> ())
    lines;
  Option.iter close_func !cur_fn;
  prog
