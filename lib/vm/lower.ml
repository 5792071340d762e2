(** One-time lowering of IR into a pre-resolved, threaded form.

    The tree-walking interpreter re-derived static facts on every dynamic
    instruction: branch targets through a label hashtable, struct layouts
    by recursive walks over the type environment, cast source widths via
    {!Prog.operand_ty}, callees through two hashtable probes, and constant
    operands re-truncated at each evaluation.  All of that is a function
    of the program text, so this pass computes it once per static
    instruction and emits a form the VM dispatch loop can execute with
    array indexing only:

    - blocks become an array indexed by block id; branches carry ids;
    - [Malloc]/[Alloca]/[Gep_*] carry element sizes, alignments and field
      byte offsets from {!Layout};
    - [Int_cast]/[I_to_f] carry the pre-resolved source width;
    - constants are pre-truncated and pre-boxed as runtime values;
    - direct calls bind the lowered callee (or a per-VM extern slot) and
      their base cost once.

    Lowering never fails where the tree-walker would have succeeded: any
    static resolution error (unknown label, bad field index, undefined
    aggregate) is captured and replayed as the {e same} exception only if
    the offending instruction is actually executed, via {!Lpoison} and
    {!Braise} — dead broken code stays dead, as it was for the
    tree-walker. *)

open Dpmr_ir
open Types
open Inst

type value = I of int64 | F of float

(* The [W64] arms apply an identity operation instead of returning [v]
   directly: when every arm of the match is an arithmetic expression the
   compiler keeps the joined [int64] unboxed in callers, whereas a bare
   variable arm forces a heap box per evaluation (measured: one minor
   allocation per executed ALU instruction). *)
let[@inline] truncate_to w v =
  match w with
  | W8 -> Int64.logand v 0xFFL
  | W16 -> Int64.logand v 0xFFFFL
  | W32 -> Int64.logand v 0xFFFFFFFFL
  | W64 -> Int64.logand v (-1L)

let[@inline] sign_extend w v =
  match w with
  | W8 -> Int64.shift_right (Int64.shift_left v 56) 56
  | W16 -> Int64.shift_right (Int64.shift_left v 48) 48
  | W32 -> Int64.shift_right (Int64.shift_left v 32) 32
  | W64 -> Int64.shift_right (Int64.shift_left v 0) 0

(** Lowered operands.  Globals and function addresses stay symbolic:
    global addresses are per-VM, and function addresses are assigned
    lazily {e in first-use order} at run time — pre-assigning them here
    would change the address values a program can print or compare. *)
type lop =
  | Lreg of int
  | Lconst of value  (** pre-truncated, pre-boxed constant *)
  | Lglobal of string
  | Lfun_name of string

(** Scalar shape of a load/store, resolved from the static type.
    Pointers load/store as 8-byte integers. *)
type lkind =
  | Kint of int  (** byte width *)
  | Kfloat
  | Kbad  (** non-scalar: raises at execution, like the tree-walker *)

(** Branch target: a block id, or the exception {!Func.find_block} would
    have raised had the branch executed. *)
type starget = Bidx of int | Braise of exn

(** Compiled-tier attachment point.  Extensible so this module stays
    ignorant of the compiler: {!Compile} adds its own constructor
    carrying the closure-compiled code, and everyone else only ever
    sees {!Tier3_none}. *)
type tier3 = ..

type tier3 += Tier3_none

type lfunc = {
  lname : string;
  lparams : int array;  (** parameter register indices *)
  lnregs : int;
  mutable lblocks : lblock array;  (** entry block at index 0 *)
  mutable lhot : int;
      (** lowered blocks executed in this function (promotion counter);
          heuristic state only — never part of program identity *)
  mutable ltier3 : tier3;  (** compiled code, once promoted *)
}

and lblock = {
  linsts : linst array;
  lterm : lterm;
  mutable lflags : int;
      (** static block facts for the compiled tier, see {!b_call} *)
}

and lterm =
  | Lbr of starget
  | Lcbr of lop * starget * starget
  | Lcheck of lop * starget * starget * bool * bool
      (** a [Lcbr] with at least one detection-block target (a block whose
          first instruction calls [__dpmr_detect]) — i.e. an inline replica
          load-check compiled by the diversity transform.  The booleans say
          which targets are detection blocks.  Executes exactly like
          [Lcbr]; the lowered engine additionally reports a passed
          comparison to an installed trace sink when the branch takes a
          non-detection target. *)
  | Lcmpbr of int * Inst.icond * width * lop * lop * starget * starget
      (** fused [Licmp] + [Lcbr] on the compare's destination register:
          the single most common dynamic pair (every loop back edge).
          Still writes the compare result to the register, still charges
          [Cost.cmp] then [Cost.cond_branch] — byte-identical to the
          unfused sequence, one dispatch instead of two. *)
  | Lcmpcheck of int * Inst.icond * width * lop * lop * starget * starget * bool * bool
      (** fused [Licmp] + [Lcheck]; see {!Lcmpbr} and {!Lcheck} *)
  | Lret of lop option
  | Lunreachable of string  (** pre-formatted error message *)

and lcallee =
  | Lfun of lfunc  (** direct call to a defined function *)
  | Lextern of int * string  (** direct call to an extern: slot, name *)
  | Lindirect of lop

and linst =
  | Lmalloc of int * int * lop  (** reg, element size, count *)
  | Lalloca of int * int * int * lop  (** reg, element size, align, count *)
  | Lfree of lop
  | Lload of int * lkind * lop
  | Lstore of lkind * lop * lop  (** kind, value, pointer *)
  | Lgep_field of int * int * lop  (** reg, byte offset, pointer *)
  | Lgep_index of int * int * lop * lop  (** reg, elem size, pointer, index *)
  | Lmov of int * lop  (** bitcast / ptr_to_int / int_to_ptr: cast-cost copy *)
  | Lbinop of int * binop * width * lop * lop
  | Lfbinop of int * fbinop * lop * lop
  | Licmp of int * icond * width * lop * lop
  | Lfcmp of int * fcond * lop * lop
  | Lint_cast of int * width * bool * width * lop
      (** reg, dest width, signed, source width, value *)
  | Lf_to_i of int * width * lop
  | Li_to_f of int * width * lop  (** reg, source width, value *)
  | Lselect of int * lop * lop * lop
  | Lcall of int option * lcallee * lop array * int  (** pre-computed cost *)
  | Lpoison of exn  (** static resolution failed; re-raise when executed *)
  (* Fused address+access superinstructions.  Array and field accesses
     lower to a [Lgep_*] immediately followed by a load/store through the
     just-computed register — two dispatches and a register round trip per
     memory access.  The fused forms perform the exact same effect
     sequence (gep cost, write the address register, then access cost and
     the access itself), so cost accounting, faults and register contents
     are bit-identical; only the dispatch count changes. *)
  | Lload_idx of int * lkind * int * int * lop * lop
      (** dest reg, kind, addr reg, elem size, base, index *)
  | Lstore_idx of lkind * lop * int * int * lop * lop
      (** kind, value, addr reg, elem size, base, index *)
  | Lload_fld of int * lkind * int * int * lop
      (** dest reg, kind, addr reg, byte offset, base *)
  | Lstore_fld of lkind * lop * int * int * lop
      (** kind, value, addr reg, byte offset, base *)

type prog = {
  funcs : (string, lfunc) Hashtbl.t;
  slot_of_name : (string, int) Hashtbl.t;
      (** extern slot per direct-callee name; the VM resolves each slot to
          a closure once per instance *)
  mutable n_slots : int;
  src : Prog.t;  (** the program this was lowered from *)
}

let lower_operand = function
  | Reg r -> Lreg r
  | Cint (w, v) -> Lconst (I (truncate_to w v))
  | Cfloat x -> Lconst (F x)
  | Null _ -> Lconst (I 0L)
  | Global g -> Lglobal g
  | Fun_addr f -> Lfun_name f

let kind_of = function
  | Float -> Kfloat
  | Int w -> Kint (bytes_of_width w)
  | Ptr _ -> Kint 8
  | _ -> Kbad

(* Source width of an integer cast: values are kept zero-extended to
   their own width, so sign extension needs the operand's static type. *)
let src_width p f v =
  match Prog.operand_ty p f v with Int w -> w | _ -> W64

let slot_for lp name =
  match Hashtbl.find_opt lp.slot_of_name name with
  | Some i -> i
  | None ->
      let i = lp.n_slots in
      lp.n_slots <- i + 1;
      Hashtbl.replace lp.slot_of_name name i;
      i

let lower_inst lp (p : Prog.t) (f : Func.t) (inst : Inst.inst) : linst =
  let tenv = p.Prog.tenv in
  try
    match inst with
    | Malloc (r, ty, n) -> Lmalloc (r, Layout.size_of tenv ty, lower_operand n)
    | Alloca (r, ty, n) ->
        Lalloca
          ( r,
            Layout.size_of tenv ty,
            max 8 (Layout.align_of tenv ty),
            lower_operand n )
    | Free o -> Lfree (lower_operand o)
    | Load (r, ty, o) -> Lload (r, kind_of ty, lower_operand o)
    | Store (ty, v, o) -> Lstore (kind_of ty, lower_operand v, lower_operand o)
    | Gep_field (r, sname, o, i) ->
        Lgep_field (r, Layout.field_offset tenv sname i, lower_operand o)
    | Gep_index (r, ety, o, i) ->
        Lgep_index (r, Layout.size_of tenv ety, lower_operand o, lower_operand i)
    | Bitcast (r, _, o) | Ptr_to_int (r, o) | Int_to_ptr (r, _, o) ->
        Lmov (r, lower_operand o)
    | Binop (r, op, w, a, b) -> Lbinop (r, op, w, lower_operand a, lower_operand b)
    | Fbinop (r, op, a, b) -> Lfbinop (r, op, lower_operand a, lower_operand b)
    | Icmp (r, c, w, a, b) -> Licmp (r, c, w, lower_operand a, lower_operand b)
    | Fcmp (r, c, a, b) -> Lfcmp (r, c, lower_operand a, lower_operand b)
    | Int_cast (r, w, signed, v) ->
        Lint_cast (r, w, signed, src_width p f v, lower_operand v)
    | F_to_i (r, w, v) -> Lf_to_i (r, w, lower_operand v)
    | I_to_f (r, _, v) -> Li_to_f (r, src_width p f v, lower_operand v)
    | Select (r, _, c, a, b) ->
        Lselect (r, lower_operand c, lower_operand a, lower_operand b)
    | Call (r, callee, args) ->
        let lc =
          match callee with
          | Direct n -> (
              match Hashtbl.find_opt lp.funcs n with
              | Some lf -> Lfun lf
              | None -> Lextern (slot_for lp n, n))
          | Indirect o -> Lindirect (lower_operand o)
        in
        Lcall
          ( r,
            lc,
            Array.of_list (List.map lower_operand args),
            Cost.call_base + (Cost.call_per_arg * List.length args) )
  with (Invalid_argument _ | Failure _ | Not_found) as e -> Lpoison e

let lower_target (f : Func.t) label =
  match try Some (Func.block_index f label) with Invalid_argument _ -> None with
  | Some i -> Bidx i
  | None ->
      (* replay find_block's lazy failure, message included *)
      Braise
        (Invalid_argument
           (Printf.sprintf "Func.find_block: %s has no block %S" f.Func.name
              label))

let lower_term (f : Func.t) : Inst.term -> lterm = function
  | Br l -> Lbr (lower_target f l)
  | Cbr (c, l1, l2) -> Lcbr (lower_operand c, lower_target f l1, lower_target f l2)
  | Ret o -> Lret (Option.map lower_operand o)
  | Unreachable -> Lunreachable (f.Func.name ^ ": executed unreachable")

(* Block flags: deopt-relevant static facts the compiled tier consults.
   [b_call] marks blocks whose boundary is a deoptimization point (a
   call inside may activate fault injection); [b_check] marks blocks
   ending in a replica load-check, whose compare events make them
   fidelity-relevant under a trace sink. *)
let b_call = 1
let b_check = 2

let block_flags (b : lblock) =
  let f = ref 0 in
  Array.iter
    (function Lcall _ -> f := !f lor b_call | _ -> ())
    b.linsts;
  (match b.lterm with
  | Lcheck _ | Lcmpcheck _ -> f := !f lor b_check
  | _ -> ());
  !f

let shell (f : Func.t) =
  {
    lname = f.Func.name;
    lparams = Array.of_list (List.map fst f.Func.params);
    lnregs = f.Func.next_reg;
    lblocks = [||];
    lhot = 0;
    ltier3 = Tier3_none;
  }

(* Peephole superinstruction fusion.  Merges each [Lgep_index]/[Lgep_field]
   with an immediately following load/store through the address register it
   just wrote.  The fused opcodes replay the identical effect sequence, so
   every observable — cost counter, register file, faults, trace events —
   is unchanged; only the dynamic dispatch count drops. *)
let fuse_insts (insts : linst array) : linst array =
  let n = Array.length insts in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let fused =
      if !i + 1 >= n then None
      else
        match (insts.(!i), insts.(!i + 1)) with
        | Lgep_index (rp, esz, p, idx), Lload (r, k, Lreg rp') when rp' = rp ->
            Some (Lload_idx (r, k, rp, esz, p, idx))
        | Lgep_index (rp, esz, p, idx), Lstore (k, v, Lreg rp') when rp' = rp ->
            Some (Lstore_idx (k, v, rp, esz, p, idx))
        | Lgep_field (rp, off, p), Lload (r, k, Lreg rp') when rp' = rp ->
            Some (Lload_fld (r, k, rp, off, p))
        | Lgep_field (rp, off, p), Lstore (k, v, Lreg rp') when rp' = rp ->
            Some (Lstore_fld (k, v, rp, off, p))
        | _ -> None
    in
    match fused with
    | Some f ->
        out := f :: !out;
        i := !i + 2
    | None ->
        out := insts.(!i) :: !out;
        incr i
  done;
  Array.of_list (List.rev !out)

(* Fuse a trailing [Licmp] into a conditional terminator that branches on
   its destination register — the hottest pair of all (loop back edges).
   Runs after {!mark_checks} so both [Lcbr] and [Lcheck] shapes fuse. *)
let fuse_terms lf =
  lf.lblocks <-
    Array.map
      (fun b ->
        let n = Array.length b.linsts in
        if n = 0 then b
        else
          match (b.linsts.(n - 1), b.lterm) with
          | Licmp (r, c, w, x, y), Lcbr (Lreg r', t1, t2) when r' = r ->
              {
                linsts = Array.sub b.linsts 0 (n - 1);
                lterm = Lcmpbr (r, c, w, x, y, t1, t2);
                lflags = 0;
              }
          | Licmp (r, c, w, x, y), Lcheck (Lreg r', t1, t2, d1, d2) when r' = r ->
              {
                linsts = Array.sub b.linsts 0 (n - 1);
                lterm = Lcmpcheck (r, c, w, x, y, t1, t2, d1, d2);
                lflags = 0;
              }
          | _ -> b)
      lf.lblocks

(* Rewrite [Lcbr]s whose target is a detection block (first instruction
   calls [__dpmr_detect]) into [Lcheck], so the VM can recognize inline
   replica load-checks without any per-branch lookup at run time. *)
let mark_checks lf =
  let starts_detect (b : lblock) =
    Array.length b.linsts > 0
    &&
    match b.linsts.(0) with
    | Lcall (_, Lextern (_, "__dpmr_detect"), _, _) -> true
    | _ -> false
  in
  let det = Array.map starts_detect lf.lblocks in
  if Array.exists Fun.id det then begin
    let is_det = function Bidx i -> det.(i) | Braise _ -> false in
    lf.lblocks <-
      Array.map
        (fun b ->
          match b.lterm with
          | Lcbr (c, t1, t2) when is_det t1 || is_det t2 ->
              { b with lterm = Lcheck (c, t1, t2, is_det t1, is_det t2) }
          | _ -> b)
        lf.lblocks
  end

let fill_body lp p (f : Func.t) lf =
  lf.lblocks <-
    Array.map
      (fun (b : Func.block) ->
        {
          linsts = fuse_insts (Array.of_list (List.map (lower_inst lp p f) b.Func.insts));
          lterm = lower_term f b.Func.term;
          lflags = 0;
        })
      (Func.block_array f);
  mark_checks lf;
  fuse_terms lf;
  (* flags last: both fusions above reshape instruction arrays and
     terminators *)
  Array.iter (fun b -> b.lflags <- block_flags b) lf.lblocks

(* Two phases so mutually recursive call knots resolve: every function
   gets a shell first, then bodies are filled in place — [Lfun] callees
   hold the shell whose blocks appear in phase two. *)
let lower_prog (p : Prog.t) : prog =
  let lp =
    {
      funcs = Hashtbl.create 64;
      slot_of_name = Hashtbl.create 16;
      n_slots = 0;
      src = p;
    }
  in
  Prog.iter_funcs p (fun f -> Hashtbl.replace lp.funcs f.Func.name (shell f));
  Prog.iter_funcs p (fun f ->
      fill_body lp p f (Hashtbl.find lp.funcs f.Func.name));
  lp

(* ------------------------------------------------------------------ *)
(* Structural divergence (snapshot/fork planning)                      *)
(* ------------------------------------------------------------------ *)

(* Equality is by observable behaviour, not representation: extern slots
   are per-program numbering (compare the name), callees compare by name
   (lfuncs are cyclic), captured static-error exceptions compare by
   constructor and rendering, floats by bit pattern.  Registers and block
   ids compare by plain equality. *)

let exn_eq a b =
  a == b
  || (Printexc.exn_slot_id a = Printexc.exn_slot_id b
     && String.equal (Printexc.to_string a) (Printexc.to_string b))

let value_eq a b =
  match (a, b) with
  | I x, I y -> Int64.equal x y
  | F x, F y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let lop_eq a b =
  match (a, b) with
  | Lreg x, Lreg y -> x = y
  | Lconst x, Lconst y -> value_eq x y
  | Lglobal x, Lglobal y -> String.equal x y
  | Lfun_name x, Lfun_name y -> String.equal x y
  | _ -> false

let lkind_eq a b =
  match (a, b) with
  | Kint x, Kint y -> x = y
  | Kfloat, Kfloat | Kbad, Kbad -> true
  | _ -> false

let starget_eq a b =
  match (a, b) with
  | Bidx x, Bidx y -> x = y
  | Braise x, Braise y -> exn_eq x y
  | _ -> false

let lcallee_eq a b =
  match (a, b) with
  | Lfun f, Lfun g -> String.equal f.lname g.lname
  | Lextern (_, n1), Lextern (_, n2) -> String.equal n1 n2
  | Lindirect x, Lindirect y -> lop_eq x y
  | _ -> false

let ops_eq xs ys = Array.length xs = Array.length ys && Array.for_all2 lop_eq xs ys

(* Pre-computed call costs compare exactly: a call whose callee body
   diverged charges differently and cannot be shared. *)
let linst_eq a b =
  match (a, b) with
  | Lmalloc (r1, s1, n1), Lmalloc (r2, s2, n2) -> r1 = r2 && s1 = s2 && lop_eq n1 n2
  | Lalloca (r1, s1, a1, n1), Lalloca (r2, s2, a2, n2) ->
      r1 = r2 && s1 = s2 && a1 = a2 && lop_eq n1 n2
  | Lfree p1, Lfree p2 -> lop_eq p1 p2
  | Lload (r1, k1, p1), Lload (r2, k2, p2) -> r1 = r2 && lkind_eq k1 k2 && lop_eq p1 p2
  | Lstore (k1, v1, p1), Lstore (k2, v2, p2) ->
      lkind_eq k1 k2 && lop_eq v1 v2 && lop_eq p1 p2
  | Lgep_field (r1, o1, p1), Lgep_field (r2, o2, p2) -> r1 = r2 && o1 = o2 && lop_eq p1 p2
  | Lgep_index (r1, s1, p1, i1), Lgep_index (r2, s2, p2, i2) ->
      r1 = r2 && s1 = s2 && lop_eq p1 p2 && lop_eq i1 i2
  | Lmov (r1, p1), Lmov (r2, p2) -> r1 = r2 && lop_eq p1 p2
  | Lbinop (r1, op1, w1, a1, b1), Lbinop (r2, op2, w2, a2, b2) ->
      r1 = r2 && op1 = op2 && w1 = w2 && lop_eq a1 a2 && lop_eq b1 b2
  | Lfbinop (r1, op1, a1, b1), Lfbinop (r2, op2, a2, b2) ->
      r1 = r2 && op1 = op2 && lop_eq a1 a2 && lop_eq b1 b2
  | Licmp (r1, c1, w1, a1, b1), Licmp (r2, c2, w2, a2, b2) ->
      r1 = r2 && c1 = c2 && w1 = w2 && lop_eq a1 a2 && lop_eq b1 b2
  | Lfcmp (r1, c1, a1, b1), Lfcmp (r2, c2, a2, b2) ->
      r1 = r2 && c1 = c2 && lop_eq a1 a2 && lop_eq b1 b2
  | Lint_cast (r1, w1, s1, sw1, v1), Lint_cast (r2, w2, s2, sw2, v2) ->
      r1 = r2 && w1 = w2 && s1 = s2 && sw1 = sw2 && lop_eq v1 v2
  | Lf_to_i (r1, w1, v1), Lf_to_i (r2, w2, v2) -> r1 = r2 && w1 = w2 && lop_eq v1 v2
  | Li_to_f (r1, w1, v1), Li_to_f (r2, w2, v2) -> r1 = r2 && w1 = w2 && lop_eq v1 v2
  | Lselect (r1, c1, a1, b1), Lselect (r2, c2, a2, b2) ->
      r1 = r2 && lop_eq c1 c2 && lop_eq a1 a2 && lop_eq b1 b2
  | Lcall (r1, c1, a1, k1), Lcall (r2, c2, a2, k2) ->
      r1 = r2 && k1 = k2 && lcallee_eq c1 c2 && ops_eq a1 a2
  | Lpoison e1, Lpoison e2 -> exn_eq e1 e2
  | Lload_idx (r1, k1, p1, s1, b1, i1), Lload_idx (r2, k2, p2, s2, b2, i2) ->
      r1 = r2 && p1 = p2 && lkind_eq k1 k2 && s1 = s2 && lop_eq b1 b2 && lop_eq i1 i2
  | Lstore_idx (k1, v1, p1, s1, b1, i1), Lstore_idx (k2, v2, p2, s2, b2, i2) ->
      p1 = p2 && lkind_eq k1 k2 && s1 = s2 && lop_eq v1 v2 && lop_eq b1 b2
      && lop_eq i1 i2
  | Lload_fld (r1, k1, p1, o1, b1), Lload_fld (r2, k2, p2, o2, b2) ->
      r1 = r2 && p1 = p2 && lkind_eq k1 k2 && o1 = o2 && lop_eq b1 b2
  | Lstore_fld (k1, v1, p1, o1, b1), Lstore_fld (k2, v2, p2, o2, b2) ->
      p1 = p2 && lkind_eq k1 k2 && o1 = o2 && lop_eq v1 v2 && lop_eq b1 b2
  | _ -> false

let lterm_eq a b =
  match (a, b) with
  | Lbr t1, Lbr t2 -> starget_eq t1 t2
  | Lcbr (c1, x1, y1), Lcbr (c2, x2, y2) ->
      lop_eq c1 c2 && starget_eq x1 x2 && starget_eq y1 y2
  | Lcheck (c1, x1, y1, d1, e1), Lcheck (c2, x2, y2, d2, e2) ->
      d1 = d2 && e1 = e2 && lop_eq c1 c2 && starget_eq x1 x2 && starget_eq y1 y2
  | Lcmpbr (r1, c1, w1, a1, b1, x1, y1), Lcmpbr (r2, c2, w2, a2, b2, x2, y2) ->
      r1 = r2 && c1 = c2 && w1 = w2 && lop_eq a1 a2 && lop_eq b1 b2
      && starget_eq x1 x2 && starget_eq y1 y2
  | Lcmpcheck (r1, c1, w1, a1, b1, x1, y1, d1, e1), Lcmpcheck (r2, c2, w2, a2, b2, x2, y2, d2, e2)
    ->
      r1 = r2 && c1 = c2 && w1 = w2 && d1 = d2 && e1 = e2 && lop_eq a1 a2 && lop_eq b1 b2
      && starget_eq x1 x2 && starget_eq y1 y2
  | Lret None, Lret None -> true
  | Lret (Some o1), Lret (Some o2) -> lop_eq o1 o2
  | Lunreachable m1, Lunreachable m2 -> String.equal m1 m2
  | _ -> false

let ginit_eq =
  let rec go a b =
    match ((a : Prog.ginit), (b : Prog.ginit)) with
    | Prog.Gzero, Prog.Gzero | Prog.Gptr_null, Prog.Gptr_null -> true
    | Prog.Gint x, Prog.Gint y -> Int64.equal x y
    | Prog.Gfloat x, Prog.Gfloat y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | Prog.Gptr_global x, Prog.Gptr_global y | Prog.Gptr_fun x, Prog.Gptr_fun y ->
        String.equal x y
    | Prog.Gstring x, Prog.Gstring y -> String.equal x y
    | Prog.Gagg xs, Prog.Gagg ys ->
        List.length xs = List.length ys && List.for_all2 go xs ys
    | _ -> false
  in
  go

(* Global address assignment happens at VM creation, before any code
   executes — the declaration sequences must match exactly (name, layout
   and initializer) for two programs to share a prefix at all. *)
let globals_eq (p1 : Prog.t) (p2 : Prog.t) =
  let collect p =
    let acc = ref [] in
    Prog.iter_globals p (fun g -> acc := g :: !acc);
    List.rev !acc
  in
  let g1 = collect p1 and g2 = collect p2 in
  List.length g1 = List.length g2
  && List.for_all2
       (fun (a : Prog.global) (b : Prog.global) ->
         String.equal a.Prog.gname b.Prog.gname
         && a.Prog.gty = b.Prog.gty
         && Layout.size_of p1.Prog.tenv a.Prog.gty = Layout.size_of p2.Prog.tenv b.Prog.gty
         && Layout.align_of p1.Prog.tenv a.Prog.gty = Layout.align_of p2.Prog.tenv b.Prog.gty
         && ginit_eq a.Prog.ginit b.Prog.ginit)
       g1 g2

(* First divergent position of [b2] against [b1]: the index of the
   first differing instruction, [Array.length b1.linsts] when only the
   terminators differ, [max_int] when the blocks are equal. *)
let block_limit b1 b2 =
  let n1 = Array.length b1.linsts and n2 = Array.length b2.linsts in
  let stop = min n1 n2 in
  let i = ref 0 in
  while !i < stop && linst_eq b1.linsts.(!i) b2.linsts.(!i) do
    incr i
  done;
  if !i < stop || n1 <> n2 then !i
  else if lterm_eq b1.lterm b2.lterm then max_int
  else n1

(* Per-block limits of [ff] against [bf], or [None] when the functions
   are equal.  Blocks [ff] adds past [bf]'s last one are only reachable
   through a divergent position, so they need no limit. *)
let func_limits (bf : lfunc) (ff : lfunc) =
  let nb = Array.length bf.lblocks and nfb = Array.length ff.lblocks in
  let lim =
    if bf.lparams <> ff.lparams then Array.init nb (fun i -> if i = 0 then 0 else max_int)
    else
      Array.init nb (fun i ->
          if i >= nfb then 0 else block_limit bf.lblocks.(i) ff.lblocks.(i))
  in
  if Array.exists (fun l -> l < max_int) lim then Some lim else None

(** First-divergence limits of [fi] against [base], for the watched
    baseline run: for every function of [base] that differs from [fi],
    an array over its blocks giving the first instruction index at which
    the programs differ ([Array.length linsts] when only the terminator
    differs; [max_int] for equal blocks).  Comparison is purely
    positional — registers and block ids compare by plain equality — so
    execution of [base] is bit-identical to execution of [fi], register
    for register, until it first reaches a limit position: a basic block
    is only entered at index 0.  [None] when the programs cannot share a
    prefix at all (global layout or the defined-function set changed) —
    the caller must fall back to a from-zero run. *)
let diff_limits (base : prog) (fi : prog) =
  if not (globals_eq base.src fi.src) then None
  else begin
    let limits = Hashtbl.create 8 in
    let feasible = ref true in
    Hashtbl.iter
      (fun name (bf : lfunc) ->
        match Hashtbl.find_opt fi.funcs name with
        | None -> feasible := false
        | Some ff -> Option.iter (Hashtbl.replace limits name) (func_limits bf ff))
      base.funcs;
    if !feasible then Some limits else None
  end

(** In-place elementwise-minimum merge of [src] into [dst]: the union
    watch set fires at the earliest position any member diverges. *)
let merge_limits dst src =
  Hashtbl.iter
    (fun name lim ->
      match Hashtbl.find_opt dst name with
      | None -> Hashtbl.replace dst name (Array.copy lim)
      | Some cur ->
          Array.iteri (fun i v -> if v < cur.(i) then cur.(i) <- v) lim)
    src
