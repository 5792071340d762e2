(** Instructions, operands and block terminators.

    The instruction set mirrors the operations the DPMR transformation
    tables (2.6/2.7 and 4.3/4.4) case-split on: allocation (heap, stack,
    globals), deallocation, loads and stores of scalars, address-of-field,
    address-of-array-element, pointer casts, address-of-function, calls,
    returns — plus ordinary arithmetic, comparisons, and integer/float
    casts needed to write real programs. *)

open Types

type reg = int

type operand =
  | Reg of reg
  | Cint of width * int64  (** integer constant, value truncated to width *)
  | Cfloat of float
  | Null of ty  (** null pointer of type [Ptr ty] *)
  | Global of string  (** address of a global variable *)
  | Fun_addr of string  (** address of a function *)

type binop =
  | Add | Sub | Mul | Sdiv | Srem | Udiv | Urem
  | And | Or | Xor | Shl | Lshr | Ashr

type fbinop = Fadd | Fsub | Fmul | Fdiv

type icond = Ieq | Ine | Islt | Isle | Isgt | Isge | Iult | Iule | Iugt | Iuge
type fcond = Foeq | Fone | Folt | Fole | Fogt | Foge

type callee = Direct of string | Indirect of operand

type inst =
  | Malloc of reg * ty * operand
      (** [Malloc (p, t, n)]: allocate [n] objects of type [t] on the heap;
          [p : Ptr t].  [n] is an i64 count — this is the "request size" a
          heap-array-resize fault shrinks (§3.4). *)
  | Alloca of reg * ty * operand  (** stack allocation, freed at return *)
  | Free of operand
  | Load of reg * ty * operand
      (** [Load (x, t, p)]: load one scalar of type [t] from address [p]. *)
  | Store of ty * operand * operand
      (** [Store (t, v, p)]: store scalar [v] of type [t] to address [p]. *)
  | Gep_field of reg * string * operand * int
      (** [Gep_field (x, s, p, i)]: [x <- &(p->f_i)] where [p : Ptr (Struct s)]. *)
  | Gep_index of reg * ty * operand * operand
      (** [Gep_index (x, e, p, i)]: address of array element;
          [p : Ptr (Arr (e, _))] or [Ptr e]; [x : Ptr e]. *)
  | Bitcast of reg * ty * operand
      (** pointer-to-pointer cast; result type [ty] must be a pointer *)
  | Ptr_to_int of reg * operand  (** result i64 *)
  | Int_to_ptr of reg * ty * operand  (** result type [ty] (a pointer) *)
  | Binop of reg * binop * width * operand * operand
  | Fbinop of reg * fbinop * operand * operand
  | Icmp of reg * icond * width * operand * operand  (** result i8 in {0,1} *)
  | Fcmp of reg * fcond * operand * operand  (** result i8 in {0,1} *)
  | Int_cast of reg * width * bool * operand
      (** [Int_cast (x, w, signed, v)]: truncate or (sign/zero) extend *)
  | F_to_i of reg * width * operand
  | I_to_f of reg * width * operand
  | Call of reg option * callee * operand list
  | Select of reg * ty * operand * operand * operand
      (** [Select (x, t, c, a, b)]: [x <- c != 0 ? a : b] *)

type term =
  | Br of string
  | Cbr of operand * string * string  (** if operand != 0 then fst else snd *)
  | Ret of operand option
  | Unreachable

(** Destination register of an instruction, if any. *)
let def_of = function
  | Malloc (r, _, _)
  | Alloca (r, _, _)
  | Load (r, _, _)
  | Gep_field (r, _, _, _)
  | Gep_index (r, _, _, _)
  | Bitcast (r, _, _)
  | Ptr_to_int (r, _)
  | Int_to_ptr (r, _, _)
  | Binop (r, _, _, _, _)
  | Fbinop (r, _, _, _)
  | Icmp (r, _, _, _, _)
  | Fcmp (r, _, _, _)
  | Int_cast (r, _, _, _)
  | F_to_i (r, _, _)
  | I_to_f (r, _, _)
  | Select (r, _, _, _, _) -> Some r
  | Call (r, _, _) -> r
  | Free _ | Store _ -> None

(** Operands read by an instruction. *)
let uses_of inst =
  let callee_ops = function Direct _ -> [] | Indirect o -> [ o ] in
  match inst with
  | Malloc (_, _, n) | Alloca (_, _, n) -> [ n ]
  | Free p -> [ p ]
  | Load (_, _, p) -> [ p ]
  | Store (_, v, p) -> [ v; p ]
  | Gep_field (_, _, p, _) -> [ p ]
  | Gep_index (_, _, p, i) -> [ p; i ]
  | Bitcast (_, _, p) | Ptr_to_int (_, p) | Int_to_ptr (_, _, p) -> [ p ]
  | Binop (_, _, _, a, b) | Icmp (_, _, _, a, b) -> [ a; b ]
  | Fbinop (_, _, a, b) | Fcmp (_, _, a, b) -> [ a; b ]
  | Int_cast (_, _, _, v) | F_to_i (_, _, v) | I_to_f (_, _, v) -> [ v ]
  | Call (_, c, args) -> callee_ops c @ args
  | Select (_, _, c, a, b) -> [ c; a; b ]

(** [inst] with every register it defines or reads renamed by [f]. *)
let map_regs f inst =
  let o = function Reg r -> Reg (f r) | op -> op in
  match inst with
  | Malloc (r, t, n) -> Malloc (f r, t, o n)
  | Alloca (r, t, n) -> Alloca (f r, t, o n)
  | Free p -> Free (o p)
  | Load (r, t, p) -> Load (f r, t, o p)
  | Store (t, v, p) -> Store (t, o v, o p)
  | Gep_field (r, s, p, i) -> Gep_field (f r, s, o p, i)
  | Gep_index (r, t, p, i) -> Gep_index (f r, t, o p, o i)
  | Bitcast (r, t, p) -> Bitcast (f r, t, o p)
  | Ptr_to_int (r, p) -> Ptr_to_int (f r, o p)
  | Int_to_ptr (r, t, p) -> Int_to_ptr (f r, t, o p)
  | Binop (r, op, w, a, b) -> Binop (f r, op, w, o a, o b)
  | Fbinop (r, op, a, b) -> Fbinop (f r, op, o a, o b)
  | Icmp (r, c, w, a, b) -> Icmp (f r, c, w, o a, o b)
  | Fcmp (r, c, a, b) -> Fcmp (f r, c, o a, o b)
  | Int_cast (r, w, s, v) -> Int_cast (f r, w, s, o v)
  | F_to_i (r, w, v) -> F_to_i (f r, w, o v)
  | I_to_f (r, w, v) -> I_to_f (f r, w, o v)
  | Call (r, c, args) ->
      let c = match c with Indirect x -> Indirect (o x) | Direct _ -> c in
      Call (Option.map f r, c, List.map o args)
  | Select (r, t, c, a, b) -> Select (f r, t, o c, o a, o b)

(** A terminator with its operand registers renamed by [f]. *)
let map_regs_in_term f = function
  | Cbr (Reg r, l1, l2) -> Cbr (Reg (f r), l1, l2)
  | Ret (Some (Reg r)) -> Ret (Some (Reg (f r)))
  | t -> t
