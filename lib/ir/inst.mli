(** Instructions, operands and block terminators.

    The instruction set mirrors the operations the DPMR transformation
    tables (2.6/2.7 and 4.3/4.4) case-split on: allocation (heap, stack,
    globals), deallocation, loads and stores of scalars,
    address-of-field, address-of-array-element, pointer casts,
    address-of-function, calls and returns — plus ordinary arithmetic,
    comparisons and numeric casts. *)

open Types

type reg = int

type operand =
  | Reg of reg
  | Cint of width * int64  (** integer constant, truncated to width *)
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
          [p : Ptr t].  The count is the "request size" a heap-array-resize
          fault shrinks (§3.4). *)
  | Alloca of reg * ty * operand  (** stack allocation, freed at return *)
  | Free of operand
  | Load of reg * ty * operand  (** load one scalar of type [ty] *)
  | Store of ty * operand * operand  (** [Store (t, v, p)]: store [v] at [p] *)
  | Gep_field of reg * string * operand * int
      (** address of struct field: [x <- &(p->f_i)] *)
  | Gep_index of reg * ty * operand * operand
      (** address of array element, scaled by the element type *)
  | Bitcast of reg * ty * operand  (** pointer-to-pointer cast *)
  | Ptr_to_int of reg * operand  (** result i64 *)
  | Int_to_ptr of reg * ty * operand
      (** forbidden under SDS/MDS (§2.9, §4.4); permitted with the
          Chapter 5 DSA scope expansion *)
  | Binop of reg * binop * width * operand * operand
  | Fbinop of reg * fbinop * operand * operand
  | Icmp of reg * icond * width * operand * operand  (** result i8 in 0/1 *)
  | Fcmp of reg * fcond * operand * operand
  | Int_cast of reg * width * bool * operand
      (** truncate or (sign/zero-)extend; the bool is signedness *)
  | F_to_i of reg * width * operand
  | I_to_f of reg * width * operand
  | Call of reg option * callee * operand list
  | Select of reg * ty * operand * operand * operand

type term =
  | Br of string
  | Cbr of operand * string * string  (** nonzero -> first label *)
  | Ret of operand option
  | Unreachable

(** Destination register of an instruction, if any. *)
val def_of : inst -> reg option

(** Operands read by an instruction. *)
val uses_of : inst -> operand list

(** The instruction with every register it defines or reads renamed. *)
val map_regs : (reg -> reg) -> inst -> inst

(** The terminator with its operand register renamed. *)
val map_regs_in_term : (reg -> reg) -> term -> term
