(** One-time lowering of IR into a pre-resolved form.

    Compiles each {!Func.t} into arrays of pre-resolved instructions:
    branch targets become block ids, {!Layout} sizes/alignments/offsets
    and cast source widths are baked into the opcodes, constants are
    pre-truncated and pre-boxed, global operands become their addresses,
    and direct calls bind their lowered callee (or a per-VM extern slot)
    and base cost once.  This form is the compiled tier's input:
    {!Compile} turns each instruction into one step, so a position here
    is a position there, which {!diff_limits} and the snapshots of
    {!Vm.run_watched} rely on.  Nothing here serves tracing: a traced
    run executes the IR itself on the reference engine.

    Static resolution errors (unknown label, bad field index, undefined
    aggregate) are captured as {!Lpoison}/{!Braise} and re-raised —
    unchanged — only if the broken instruction actually executes, so
    lowering never fails where the tree-walking interpreter would have
    succeeded. *)

open Dpmr_ir
open Types

type value = I of int64 | F of float
(** Runtime values: integers and pointers share [I]. *)

val truncate_to : width -> int64 -> int64
val sign_extend : width -> int64 -> int64

(** Lowered operands.  A declared global lowers to its address, an
    [Lconst] bound by {!lower_prog}; [Lglobal] keeps only a name the
    program does not declare.  Function addresses stay symbolic: they
    are assigned lazily in first-use order at run time. *)
type lop =
  | Lreg of int
  | Lconst of value  (** pre-truncated, pre-boxed constant *)
  | Lglobal of string  (** undeclared global: raises if evaluated *)
  | Lfun_name of string

(** Scalar shape of a load/store; pointers move as 8-byte integers. *)
type lkind =
  | Kint of int  (** byte width *)
  | Kfloat
  | Kbad  (** non-scalar: raises at execution, like the tree-walker *)

(** Branch target: a block id, or the exception {!Func.find_block} would
    have raised had the branch executed. *)
type starget = Bidx of int | Braise of exn

(** Compiled-tier attachment point, extensible so this module stays
    ignorant of the compiler: {!Compile} adds a constructor carrying the
    closure-compiled code; everyone else only sees {!Tier3_none}. *)
type tier3 = ..

type tier3 += Tier3_none

type lfunc = {
  lname : string;
  lparams : int array;  (** parameter register indices *)
  lnregs : int;
  mutable lblocks : lblock array;  (** entry block at index 0 *)
  mutable ltier3 : tier3;  (** compiled code, once first entered *)
}

and lblock = {
  linsts : linst array;
  lterm : lterm;
}

and lterm =
  | Lbr of starget
  | Lcbr of lop * starget * starget
  | Lcmpbr of int * Inst.icond * width * lop * lop * starget * starget
      (** fused [Licmp] + [Lcbr] branching on the compare's destination
          register; still writes the register and charges both costs *)
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
  | Lbinop of int * Inst.binop * width * lop * lop
  | Lfbinop of int * Inst.fbinop * lop * lop
  | Licmp of int * Inst.icond * width * lop * lop
  | Lfcmp of int * Inst.fcond * lop * lop
  | Lint_cast of int * width * bool * width * lop
      (** reg, dest width, signed, source width, value *)
  | Lf_to_i of int * width * lop
  | Li_to_f of int * width * lop  (** reg, source width, value *)
  | Lselect of int * lop * lop * lop
  | Lcall of int option * lcallee * lop array * int  (** pre-computed cost *)
  | Lpoison of exn  (** static resolution failed; re-raise when executed *)
  | Lload_idx of int * lkind * int * int * lop * lop
      (** fused [Lgep_index]+[Lload]: dest reg, kind, addr reg, elem size,
          base, index — identical effect sequence, one dispatch *)
  | Lstore_idx of lkind * lop * int * int * lop * lop
      (** fused [Lgep_index]+[Lstore]: kind, value, addr reg, elem size,
          base, index *)
  | Lload_fld of int * lkind * int * int * lop
      (** fused [Lgep_field]+[Lload]: dest reg, kind, addr reg, byte
          offset, base *)
  | Lstore_fld of lkind * lop * int * int * lop
      (** fused [Lgep_field]+[Lstore]: kind, value, addr reg, byte offset,
          base *)

type prog = {
  funcs : (string, lfunc) Hashtbl.t;
  slot_of_name : (string, int) Hashtbl.t;
      (** extern slot per direct-callee name; the VM resolves each slot to
          a closure once per instance *)
  mutable n_slots : int;
  global_addr : (string, int64) Hashtbl.t;
      (** address of every declared global: from [Mem.globals_base] up,
          in declaration order, each aligned for its type *)
  src : Prog.t;  (** the program this was lowered from *)
}

(** Lower a whole program.  Cheap enough to run once per program build;
    the result is immutable (apart from the per-function tier state,
    which never affects behaviour) and may be shared by any number of
    VMs executing the same (unmodified) program.  It owns the global
    layout: every VM built on it maps its globals at [global_addr]. *)
val lower_prog : Prog.t -> prog

(** {1 Structural divergence, for snapshot/fork campaign execution} *)

(** [diff_limits base fi] — per-function first-divergence limits of
    [fi] against [base]: for each function that differs, an array over
    [base]'s blocks giving the first instruction index at which the two
    differ ([Array.length linsts] = terminator-only difference, [max_int]
    = equal block).  Comparison is purely positional: registers and
    block ids compare by plain equality, which the transform's
    fault-last numbering makes sufficient for injected members.
    Functions absent from the table are equal.  Executing [base] is
    bit-identical to executing [fi] until the first arrival at a limit
    position, so a snapshot captured there resumes on [fi] as is.  This
    table is what {!Vm.run_watched} consumes.  [None] when no common
    prefix exists (globals or function set differ). *)
val diff_limits : prog -> prog -> (string, int array) Hashtbl.t option

(** Elementwise-minimum merge of watch limits into the first table. *)
val merge_limits :
  (string, int array) Hashtbl.t -> (string, int array) Hashtbl.t -> unit
