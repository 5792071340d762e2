(** The DPMR code transformation engine.

    One parameterized engine implements both designs — Shadow Data
    Structures (Tables 2.6/2.7) and Mirrored Data Structures (Tables
    4.3/4.4) — branching on the configured mode only where the tables
    differ.  Also handles: augmented signatures with the γ()/π()
    expansions, [main]/[mainAug] splitting with argv replication (§3.1.1),
    variadic call sites (§3.1.2), the qsort/memcpy/memmove shadow-size
    parameter (§3.1.5), per-site comparison-policy codegen, diversity
    codegen on replica allocation, and global variable replication with
    static shadow initialization. *)

open Dpmr_ir

(** Raised when the input violates the design's restrictions (§2.9 for
    SDS, §4.4 for MDS) — e.g. an int-to-pointer cast without the
    Chapter 5 scope expansion. *)
exception Unsupported of string

(** Where an injected fault (§3.4) sits in the source program: its
    function and block, and the positions within that block of the
    instructions that exist only because of the fault.  The registers
    those instructions define are the fault's own. *)
type fault = { fault_func : string; fault_block : string; fault_insts : int list }

(** [transform cfg src] builds the instrumented program; [src] is not
    modified.  [excluded fname reg] is the Chapter 5 DSA scope callback:
    accesses through excluded registers keep their original behaviour and
    are left out of replication (default: nothing excluded).

    [fault] marks the code an injected fault added to [src].  It changes
    no behaviour, only the numbering: every register and block that
    exists only because of the fault is numbered after all the ids the
    transform of the uninjected program creates, so the two builds agree
    at every lowered position outside the fault's own code. *)
val transform :
  ?excluded:(string -> Inst.reg -> bool) ->
  ?fault:fault ->
  Config.t ->
  Prog.t ->
  Prog.t
