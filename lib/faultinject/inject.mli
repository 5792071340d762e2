(** Compiler-based fault injection (§3.4).

    Faulty code is inserted into the input program {e before} the DPMR
    transformation, exactly as a real software bug would be present, and
    executes every time the injected location executes — the property
    one-shot runtime injectors lack.

    The dissertation's evaluation uses heap array resizes and immediate
    frees; [Off_by_one] and [Wild_store] extend the injector to the two
    remaining §1.3 error classes (out-of-bounds by-one and wild-pointer
    writes). *)

open Dpmr_ir

type kind =
  | Heap_array_resize of int  (** percentage of the request to keep *)
  | Immediate_free
  | Off_by_one  (** request one element fewer (extension) *)
  | Wild_store of int  (** displace a store by a byte offset (extension) *)

(** Display name, as reports print it. *)
val kind_name : kind -> string

(** Atom of the cache identity and the wire, e.g. ["resize-50"]. *)
val kind_repr : kind -> string

(** The one fault-kind parser, under [--kind] and the wire protocol:
    every {!kind_repr} with a resize share 1 ≤ N ≤ 99 parses back
    exactly, and ["resize"] means ["resize-50"]; [None] for anything
    else. *)
val kind_of_string : string -> kind option

type site = { func : string; block : string; index : int }
(** [index] is the instruction's position within its block. *)

val site_name : site -> string

(** Injectable sites for a fault type: array allocation sites for
    resizes/off-by-one, all heap allocation sites for immediate frees,
    non-pointer store sites for wild stores. *)
val sites : kind -> Prog.t -> site list

(** Returns a clone of the program with the fault enabled at one site;
    the injected code calls [__fi_mark] so the harness records the time
    of the first successful injection. *)
val apply : Prog.t -> kind -> site -> Prog.t

(** {!apply}, plus the extent of the code the fault added, for
    {!Dpmr_core.Transform.transform}'s fault-last numbering. *)
val locate : Prog.t -> kind -> site -> Prog.t * Dpmr_core.Transform.fault
