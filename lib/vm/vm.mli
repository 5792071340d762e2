(** The interpreter: executes an IR program against the simulated memory
    subsystem, charging the {!Cost} model, dispatching external
    functions, and classifying the run per {!Outcome}.

    Two engines share all VM state and agree bit-for-bit: the default
    {b lowered} engine ({!run}) executes the pre-resolved threaded form
    produced by {!Lower}, and the {b reference} tree-walking engine
    ({!run_reference}) is kept as the executable specification the
    differential tests compare against. *)

open Dpmr_ir
open Dpmr_memsim

type value = Lower.value = I of int64 | F of float
(** Runtime values: integers and pointers share [I]. *)

exception Exit_program of int

(** Raised by the [__dpmr_detect] intrinsic and the wrapper checks. *)
exception Dpmr_detected of string

exception Timeout_exceeded
exception Vm_error of string

(** Raised out of {!run} by a cooperative-cancellation hook (see
    {!set_poll_hook}); never caught by the run classifier, so it reaches
    the supervisor that installed the hook. *)
exception Cancelled of string

(** The watched-baseline state of a running {!run_watched}. *)
type watch

type t = {
  prog : Prog.t;
  lprog : Lower.prog;  (** pre-resolved form executed by {!run} *)
  mutable mem : Mem.t;  (** mutable only for {!resume}: forks swap in a thawed space *)
  mutable alloc : Allocator.t;
  mutable sp : int64;
  global_addr : (string, int64) Hashtbl.t;
  fun_addr : (string, int64) Hashtbl.t;
  addr_fun : (int64, string) Hashtbl.t;
  mutable next_fun_addr : int64;
  out : Buffer.t;
  cost : int ref;
      (** a [ref] rather than a mutable field so the compiled tier can
          capture it once per entry and charge without touching [t] *)
  mutable budget : int;
  rng : Rng.t;
  externs : (string, extern) Hashtbl.t;
  extern_slots : extern option array;
      (** per-VM resolution of the {!Lower.Lextern} call slots *)
  mutable fi_first_cost : int option;
  mutable call_depth : int;
  mutable use_lowered : bool;  (** engine selector for {!call_function} *)
  trace : Dpmr_trace.Trace.t option;
      (** the domain's trace sink ({!Dpmr_trace.Trace.current}), captured
          once at {!create}; [None] — the common case — costs one pointer
          test per would-be event *)
  mutable watched : watch option;
      (** set by {!run_watched} for the duration of the watched run and
          [None] otherwise; likewise one pointer test per call and per
          block entry *)
}

and extern = t -> value list -> value option
(** External functions receive the VM and the evaluated arguments. *)

(** Create a VM.  [lowered], when supplied, must be the result of
    [Lower.lower_prog prog] for this very program — it lets callers that
    run the same program many times lower it once; a mismatched or absent
    [lowered] triggers a fresh lowering. *)
val create : ?seed:int64 -> ?budget:int64 -> ?lowered:Lower.prog -> Prog.t -> t

(** Install (or clear, with [None]) this domain's step-poll hook.  Every
    engine (reference, lowered and compiled) calls it once per basic
    block, at the budget check; the hook cancels the run by raising
    {!Cancelled}.  Domain-local: a hook installed by a worker never
    affects VMs on other domains. *)
val set_poll_hook : (unit -> unit) option -> unit

val register_extern : t -> string -> extern -> unit

val add_cost : t -> int -> unit
val as_int : value -> int64
val as_float : value -> float
val truncate_to : Types.width -> int64 -> int64
val sign_extend : Types.width -> int64 -> int64

(** Address of a function (assigning one on first use). *)
val fun_address : t -> string -> int64

val global_address : t -> string -> int64

(** Call a defined function or a registered extern by name, on whichever
    engine the current run selected. *)
val call_function : t -> string -> value list -> value option

(** Run the entry point to completion and classify the result.  [main]
    may take [()] or [(argc, argv)]; in the latter case [args] is
    materialized as C strings in simulated memory.  Executes the lowered
    threaded form. *)
val run : ?entry:string -> ?args:string list -> t -> Outcome.run

(** Same protocol on the reference tree-walking engine (the original
    interpreter, kept as the executable specification). *)
val run_reference : ?entry:string -> ?args:string list -> t -> Outcome.run

(** {1 Tiered execution}

    Three tiers, all charging the {!Cost} model identically and agreeing
    byte-for-byte on every outcome: the reference tree-walker, the
    lowered threaded interpreter, and a closure-compiled top tier
    ({!Compile}) that hot functions are promoted into after
    {!Cost.tier_promote_blocks} executed lowered blocks.  Promotion is
    refused while full per-event fidelity is required (trace sink
    installed, fault injection activated), and compiled code
    deoptimizes back into the lowered engine — same frame, at a block
    boundary — when fidelity demands appear mid-run. *)

type tier_mode =
  | Tier_auto  (** telemetry-driven promotion (the default) *)
  | Tier_ref  (** force the reference tree-walker in {!run} *)
  | Tier_lowered  (** disable promotion: lowered engine only *)
  | Tier_compiled  (** promote at first entry (threshold 0) *)

(** Set the process-global tier policy.  Also settable through the
    [DPMR_TIER] environment variable ([auto]/[ref]/[lowered]/[compiled]),
    read once at module initialization. *)
val set_tier_mode : tier_mode -> unit

val tier_mode : unit -> tier_mode
val tier_mode_of_string : string -> tier_mode option

(** Cumulative (process-wide) compiled-tier telemetry:
    (functions promoted, deoptimizations). *)
val tier_stats : unit -> int * int

(** {1 Copy-on-write snapshots (snapshot/fork campaign execution)}

    A watched baseline run executes bit-identically to {!run} until it
    first reaches a divergence position computed by
    {!Lower.diff_limits}, captures the whole VM state copy-on-write
    ({!Mem.freeze} / {!Allocator.freeze}, frame and table copies), and
    unwinds.  Forks {!resume} from the capture on their own (injected)
    program; the result is bit-identical to running the fork from
    zero. *)

type snapshot

(** Watching is impossible on this VM altogether (tracing active).
    Callers fall back to from-zero runs. *)
exception Watch_infeasible

(** Per-member resolution of a watched baseline run. *)
type watch_result =
  | Wsnap of snapshot
      (** state captured copy-on-write at the member's divergence
          frontier; {!resume} a fork from it *)
  | Wshared of Outcome.run
      (** the baseline ended (normally, by trap, or on budget) without
          reaching this member's frontier — the member's whole run is
          bit-identical to the baseline's, so this outcome {e is} the
          member's outcome *)
  | Wzero
      (** the frontier was reached where a fork cannot resume (inside an
          extern callback): run this member from zero *)

(** Run the entry point watched for a whole group: bit-identical to
    {!run}, except that on the first arrival at each member's divergence
    frontier (its {!Lower.diff_limits} table) the VM state is captured
    copy-on-write for that member; the run ends early once every member
    is resolved. *)
val run_watched :
  ?entry:string ->
  ?args:string list ->
  t ->
  (string, int array) Hashtbl.t array ->
  watch_result array

(** Replace this (freshly created, extern-registered) VM's state with the
    snapshot's and run to completion.  The captured frames are taken as
    they are: the fork's program numbers registers and blocks like the
    baseline's at every position below the divergence frontier. *)
val resume : t -> snapshot -> Outcome.run

(** Deterministic content hash of the captured state (a cache-key
    component: equal hashes imply forks resume from equal states). *)
val snapshot_hash : snapshot -> int64

(** Simulated cost already spent at the capture point. *)
val snapshot_cost : snapshot -> int64
