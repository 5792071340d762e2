(** DPMR build configuration: replication design × diversity
    transformation × state comparison policy — the three tunable axes the
    dissertation evaluates. *)

(** Pointer-in-memory handling strategy (the key design choice of
    Chapters 2 and 4). *)
type mode =
  | Sds
      (** Shadow Data Structures: pointers stored in memory are
          comparable; ROP/NSOP pairs live in shadow objects (§2.2) *)
  | Mds
      (** Mirrored Data Structures: replica memory mirrors application
          memory; replica pointers are stored in replica memory (§4.1) *)

(** Diversity transformations (Table 2.8). *)
type diversity =
  | No_diversity  (** implicit diversity from intra-process layout only *)
  | Pad_malloc of int  (** grow replica heap requests by a static amount *)
  | Zero_before_free  (** zero replica buffers prior to deallocation *)
  | Rearrange_heap  (** randomize replica heap object placement *)
  | Pad_alloca of int
      (** grow replica stack allocations (the §2.6 production-version
          extension to stack memory) *)
  | Layout_perm
      (** displace each replica heap object past 1..3 seeded dummy
          allocations (an address-space decorrelation extension) *)
  | Pad_jitter  (** grow each replica heap request by a seeded per-site pad *)

(** State comparison policies (§2.7). *)
type policy =
  | All_loads
  | Temporal of int64
      (** 64-bit mask; bit [counter] decides whether a check executes
          (Table 2.9) *)
  | Static of float  (** compile-time keep-probability per load site *)

type t = {
  mode : mode;
  diversity : diversity;
  policy : policy;
  seed : int64;
      (** drives static-policy coin flips, rearrange-heap, layout-perm and
          pad-jitter *)
}

(** SDS, no diversity, all loads, seed 42 — the paper's configuration. *)
val default : t

(** The §2.7 masks: 1/8, 1/2 and 7/8 checking density. *)
val temporal_mask_1_8 : int64

val temporal_mask_1_2 : int64
val temporal_mask_7_8 : int64

val mode_name : mode -> string

(** Parses each {!mode_name}; [None] for anything else. *)
val mode_of_string : string -> mode option

val diversity_name : diversity -> string

(** The one diversity parser, under [--diversity] and the wire protocol:
    every {!diversity_name} parses back, and so do the CLI spellings
    ["none"], ["pad-N"] and ["pad-stack-N"].  A pad size must be a
    non-negative decimal; [None] for anything else. *)
val diversity_of_string : string -> diversity option

(** Display name; it rounds [Static] fractions and counts mask bits. *)
val policy_name : policy -> string

(** Full-fidelity policy atom of the cache identity and the wire:
    temporal masks and static fractions in hex. *)
val policy_repr : policy -> string

(** The one policy parser, under [--policy] and the wire protocol: every
    {!policy_repr} parses back exactly, and so do the CLI spellings
    ["temporal-1/8"], ["temporal-1/2"], ["temporal-7/8"] and
    ["static-N"], N percent as a non-negative decimal; [None] for
    anything else (["static-0.1"] included). *)
val policy_of_string : string -> policy option

val name : t -> string
