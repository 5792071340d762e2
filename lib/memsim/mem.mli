(** Simulated flat 64-bit address space with demand-mapped 4 KiB pages.

    Segment map (chosen so wild pointers usually fault while overflows
    between neighbouring objects corrupt silently — the two behaviours
    §2.5 distinguishes):

    {v
      [0, 0x10000)         guard: never mapped (null page)
      [0x0001_0000, ...)   globals, laid out at load time
      [0x4000_0000, ...)   stack, grows upward
      [0x8000_0000, ...)   heap wilderness
    v}

    Accesses to an unmapped page raise {!Fault} — a crash, which the
    experiment classification counts as natural detection (§3.6).  Pages
    are filled with deterministic garbage when first mapped, so
    uninitialized heap/stack reads see arbitrary but reproducible data.

    Pages live in dense per-segment tables (array index per access, no
    hashing), which doubles as the snapshot representation: {!freeze}
    captures the page pointers in O(table) and marks every page
    copy-on-write, so forks created by {!thaw} and the frozen parent
    never observe each other's writes. *)

type fault =
  | Unmapped of int64
  | Invalid_free of int64  (** allocator magic-check failure *)
  | Double_free of int64

exception Fault of fault

val fault_to_string : fault -> string

val page_size : int
val globals_base : int64
val stack_base : int64
val heap_base : int64

type fill = Fill_zero | Fill_garbage

type t = {
  seed : int64;
  mutable mapped_pages : int;  (** footprint statistic *)
  mutable g_tbl : Bytes.t array;  (** globals pages, indexed from page 0 *)
  mutable g_shr : Bytes.t;  (** share flags parallel to [g_tbl] *)
  mutable s_tbl : Bytes.t array;  (** stack pages, from [stack_base] *)
  mutable s_shr : Bytes.t;
  mutable h_tbl : Bytes.t array;  (** heap pages, from [heap_base] *)
  mutable h_shr : Bytes.t;
  mutable chain : int64;  (** chained content hash as of the last freeze *)
}

(** Immutable snapshot of an address space.  Shares page storage with
    live memories; copy-on-write keeps it unchanged under their writes. *)
type frozen

val create : ?seed:int64 -> unit -> t
val map_page : t -> int -> fill -> unit

(** Map every page overlapping [addr, addr+len). *)
val map_range : t -> int64 -> int -> fill -> unit

val is_mapped : t -> int64 -> bool

(** {1 Accessors} — little-endian; multi-byte accesses may straddle
    pages. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_bytes : t -> int64 -> int -> Bytes.t
val write_bytes : t -> int64 -> Bytes.t -> int -> int -> unit
val read_int : t -> int64 -> int -> int64
val write_int : t -> int64 -> int -> int64 -> unit
val read_f64 : t -> int64 -> float
val write_f64 : t -> int64 -> float -> unit

(** Set [len] bytes from [addr] to a byte value, page-wise
    ([Bytes.fill] per touched page rather than a byte loop). *)
val fill : t -> int64 -> int -> int -> unit

(** memmove semantics (overlap-safe copy). *)
val move : t -> dst:int64 -> src:int64 -> int -> unit

(** {1 Copy-on-write snapshots} *)

(** Capture the current state.  O(table), not O(heap): pages are shared
    with the snapshot and copied lazily on the next write from either
    side.  Advances the memory's chained content hash over every page
    dirtied since the previous freeze. *)
val freeze : t -> frozen

(** Rebuild a live, independently mutable memory from a snapshot in
    O(table).  Writes to the result never touch the snapshot or any
    other fork of it. *)
val thaw : frozen -> t

(** Chained content hash of the frozen state: equal hashes imply equal
    content (same write history from the same root); deterministic
    across processes, so it can serve as a cache-key component. *)
val frozen_hash : frozen -> int64
