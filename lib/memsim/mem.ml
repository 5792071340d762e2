(** Simulated flat 64-bit address space with demand-mapped 4 KiB pages.

    Segment map (chosen so that wild pointers usually land in unmapped
    territory and fault, while overflows between neighbouring objects
    corrupt silently — the two behaviours §2.5 distinguishes):

    {v
      [0, 0x10000)               guard: never mapped (null page)
      [0x0001_0000, ...)         globals, laid out at load time
      [0x4000_0000, ...)         stack, grows upward
      [0x8000_0000, ...)         heap wilderness
    v}

    Accesses to an unmapped page raise {!Fault}, which the VM reports as a
    crash (a *naturally detected* error in the dissertation's metric
    vocabulary, §3.6).  Pages are filled with deterministic garbage when
    first mapped, so uninitialized heap/stack reads see arbitrary — but
    reproducible — data.

    Pages live in three dense per-segment tables indexed by page number
    relative to the segment base.  All three segments grow upward from a
    fixed base, so the tables stay compact, lookups are an array index
    (no hashing — the diversity transform interleaves app and replica
    accesses on far-apart pages, which thrashed the previous
    hashtable-plus-one-entry-cache design), and a table is itself a
    snapshot of the address space: {!freeze} captures the page pointers,
    and copy-on-write keeps captured pages immutable afterwards. *)

type fault =
  | Unmapped of int64  (** access to an address with no mapped page *)
  | Invalid_free of int64  (** free of a non-chunk address (allocator check) *)
  | Double_free of int64  (** free of an already-free chunk *)

exception Fault of fault

let fault_to_string = function
  | Unmapped a -> Printf.sprintf "segfault at 0x%Lx" a
  | Invalid_free a -> Printf.sprintf "invalid free of 0x%Lx" a
  | Double_free a -> Printf.sprintf "double free of 0x%Lx" a

let page_bits = 12
let page_size = 1 lsl page_bits

let globals_base = 0x0001_0000L
let stack_base = 0x4000_0000L
let heap_base = 0x8000_0000L

(* Segment bases in page numbers.  The globals table starts at page 0 so
   the [0, 0x10000) null guard needs no special case: nothing ever maps
   a page there, so any access finds an empty slot and faults. *)
let g_idx0 = 0
let s_idx0 = Int64.to_int (Int64.shift_right_logical stack_base page_bits)
let h_idx0 = Int64.to_int (Int64.shift_right_logical heap_base page_bits)

type fill = Fill_zero | Fill_garbage

(* A segment's pages ([Bytes.empty] = unmapped) and, parallel to it, one
   share flag per slot: ['\001'] marks a page captured by a {!freeze} —
   owned jointly with some snapshot — which the write path must copy
   before mutating.  Flags of unmapped slots are meaningless (the empty
   sentinel is checked first). *)
type t = {
  seed : int64;
  mutable mapped_pages : int;  (** footprint statistic *)
  mutable g_tbl : Bytes.t array;
  mutable g_shr : Bytes.t;
  mutable s_tbl : Bytes.t array;
  mutable s_shr : Bytes.t;
  mutable h_tbl : Bytes.t array;
  mutable h_shr : Bytes.t;
  mutable chain : int64;
      (** chained content hash: digest of every byte written up to the
          last {!freeze} (see {!freeze} for the chaining scheme) *)
}

type frozen = {
  f_seed : int64;
  f_mapped : int;
  f_g : Bytes.t array;
  f_s : Bytes.t array;
  f_h : Bytes.t array;
  f_hash : int64;
}

let fnv_basis = 0xCBF29CE484222325L

let create ?(seed = 1L) () =
  {
    seed;
    mapped_pages = 0;
    g_tbl = [||];
    g_shr = Bytes.empty;
    s_tbl = [||];
    s_shr = Bytes.empty;
    h_tbl = [||];
    h_shr = Bytes.empty;
    chain = Int64.logxor fnv_basis seed;
  }

let[@inline] page_index addr = Int64.to_int (Int64.shift_right_logical addr page_bits)

(* ------------------------------------------------------------------ *)
(* Page lookup                                                         *)
(* ------------------------------------------------------------------ *)

(* Shared raise point: keeps the inlined fast paths free of the
   exception-allocation code. *)
let unmapped addr = raise (Fault (Unmapped addr))

let[@inline] tbl_get tbl rel addr =
  if rel < Array.length tbl then begin
    let p = Array.unsafe_get tbl rel in
    if p != Bytes.empty then p else unmapped addr
  end
  else unmapped addr

let[@inline] get_page t addr =
  let idx = page_index addr in
  if idx >= h_idx0 then tbl_get t.h_tbl (idx - h_idx0) addr
  else if idx >= s_idx0 then tbl_get t.s_tbl (idx - s_idx0) addr
  else tbl_get t.g_tbl idx addr

(* Copy-on-write page for the write path: pages marked shared (captured
   by a snapshot) are duplicated into the table before the first write,
   so a forked run never mutates its parent's state.  O(page) per dirty
   page, once. *)
let[@inline] tbl_get_w tbl shr rel addr =
  if rel < Array.length tbl then begin
    let p = Array.unsafe_get tbl rel in
    if p == Bytes.empty then unmapped addr
    else if Bytes.unsafe_get shr rel = '\000' then p
    else begin
      let q = Bytes.copy p in
      Array.unsafe_set tbl rel q;
      Bytes.unsafe_set shr rel '\000';
      q
    end
  end
  else unmapped addr

let[@inline] get_page_w t addr =
  let idx = page_index addr in
  if idx >= h_idx0 then tbl_get_w t.h_tbl t.h_shr (idx - h_idx0) addr
  else if idx >= s_idx0 then tbl_get_w t.s_tbl t.s_shr (idx - s_idx0) addr
  else tbl_get_w t.g_tbl t.g_shr idx addr

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let new_page t idx fill =
  let page = Bytes.create page_size in
  (match fill with
  | Fill_zero -> Bytes.fill page 0 page_size '\000'
  | Fill_garbage ->
      for i = 0 to (page_size / 8) - 1 do
        let v = Rng.hash2 idx (i + Int64.to_int t.seed) in
        Bytes.set_int64_le page (i * 8) v
      done);
  page

let grow_tbl tbl shr need =
  let n = Array.length tbl in
  let n' = max need (max 64 (2 * n)) in
  let tbl' = Array.make n' Bytes.empty in
  Array.blit tbl 0 tbl' 0 n;
  let shr' = Bytes.make n' '\000' in
  Bytes.blit shr 0 shr' 0 n;
  (tbl', shr')

let map_page t idx fill =
  let seg =
    if idx >= h_idx0 then 2 else if idx >= s_idx0 then 1 else 0
  in
  let rel = match seg with 2 -> idx - h_idx0 | 1 -> idx - s_idx0 | _ -> idx in
  let tbl = match seg with 2 -> t.h_tbl | 1 -> t.s_tbl | _ -> t.g_tbl in
  if rel >= Array.length tbl then begin
    let shr = match seg with 2 -> t.h_shr | 1 -> t.s_shr | _ -> t.g_shr in
    let tbl', shr' = grow_tbl tbl shr (rel + 1) in
    match seg with
    | 2 ->
        t.h_tbl <- tbl';
        t.h_shr <- shr'
    | 1 ->
        t.s_tbl <- tbl';
        t.s_shr <- shr'
    | _ ->
        t.g_tbl <- tbl';
        t.g_shr <- shr'
  end;
  let tbl = match seg with 2 -> t.h_tbl | 1 -> t.s_tbl | _ -> t.g_tbl in
  if Array.unsafe_get tbl rel == Bytes.empty then begin
    Array.unsafe_set tbl rel (new_page t idx fill);
    (* freshly mapped: privately owned, whatever a stale flag said *)
    (match seg with
    | 2 -> Bytes.unsafe_set t.h_shr rel '\000'
    | 1 -> Bytes.unsafe_set t.s_shr rel '\000'
    | _ -> Bytes.unsafe_set t.g_shr rel '\000');
    t.mapped_pages <- t.mapped_pages + 1
  end

(** Map every page overlapping [addr, addr+len). *)
let map_range t addr len fill =
  if len > 0 then
    let first = page_index addr
    and last = page_index (Int64.add addr (Int64.of_int (len - 1))) in
    for idx = first to last do
      map_page t idx fill
    done

let is_mapped t addr =
  let idx = page_index addr in
  let tbl, rel =
    if idx >= h_idx0 then (t.h_tbl, idx - h_idx0)
    else if idx >= s_idx0 then (t.s_tbl, idx - s_idx0)
    else (t.g_tbl, idx)
  in
  rel < Array.length tbl && Array.unsafe_get tbl rel != Bytes.empty

let[@inline] offset addr = Int64.to_int (Int64.logand addr 0xFFFL)

(* Byte accessors.  Multi-byte accesses may straddle a page boundary; the
   fast path (fully within one page) covers virtually all accesses. *)

let read_u8 t addr = Char.code (Bytes.get (get_page t addr) (offset addr))

let write_u8 t addr v =
  Bytes.set (get_page_w t addr) (offset addr) (Char.chr (v land 0xFF))

let rec read_bytes t addr len =
  let off = offset addr in
  if off + len <= page_size then Bytes.sub (get_page t addr) off len
  else
    let first = page_size - off in
    let a = Bytes.sub (get_page t addr) off first in
    let b = read_bytes t (Int64.add addr (Int64.of_int first)) (len - first) in
    Bytes.cat a b

let rec write_bytes t addr b pos len =
  let off = offset addr in
  if off + len <= page_size then Bytes.blit b pos (get_page_w t addr) off len
  else begin
    let first = page_size - off in
    Bytes.blit b pos (get_page_w t addr) off first;
    write_bytes t (Int64.add addr (Int64.of_int first)) b (pos + first) (len - first)
  end

(* Unchecked little-endian scalar accessors.  The stdlib's checked
   [Bytes.get_int64_le] is an ordinary function, so every call boxes its
   [int64]; these compile to single load/store instructions and keep the
   value unboxed end-to-end in the interpreter's load/store path.  Bounds
   hold by construction: callers only use them under the
   [off + len <= page_size] guard, and every page is [page_size] bytes. *)
external unsafe_get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get16_le b i = if Sys.big_endian then bswap16 (unsafe_get16 b i) else unsafe_get16 b i
let[@inline] get32_le b i = if Sys.big_endian then bswap32 (unsafe_get32 b i) else unsafe_get32 b i
let[@inline] get64_le b i = if Sys.big_endian then bswap64 (unsafe_get64 b i) else unsafe_get64 b i
let[@inline] set16_le b i v = unsafe_set16 b i (if Sys.big_endian then bswap16 v else v)
let[@inline] set32_le b i v = unsafe_set32 b i (if Sys.big_endian then bswap32 v else v)
let[@inline] set64_le b i v = unsafe_set64 b i (if Sys.big_endian then bswap64 v else v)

(* Straddling access: byte-at-a-time.  Top-level (not a local function of
   [read_int]) because a local closure makes the enclosing function
   non-inlinable without flambda, and [read_int] must inline for its
   [int64] to stay unboxed in the interpreter loop. *)
let rec read_int_straddle t addr len i acc =
  if i = len then acc
  else
    let b = Int64.of_int (read_u8 t (Int64.add addr (Int64.of_int i))) in
    read_int_straddle t addr len (i + 1)
      (Int64.logor acc (Int64.shift_left b (8 * i)))

let[@inline] read_int t addr len =
  let off = offset addr in
  if off + len <= page_size then
    let page = get_page t addr in
    match len with
    | 1 -> Int64.of_int (Char.code (Bytes.unsafe_get page off))
    | 2 -> Int64.of_int (get16_le page off)
    | 4 -> Int64.logand (Int64.of_int32 (get32_le page off)) 0xFFFFFFFFL
    | 8 -> get64_le page off
    (* [raise], not [invalid_arg]: a call in any arm forces the whole
       match result into a box; a raise arm leaves it unboxed *)
    | _ -> raise (Invalid_argument "Mem.read_int: bad length")
  else Int64.add (read_int_straddle t addr len 0 0L) 0L

let[@inline] write_int t addr len v =
  let off = offset addr in
  if off + len <= page_size then
    let page = get_page_w t addr in
    match len with
    | 1 -> Bytes.unsafe_set page off (Char.unsafe_chr (Int64.to_int (Int64.logand v 0xFFL)))
    | 2 -> set16_le page off (Int64.to_int (Int64.logand v 0xFFFFL))
    | 4 -> set32_le page off (Int64.to_int32 v)
    | 8 -> set64_le page off v
    | _ -> invalid_arg "Mem.write_int: bad length"
  else
    for i = 0 to len - 1 do
      write_u8 t
        (Int64.add addr (Int64.of_int i))
        (Int64.to_int (Int64.shift_right_logical v (8 * i)))
    done

let read_f64 t addr = Int64.float_of_bits (read_int t addr 8)
let write_f64 t addr v = write_int t addr 8 (Int64.bits_of_float v)

(* Page-wise [Bytes.fill]: this zeroes every global and every
   [__dpmr_zero] region, so a byte-at-a-time loop shows up in profiles.
   Faults at the same address the byte loop would have: the first byte
   touched in the first unmapped page. *)
let fill t addr len byte =
  let c = Char.chr (byte land 0xFF) in
  let rec go addr len =
    if len > 0 then begin
      let off = offset addr in
      let seg = min len (page_size - off) in
      Bytes.fill (get_page_w t addr) off seg c;
      go (Int64.add addr (Int64.of_int seg)) (len - seg)
    end
  in
  go addr len

(** memmove semantics (overlap-safe). *)
let move t ~dst ~src len =
  let b = read_bytes t src len in
  write_bytes t dst b 0 len

(* ------------------------------------------------------------------ *)
(* Copy-on-write snapshots                                             *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over 8-byte lanes: same mixing discipline as FNV-1a but
   consuming a 64-bit word per step instead of a byte, so hashing a dirty
   page costs 512 multiplies, not 4096.  Deterministic across processes
   (pure arithmetic over page contents), which is what lets the hash
   participate in the federated cache identity. *)
let fnv_prime = 0x100000001B3L

let[@inline] fnv_word h w = Int64.mul (Int64.logxor h w) fnv_prime

let fnv_page h page =
  let h = ref h in
  for i = 0 to (page_size / 8) - 1 do
    h := fnv_word !h (get64_le page (i * 8))
  done;
  !h

(* Hash every *privately owned* mapped page of a segment — exactly the
   pages written (or freshly mapped) since the previous [freeze], because
   freezing marks everything shared and the write path clears the flag on
   privatized copies. *)
let fnv_dirty h seg_tag tbl shr =
  let h = ref h in
  for rel = 0 to Array.length tbl - 1 do
    let p = Array.unsafe_get tbl rel in
    if p != Bytes.empty && Bytes.unsafe_get shr rel = '\000' then begin
      h := fnv_word !h (Int64.of_int ((seg_tag lsl 24) lxor rel));
      h := fnv_page !h p
    end
  done;
  !h

(** Capture the current state as an immutable snapshot.  The snapshot
    shares page storage with [t]: both sides copy a page before their
    first subsequent write to it (copy-on-write), so the capture itself
    is O(table), not O(heap).

    [f_hash] is a {e chained} content hash: the previous chain value
    extended with the content of every page dirtied since.  Two states
    with equal chain hashes went through identical write histories from
    the same root, so equal hashes imply equal memory content (the
    converse may not hold — identical content reached via different
    histories hashes differently, which costs sharing, never
    soundness). *)
let freeze t =
  let h = ref t.chain in
  h := fnv_word !h (Int64.of_int t.mapped_pages);
  h := fnv_dirty !h 0 t.g_tbl t.g_shr;
  h := fnv_dirty !h 1 t.s_tbl t.s_shr;
  h := fnv_dirty !h 2 t.h_tbl t.h_shr;
  Bytes.fill t.g_shr 0 (Bytes.length t.g_shr) '\001';
  Bytes.fill t.s_shr 0 (Bytes.length t.s_shr) '\001';
  Bytes.fill t.h_shr 0 (Bytes.length t.h_shr) '\001';
  t.chain <- !h;
  {
    f_seed = t.seed;
    f_mapped = t.mapped_pages;
    f_g = Array.copy t.g_tbl;
    f_s = Array.copy t.s_tbl;
    f_h = Array.copy t.h_tbl;
    f_hash = !h;
  }

(** Rebuild a live memory from a snapshot.  The new memory shares every
    page with the snapshot (and with any other fork of it); all pages are
    marked shared, so the first write to each page copies it.  O(table). *)
let thaw f =
  {
    seed = f.f_seed;
    mapped_pages = f.f_mapped;
    g_tbl = Array.copy f.f_g;
    g_shr = Bytes.make (Array.length f.f_g) '\001';
    s_tbl = Array.copy f.f_s;
    s_shr = Bytes.make (Array.length f.f_s) '\001';
    h_tbl = Array.copy f.f_h;
    h_shr = Bytes.make (Array.length f.f_h) '\001';
    chain = f.f_hash;
  }

let frozen_hash f = f.f_hash
