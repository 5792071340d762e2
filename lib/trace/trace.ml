(* Fixed-size binary event ring.  See trace.mli for the contract.

   Slot layout (40 bytes, little-endian int64 fields):
     +0  kind  (1 byte)
     +8  cost  (int64 — Vm.cost at emission)
     +16 a
     +24 b
     +32 c
   The payload meaning of a/b/c depends on [kind]; strings are interned
   to small ids so slots never hold OCaml heap pointers. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let slot_bytes = 40

(* Event kind tags (slot byte 0). *)
let k_block = 1
let k_call_enter = 2
let k_call_exit = 3
let k_malloc = 4
let k_free = 5
let k_store = 6
let k_write = 7
let k_mirror = 8
let k_compare = 9
let k_detect = 10
let k_fi_mark = 11
let k_phase = 12

type t = {
  buf : Bytes.t;
  cap : int;  (* slot count, power of two *)
  mutable head : int;  (* total events ever emitted *)
  mutable block_ctr : int;
  sample_mask : int;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n_names : int;
  mutable clock : unit -> int;
  (* summary counters (cheap; maintained even for dropped slots) *)
  mutable n_detections : int;
  mutable n_comparisons : int;
  mutable n_fi_marks : int;
}

let rec pow2_ge n k = if k >= n then k else pow2_ge n (k * 2)

let create ?(capacity = 1 lsl 16) ?(sample_every = 64) () =
  let cap = pow2_ge (max 8 capacity) 8 in
  let mask = pow2_ge (max 1 sample_every) 1 - 1 in
  {
    buf = Bytes.create (cap * slot_bytes);
    cap;
    head = 0;
    block_ctr = 0;
    sample_mask = mask;
    ids = Hashtbl.create 64;
    names = Array.make 64 "";
    n_names = 0;
    clock = (fun () -> 0);
    n_detections = 0;
    n_comparisons = 0;
    n_fi_marks = 0;
  }

let set_clock t f = t.clock <- f
let capacity t = t.cap
let emitted t = t.head
let dropped t = max 0 (t.head - t.cap)

(* ---- string interning ------------------------------------------------ *)

let intern t s =
  match Hashtbl.find t.ids s with
  | i -> i
  | exception Not_found ->
      let i = t.n_names in
      if i >= Array.length t.names then begin
        let bigger = Array.make (2 * Array.length t.names) "" in
        Array.blit t.names 0 bigger 0 i;
        t.names <- bigger
      end;
      t.names.(i) <- s;
      t.n_names <- i + 1;
      Hashtbl.replace t.ids s i;
      i

let name_of t i = if i >= 0 && i < t.n_names then t.names.(i) else "?"

(* ---- raw emission ---------------------------------------------------- *)

let[@inline] put t kind cost a b c =
  let off = (t.head land (t.cap - 1)) * slot_bytes in
  t.head <- t.head + 1;
  Bytes.unsafe_set t.buf off (Char.unsafe_chr kind);
  set64 t.buf (off + 8) (Int64.of_int cost);
  set64 t.buf (off + 16) a;
  set64 t.buf (off + 24) b;
  set64 t.buf (off + 32) c

let[@inline] sample_block t ~cost ~fname ~blk =
  let ctr = t.block_ctr in
  t.block_ctr <- ctr + 1;
  if ctr land t.sample_mask = 0 then
    put t k_block cost (Int64.of_int (intern t fname)) (Int64.of_int blk) 0L

let[@inline] emit_call_enter t ~cost ~fname =
  put t k_call_enter cost (Int64.of_int (intern t fname)) 0L 0L

let[@inline] emit_call_exit t ~cost ~fname =
  put t k_call_exit cost (Int64.of_int (intern t fname)) 0L 0L

let[@inline] emit_malloc t ~addr ~requested ~granted ~live =
  put t k_malloc (t.clock ()) addr
    (Int64.logor
       (Int64.of_int (requested land 0xffffffff))
       (Int64.shift_left (Int64.of_int granted) 32))
    (Int64.of_int live)

let[@inline] emit_free t ~addr ~live =
  put t k_free (t.clock ()) addr 0L (Int64.of_int live)

let[@inline] emit_store t ~cost ~addr ~bytes =
  put t k_store cost addr (Int64.of_int bytes) 0L

let[@inline] emit_write t ~cost ~addr ~len =
  put t k_write cost addr (Int64.of_int len) 0L

let[@inline] emit_mirror t ~cost ~app ~rep ~len =
  put t k_mirror cost app rep (Int64.of_int len)

let[@inline] emit_compare t ~cost ~app ~rep ~len =
  t.n_comparisons <- t.n_comparisons + 1;
  put t k_compare cost app rep (Int64.of_int len)

let emit_detect t ~cost ~what ~addr ~off =
  t.n_detections <- t.n_detections + 1;
  put t k_detect cost (Int64.of_int (intern t what)) addr (Int64.of_int off)

let[@inline] emit_fi_mark t ~cost =
  t.n_fi_marks <- t.n_fi_marks + 1;
  put t k_fi_mark cost 0L 0L 0L

let emit_phase t ~label =
  put t k_phase (t.clock ()) (Int64.of_int (intern t label)) 0L 0L

(* ---- domain-local installation --------------------------------------- *)

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current () = Domain.DLS.get key
let set o = Domain.DLS.set key o

let with_sink t f =
  let prev = current () in
  set (Some t);
  Fun.protect ~finally:(fun () -> set prev) f

(* ---- decoding -------------------------------------------------------- *)

type event =
  | Block of { fn : string; blk : int }
  | Call_enter of string
  | Call_exit of string
  | Malloc of { addr : int64; requested : int; granted : int; live : int }
  | Free of { addr : int64; live : int }
  | Store of { addr : int64; bytes : int }
  | Write of { addr : int64; len : int }
  | Mirror of { app : int64; rep : int64; len : int }
  | Compare of { app : int64; rep : int64; len : int }
  | Detect of { what : string; addr : int64; off : int }
  | Fi_mark
  | Phase of string

type record = { cost : int; ev : event }

let decode t kind a b c =
  let i64 = Int64.to_int in
  if kind = k_block then Block { fn = name_of t (i64 a); blk = i64 b }
  else if kind = k_call_enter then Call_enter (name_of t (i64 a))
  else if kind = k_call_exit then Call_exit (name_of t (i64 a))
  else if kind = k_malloc then
    Malloc
      {
        addr = a;
        requested = i64 (Int64.logand b 0xffffffffL);
        granted = i64 (Int64.shift_right_logical b 32);
        live = i64 c;
      }
  else if kind = k_free then Free { addr = a; live = i64 c }
  else if kind = k_store then Store { addr = a; bytes = i64 b }
  else if kind = k_write then Write { addr = a; len = i64 b }
  else if kind = k_mirror then Mirror { app = a; rep = b; len = i64 c }
  else if kind = k_compare then Compare { app = a; rep = b; len = i64 c }
  else if kind = k_detect then
    Detect { what = name_of t (i64 a); addr = b; off = i64 c }
  else if kind = k_fi_mark then Fi_mark
  else if kind = k_phase then Phase (name_of t (i64 a))
  else Phase (Printf.sprintf "?kind=%d" kind)

let snapshot t =
  let n = min t.head t.cap in
  let start = t.head - n in
  Array.init n (fun k ->
      let off = ((start + k) land (t.cap - 1)) * slot_bytes in
      let kind = Char.code (Bytes.unsafe_get t.buf off) in
      let cost = Int64.to_int (get64 t.buf (off + 8)) in
      let a = get64 t.buf (off + 16) in
      let b = get64 t.buf (off + 24) in
      let c = get64 t.buf (off + 32) in
      { cost; ev = decode t kind a b c })

(* ---- summaries ------------------------------------------------------- *)

type summary = {
  s_emitted : int;
  s_dropped : int;
  s_detections : int;
  s_comparisons : int;
  s_fi_marks : int;
}

let summary t =
  {
    s_emitted = t.head;
    s_dropped = dropped t;
    s_detections = t.n_detections;
    s_comparisons = t.n_comparisons;
    s_fi_marks = t.n_fi_marks;
  }

let zero_summary =
  { s_emitted = 0; s_dropped = 0; s_detections = 0; s_comparisons = 0; s_fi_marks = 0 }

let add_summary x y =
  {
    s_emitted = x.s_emitted + y.s_emitted;
    s_dropped = x.s_dropped + y.s_dropped;
    s_detections = x.s_detections + y.s_detections;
    s_comparisons = x.s_comparisons + y.s_comparisons;
    s_fi_marks = x.s_fi_marks + y.s_fi_marks;
  }

let pp_event ppf ev =
  match ev with
  | Block { fn; blk } -> Fmt.pf ppf "block %s#%d" fn blk
  | Call_enter fn -> Fmt.pf ppf "enter %s" fn
  | Call_exit fn -> Fmt.pf ppf "exit %s" fn
  | Malloc { addr; requested; granted; live } ->
      Fmt.pf ppf "malloc 0x%Lx req=%d granted=%d live=%d" addr requested granted live
  | Free { addr; live } -> Fmt.pf ppf "free 0x%Lx live=%d" addr live
  | Store { addr; bytes } -> Fmt.pf ppf "store 0x%Lx n=%d" addr bytes
  | Write { addr; len } -> Fmt.pf ppf "write 0x%Lx len=%d" addr len
  | Mirror { app; rep; len } -> Fmt.pf ppf "mirror 0x%Lx->0x%Lx len=%d" app rep len
  | Compare { app; rep; len } ->
      if Int64.equal app (-1L) then Fmt.pf ppf "check ok"
      else Fmt.pf ppf "compare 0x%Lx~0x%Lx len=%d" app rep len
  | Detect { what; addr; off } ->
      if Int64.equal addr (-1L) then Fmt.pf ppf "DETECT %s" what
      else Fmt.pf ppf "DETECT %s at 0x%Lx+%d" what addr off
  | Fi_mark -> Fmt.pf ppf "fi-mark"
  | Phase p -> Fmt.pf ppf "phase %s" p

let pp_record ppf r = Fmt.pf ppf "[%10d] %a" r.cost pp_event r.ev
