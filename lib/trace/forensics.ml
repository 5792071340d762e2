(* Detection forensics over a decoded trace.

   Given the event stream of one fault-injection run, reconstruct the
   heap-chunk map from Malloc/Free events and walk from the first
   injection mark to the detection (or to the end of the run for
   misses), naming:

   - the injected corruption itself (the undersized reallocation, the
     premature free, or the displaced store — identified in the event
     window right after the first [Fi_mark]);
   - the first store that lands outside any live chunk payload after the
     injection (the proximate corrupting write);
   - the first divergent replica byte, when a wrapper byte-comparison
     caught it;
   - the instruction distance from injection to detection in cost units,
     which must equal the [Metrics] detection latency t2d.

   Misses are explained: either no replica comparison executed after the
   injection ("comparison never reached"), or comparisons ran and all
   passed ("replica agreed" — the corruption never made an app/replica
   pair diverge at a checked load). *)

module I64Map = Map.Make (Int64)

type target =
  | In_freed of int64  (* store into a freed chunk's payload *)
  | Chunk_header of int64  (* store into allocator metadata *)
  | Overflow of int64  (* starts inside a live chunk, runs past its end *)
  | Wilderness  (* heap-segment store inside no chunk ever allocated *)

type corruption =
  | Injected_free of { addr : int64 }
  | Undersized_malloc of { addr : int64; requested : int; granted : int }
  | Displaced_store of { addr : int64; bytes : int; target : target }

type detection = { what : string; at_cost : int; addr : int64 option; off : int option }

type verdict =
  | Detected
  | Detected_naturally
      (* never produced by [analyze] (the trace alone cannot see a crash);
         a runner that knows the run's classification substitutes it *)
  | Miss_no_comparison
  | Miss_replica_agreed of int  (* comparisons after injection, all passed *)
  | Not_injected

type report = {
  injected_at : int option;  (* cost of the first Fi_mark *)
  corruption : corruption option;
  first_bad_store : (int * corruption) option;
      (* first post-injection store outside live payloads: (cost, Displaced_store) *)
  detection : detection option;
  distance : int option;  (* detection cost - injection cost *)
  compares_after : int;
  verdict : verdict;
  truncated : bool;  (* ring dropped events; analysis may be partial *)
}

let pp_target ppf = function
  | In_freed a -> Fmt.pf ppf "freed chunk 0x%Lx" a
  | Chunk_header a -> Fmt.pf ppf "header of chunk 0x%Lx" a
  | Overflow a -> Fmt.pf ppf "overflow of chunk 0x%Lx" a
  | Wilderness -> Fmt.pf ppf "unallocated heap"

let pp_corruption ppf = function
  | Injected_free { addr } -> Fmt.pf ppf "premature free of chunk 0x%Lx" addr
  | Undersized_malloc { addr; requested; granted } ->
      Fmt.pf ppf "undersized allocation 0x%Lx (asked %d, granted %d)" addr requested granted
  | Displaced_store { addr; bytes; target } ->
      Fmt.pf ppf "%d-byte store to 0x%Lx (%a)" bytes addr pp_target target

let pp_verdict ppf = function
  | Detected -> Fmt.string ppf "detected"
  | Detected_naturally ->
      Fmt.string ppf "detected naturally (crash / error exit ended the run)"
  | Miss_no_comparison -> Fmt.string ppf "miss: comparison never reached"
  | Miss_replica_agreed n -> Fmt.pf ppf "miss: replica agreed (%d comparisons passed)" n
  | Not_injected -> Fmt.string ppf "fault site never executed"

(* Allocator geometry (mirrors lib/memsim/allocator.ml): a chunk's
   16-byte header sits immediately below its payload base. *)
let header_bytes = 16L

(* Chunk map: payload base -> (granted payload bytes, live?).  Freed
   chunks stay in the map marked dead so use-after-free stores can be
   attributed; reallocation flips them live again.  A [truncated] map
   lacks every chunk allocated before the ring's window, so a store
   outside the chunks it knows may land in one it does not: no header
   or wilderness is named then, only stores against known chunks. *)
let classify chunks ~truncated ~heap_base ~addr ~bytes =
  if Int64.unsigned_compare addr heap_base < 0 then None
  else
    let last = Int64.add addr (Int64.of_int (max 1 bytes - 1)) in
    let below = I64Map.find_last_opt (fun base -> Int64.unsigned_compare base addr <= 0) chunks in
    match below with
    | Some (base, (granted, live)) when Int64.unsigned_compare addr (Int64.add base (Int64.of_int granted)) < 0 ->
        if not live then Some (In_freed base)
        else if Int64.unsigned_compare last (Int64.add base (Int64.of_int granted)) >= 0 then
          Some (Overflow base)
        else None (* inside a live payload: legitimate *)
    | _ when truncated -> None
    | _ -> (
        (* not inside any payload: allocator metadata or wilderness *)
        match I64Map.find_first_opt (fun base -> Int64.unsigned_compare base addr > 0) chunks with
        | Some (base, _) when Int64.unsigned_compare addr (Int64.sub base header_bytes) >= 0 ->
            Some (Chunk_header base)
        | _ -> Some Wilderness)

let analyze ~heap_base ?(dropped = 0) (records : Trace.record array) : report =
  let n = Array.length records in
  let truncated = dropped > 0 in
  (* first injection mark *)
  let fi_idx = ref (-1) in
  (try
     for i = 0 to n - 1 do
       match records.(i).ev with
       | Trace.Fi_mark -> fi_idx := i; raise Exit
       | _ -> ()
     done
   with Exit -> ());
  let injected_at = if !fi_idx >= 0 then Some records.(!fi_idx).cost else None in
  (* detection (at most one per run: the exception ends the run) *)
  let detection = ref None in
  Array.iter
    (fun (r : Trace.record) ->
      match r.ev with
      | Trace.Detect { what; addr; off } ->
          detection :=
            Some
              {
                what;
                at_cost = r.cost;
                addr = (if Int64.equal addr (-1L) then None else Some addr);
                off = (if off < 0 then None else Some off);
              }
      | _ -> ())
    records;
  (* forward walk: chunk map + post-injection classification *)
  let chunks = ref I64Map.empty in
  let first_bad = ref None in
  let compares_after = ref 0 in
  for i = 0 to n - 1 do
    let r = records.(i) in
    let after = !fi_idx >= 0 && i > !fi_idx in
    match r.ev with
    | Trace.Malloc { addr; granted; _ } -> chunks := I64Map.add addr (granted, true) !chunks
    | Trace.Free { addr; _ } ->
        chunks :=
          I64Map.update addr
            (function Some (g, _) -> Some (g, false) | None -> Some (0, false))
            !chunks
    | Trace.Store { addr; bytes } when after && !first_bad = None -> (
        match classify !chunks ~truncated ~heap_base ~addr ~bytes with
        | Some target ->
            first_bad := Some (r.cost, Displaced_store { addr; bytes; target })
        | None -> ())
    | Trace.Compare _ when after -> incr compares_after
    | _ -> ()
  done;
  (* name the injected corruption from the event window right after the
     first mark: the injected code runs immediately (same block), so its
     chunk/store events are the next few records. *)
  let corruption =
    if !fi_idx < 0 then None
    else begin
      let window = Array.sub records (!fi_idx + 1) (min 8 (n - !fi_idx - 1)) in
      let first_malloc = ref None and freed = ref None and first_store = ref None in
      Array.iter
        (fun (r : Trace.record) ->
          match r.ev with
          | Trace.Malloc { addr; requested; granted; _ } ->
              if !first_malloc = None then
                first_malloc := Some (Undersized_malloc { addr; requested; granted })
          | Trace.Free { addr; _ } -> if !freed = None then freed := Some addr
          | Trace.Store { addr; bytes } when !first_store = None -> (
              match classify !chunks ~truncated ~heap_base ~addr ~bytes with
              (* chunk map here reflects the END state; only use it as a
                 hint — a displaced store is named even if it can't be
                 classified against the final map. *)
              | Some target -> first_store := Some (Displaced_store { addr; bytes; target })
              | None -> ())
          | _ -> ())
        window;
      match (!freed, !first_malloc, !first_store) with
      | Some addr, _, _ -> Some (Injected_free { addr })
      | None, Some m, _ -> Some m
      | None, None, s -> s
    end
  in
  let distance =
    match (injected_at, !detection) with
    | Some inj, Some d -> Some (d.at_cost - inj)
    | _ -> None
  in
  let verdict =
    if !fi_idx < 0 then Not_injected
    else if !detection <> None then Detected
    else if !compares_after = 0 then Miss_no_comparison
    else Miss_replica_agreed !compares_after
  in
  {
    injected_at;
    corruption;
    first_bad_store = !first_bad;
    detection = !detection;
    distance;
    compares_after = !compares_after;
    verdict;
    truncated;
  }

let pp_report ppf (r : report) =
  (match r.injected_at with
  | None -> Fmt.pf ppf "injection   : site never executed@."
  | Some c -> Fmt.pf ppf "injection   : fi-mark at cost %d@." c);
  (match r.corruption with
  | Some c -> Fmt.pf ppf "corruption  : %a@." pp_corruption c
  | None -> ());
  (match r.first_bad_store with
  | Some (cost, c) -> Fmt.pf ppf "first bad st: %a at cost %d@." pp_corruption c cost
  | None -> ());
  (match r.detection with
  | Some d ->
      Fmt.pf ppf "detection   : %s at cost %d" d.what d.at_cost;
      (match (d.addr, d.off) with
      | Some a, Some o -> Fmt.pf ppf " — first divergent byte 0x%Lx (offset %d)" a o
      | _ -> ());
      Fmt.pf ppf "@."
  | None -> ());
  (match r.distance with
  | Some d -> Fmt.pf ppf "distance    : %d cost units@." d
  | None -> ());
  Fmt.pf ppf "verdict     : %a%s@." pp_verdict r.verdict
    (if r.truncated then " (ring truncated; partial)" else "")
