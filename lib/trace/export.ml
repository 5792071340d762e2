(* Chrome trace-event ("Perfetto legacy JSON") export and cost profiles.

   Timestamps are VM cost-model units written into the [ts] microsecond
   field — absolute wall time is meaningless for a deterministic cost
   model, but relative spans render correctly in Perfetto / chrome://tracing.

   Span events come from Call_enter/Call_exit pairs; detections,
   injection marks and phases become instant events; the live-heap
   counter track is driven by Malloc/Free events. *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let event b ~first ~name ~cat ~ph ~ts ~pid ~tid args =
  if not !first then Buffer.add_string b ",\n";
  first := false;
  Buffer.add_string b "  {\"name\":\"";
  escape b name;
  Buffer.add_string b (Printf.sprintf "\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%d,\"pid\":%d,\"tid\":%d" cat ph ts pid tid);
  (match args with
  | [] -> ()
  | kvs ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v))
        kvs;
      Buffer.add_char b '}');
  (match ph with "i" -> Buffer.add_string b ",\"s\":\"t\"" | _ -> ());
  Buffer.add_string b "}"

let chrome_json ?(pid = 1) ?(tid = 1) (records : Trace.record array) =
  let b = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  let ev = event b ~first ~pid ~tid in
  let last_cost = ref 0 in
  Array.iter
    (fun (r : Trace.record) ->
      last_cost := max !last_cost r.cost;
      match r.ev with
      | Trace.Call_enter fn -> ev ~name:fn ~cat:"vm" ~ph:"B" ~ts:r.cost []
      | Trace.Call_exit fn -> ev ~name:fn ~cat:"vm" ~ph:"E" ~ts:r.cost []
      | Trace.Malloc { live; _ } | Trace.Free { live; _ } ->
          ev ~name:"live_heap_bytes" ~cat:"mem" ~ph:"C" ~ts:r.cost
            [ ("bytes", string_of_int live) ]
      | Trace.Detect { what; addr; off } ->
          let args =
            [ ("what", Printf.sprintf "\"%s\"" (String.map (function '"' -> '\'' | c -> c) what)) ]
            @ (if Int64.equal addr (-1L) then []
               else [ ("addr", Printf.sprintf "\"0x%Lx\"" addr); ("off", string_of_int off) ])
          in
          ev ~name:"detect" ~cat:"dpmr" ~ph:"i" ~ts:r.cost args
      | Trace.Fi_mark -> ev ~name:"fi_mark" ~cat:"fi" ~ph:"i" ~ts:r.cost []
      | Trace.Phase p -> ev ~name:p ~cat:"phase" ~ph:"i" ~ts:r.cost []
      | Trace.Block _ | Trace.Store _ | Trace.Write _ | Trace.Mirror _
      | Trace.Compare _ ->
          (* too dense for a span view; represented by profiles instead *)
          ())
    records;
  (* close frames left open by an exceptional unwind (detections) *)
  let depth = ref 0 in
  Array.iter
    (fun (r : Trace.record) ->
      match r.ev with
      | Trace.Call_enter _ -> incr depth
      | Trace.Call_exit _ -> if !depth > 0 then decr depth
      | _ -> ())
    records;
  for _ = 1 to !depth do
    ev ~name:"(unwound)" ~cat:"vm" ~ph:"E" ~ts:!last_cost []
  done;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_chrome_json ?pid ?tid file records =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_json ?pid ?tid records))

(* ---- cost profiles --------------------------------------------------- *)

type frame = {
  fn : string;
  calls : int;
  inclusive : int;  (* cost units, summed over calls *)
  exclusive : int;  (* inclusive minus callee time *)
}

(* Walk Call_enter/Call_exit pairs with an explicit shadow stack.
   Frames still open at the end of the trace (an exception unwound
   through them, or the ring dropped their exits) are closed at the cost
   of the last event, so a detection-terminated run still charges work
   to the function it died in. *)
let profile (records : Trace.record array) =
  let totals : (string, int * int * int) Hashtbl.t = Hashtbl.create 64 in
  let stack = ref [] in
  let last_cost = ref 0 in
  let charge fn incl child =
    let c, i, e = try Hashtbl.find totals fn with Not_found -> (0, 0, 0) in
    Hashtbl.replace totals fn (c + 1, i + incl, e + (incl - child))
  in
  let close fn enter child at =
    let incl = max 0 (at - enter) in
    charge fn incl (min child incl);
    match !stack with
    | (pfn, penter, pchild) :: rest -> stack := (pfn, penter, pchild + incl) :: rest
    | [] -> ()
  in
  Array.iter
    (fun (r : Trace.record) ->
      last_cost := max !last_cost r.cost;
      match r.ev with
      | Trace.Call_enter fn -> stack := (fn, r.cost, 0) :: !stack
      | Trace.Call_exit fn -> (
          match !stack with
          | (tfn, enter, child) :: rest when String.equal tfn fn ->
              stack := rest;
              close tfn enter child r.cost
          | _ -> (* truncated ring head: exit without a recorded enter *) ())
      | _ -> ())
    records;
  let rec unwind () =
    match !stack with
    | (fn, enter, child) :: rest ->
        stack := rest;
        close fn enter child !last_cost;
        unwind ()
    | [] -> ()
  in
  unwind ();
  let rows =
    Hashtbl.fold
      (fun fn (calls, inclusive, exclusive) acc ->
        { fn; calls; inclusive; exclusive } :: acc)
      totals []
  in
  List.sort
    (fun a b ->
      match compare b.exclusive a.exclusive with
      | 0 -> String.compare a.fn b.fn
      | n -> n)
    rows

let pp_profile ?(top = 20) ppf rows =
  let total = List.fold_left (fun acc r -> acc + r.exclusive) 0 rows in
  Fmt.pf ppf "%-24s %8s %12s %12s %6s@." "function" "calls" "exclusive" "inclusive" "excl%";
  List.iteri
    (fun i r ->
      if i < top then
        Fmt.pf ppf "%-24s %8d %12d %12d %5.1f%%@." r.fn r.calls r.exclusive
          r.inclusive
          (if total = 0 then 0. else 100. *. float_of_int r.exclusive /. float_of_int total))
    rows;
  if List.length rows > top then Fmt.pf ppf "... (%d more)@." (List.length rows - top)
