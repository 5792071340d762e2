(** Deterministic chaos injection for the engine's own machinery.

    Chaos mode proves the supervision layer works by attacking the
    campaign runner itself: worker attempts raise {!Injected_fault} or
    stall briefly, and cache appends get torn mid-record.  Every decision
    is a pure hash of [(seed, key, attempt)], so a chaos run is exactly
    reproducible — the chaos CI job can assert that report output stays
    byte-identical to the golden files despite the injected failures.

    Faults are {e transient by construction}: {!plan} never injects into
    attempt numbers [>= burst], so a supervisor that retries at least
    [burst] times always reaches a clean attempt.  Deterministic
    (non-chaos) failures are the quarantine path, exercised separately.

    Enabled either programmatically ({!set}) or by the [DPMR_CHAOS]
    environment variable / [--chaos] flag: ["1"] or ["p"] or
    ["p,seed"] with probability [p] in [0..1]. *)

exception Injected_fault of string

type t = {
  prob : float;  (** per-attempt injection probability *)
  seed : int64;
  burst : int;  (** attempts [>= burst] are never injected into *)
  max_delay : float;  (** cap on injected stalls, seconds *)
}

let make ?(prob = 1.0) ?(seed = 0L) ?(burst = 2) ?(max_delay = 0.002) () =
  { prob = Float.max 0. (Float.min 1. prob); seed; burst = max 1 burst; max_delay }

let parse s =
  let mk prob seed = Some (make ~prob ~seed ()) in
  match String.index_opt s ',' with
  | None -> (
      match float_of_string_opt (String.trim s) with
      | Some p when p > 0. -> mk p 0L
      | _ -> None)
  | Some i -> (
      let p = String.trim (String.sub s 0 i) in
      let sd = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      match (float_of_string_opt p, Int64.of_string_opt sd) with
      | Some p, Some seed when p > 0. -> mk p seed
      | _ -> None)

let of_env () =
  match Sys.getenv_opt "DPMR_CHAOS" with
  | None | Some "" | Some "0" -> None
  | Some s -> parse s

(* Set once at startup (or pinned by a test) before worker domains
   spawn; workers only read it. *)
let state : t option option ref = ref None (* None = env not consulted yet *)

let set c = state := Some c

let active () =
  match !state with
  | Some c -> c
  | None ->
      let c = of_env () in
      state := Some c;
      c

let with_chaos c f =
  let saved = !state in
  set c;
  Fun.protect ~finally:(fun () -> state := saved) f

(* ---------------- deterministic decision streams ---------------- *)

(* top 53 bits to a float in [0, 1) *)
let u01 h = Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

let decision c ~stream ~key ~attempt =
  u01 (Dpmr_memsim.Rng.fnv1a64 ~seed:c.seed (Printf.sprintf "%s\x00%s\x00%d" stream key attempt))

type action = Fail | Delay of float

let plan c ~key ~attempt =
  if attempt >= c.burst then None
  else
    let u = decision c ~stream:"fault" ~key ~attempt in
    if u >= c.prob then None
    else
      let pick = decision c ~stream:"kind" ~key ~attempt in
      (* mostly exceptions, some stalls — stalls must stay far under any
         reasonable deadline, they model scheduling noise, not hangs *)
      if pick < 0.7 then Some Fail else Some (Delay (c.max_delay *. pick))

(** Injection point for one worker attempt: no-op when chaos is off;
    otherwise deterministically either returns, stalls briefly, or
    raises {!Injected_fault}. *)
let attempt_fault ~key ~attempt =
  match active () with
  | None -> ()
  | Some c -> (
      match plan c ~key ~attempt with
      | None -> ()
      | Some (Delay d) -> Unix.sleepf d
      | Some Fail ->
          raise
            (Injected_fault (Printf.sprintf "chaos: injected fault (%s, attempt %d)" key attempt)))

(* ---------------- wire chaos ---------------- *)

(* Wire chaos attacks the serving path the way worker chaos attacks the
   job path: response frames get torn mid-write, connections reset,
   replies stall, and (rarely) the whole worker process dies mid-job.
   It is configured separately ([set_wire]) because its blast
   radius is a *connection*, not an attempt — the recovery layer under
   test is the dispatcher/client reconnect machinery, not the job
   supervisor.  Decisions are pure in [(seed, key, attempt)] with the
   same burst rule, so a peer that retries [burst] times always gets
   clean service eventually and goldens stay byte-identical. *)

type wire_action =
  | Wire_stall of float  (** delay the response; straggler/hedge fodder *)
  | Wire_torn  (** write a partial frame, then drop the connection *)
  | Wire_reset  (** drop the connection before replying *)
  | Wire_kill  (** the worker process dies mid-job ([_exit]) *)

let wire_state : t option ref = ref None
let set_wire c = wire_state := c
let wire_active () = !wire_state

let wire_plan c ~key ~attempt =
  if attempt >= c.burst then None
  else
    let u = decision c ~stream:"wire" ~key ~attempt in
    if u >= c.prob then None
    else
      let pick = decision c ~stream:"wirekind" ~key ~attempt in
      (* mostly recoverable nuisances; process kills are rare because
         each one forfeits a whole worker (the test for quarantine +
         re-dispatch, and for crash-durable cache recovery) *)
      if pick < 0.40 then Some (Wire_stall (c.max_delay *. (0.5 +. pick)))
      else if pick < 0.75 then Some Wire_torn
      else if pick < 0.97 then Some Wire_reset
      else Some Wire_kill

(** Torn cache write: [Some n] truncates the record (newline included)
    to its first [n] bytes.  Kept rarer than worker faults so chaos runs
    still exercise warm-cache paths. *)
let truncation ~key ~len =
  match active () with
  | None -> None
  | Some c ->
      let u = decision c ~stream:"trunc" ~key ~attempt:0 in
      if u >= c.prob *. 0.25 then None
      else Some (1 + int_of_float (u /. (c.prob *. 0.25) *. float_of_int (max 1 (len - 1))))
