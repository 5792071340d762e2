(* The serve-open workload: dpmr_serve under open-loop Poisson arrivals.

   One thread generates all load over J connections with [select]:
   requests are sent when due regardless of replies (open loop), each to
   the connection with the fewest outstanding requests, and timed from
   the moment they were due, so a stall is charged to every request
   queued behind it; how late the generator itself sent them is recorded
   too.  Requests follow dpmr_loadgen's mix: 4 workloads x 4 variant
   classes, 90% on the 128 hot identities, the rest on a cold seed space
   that misses the cache.

   Each rung of the rate ladder boots a fresh daemon on a fresh cache
   (set-up: spawn to ready), sends it the pinned request set plus every
   hot identity as one closed-loop client batch over J connections (all
   misses: the measured [wall_s]), then offers the rung's Poisson
   stream.  Latency, CPU and memory are taken at the reference rate, a
   median over several daemons; the rungs above it locate the highest
   rate that meets the latency limit. *)

module Protocol = Dpmr_server.Protocol
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Config = Dpmr_core.Config

(* ---------------- the request stream (dpmr_loadgen's) ---------------- *)

let sm_mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let sm_next st =
  st := Int64.add !st 0x9e3779b97f4a7c15L;
  sm_mix !st

let rand_below st n =
  Int64.to_int (Int64.rem (Int64.logand (sm_next st) Int64.max_int) (Int64.of_int n))

(** Uniform in [0, 1). *)
let rand_unit st = Int64.to_float (Int64.shift_right_logical (sm_next st) 11) /. 9007199254740992.

let workloads = [| "art"; "bzip2"; "equake"; "mcf" |]

let with_class p = function
  | 0 -> { p with Protocol.golden = true }
  | 1 -> p
  | 2 -> { p with Protocol.kind = Some (Inject.Heap_array_resize 50); site = 0 }
  | _ -> { p with Protocol.kind = Some Inject.Immediate_free; site = 0 }

let params ~workload ~exp_seed ~run_seed =
  { Protocol.default_run with Protocol.workload; exp_seed; run_seed; cfg_seed = exp_seed }

(** The 128 identities the hot draws range over. *)
let hot_set =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun e ->
          List.concat_map
            (fun r ->
              List.init 4
                (with_class
                   (params ~workload ~exp_seed:(Int64.of_int e) ~run_seed:(Int64.of_int (e + r)))))
            [ 0; 1; 2; 3 ])
        [ 42; 43 ])
    (Array.to_list workloads)

(** dpmr_loadgen's pinned request set, whose verdict lines are golden. *)
let pinned_set =
  let base w = params ~workload:w ~exp_seed:42L ~run_seed:43L in
  List.concat_map
    (fun w ->
      let p = base w in
      [
        { p with Protocol.golden = true };
        p;
        { p with Protocol.kind = Some (Inject.Heap_array_resize 50) };
        { p with Protocol.kind = Some Inject.Immediate_free };
        { p with Protocol.kind = Some (Inject.Heap_array_resize 50); plain = true };
      ])
    (Array.to_list workloads)
  @ [
      { (base "art") with Protocol.mode = Config.Mds };
      { (base "art") with Protocol.diversity = Config.Pad_malloc 16 };
      { (base "art") with Protocol.diversity = Config.Zero_before_free };
      { (base "mcf") with Protocol.kind = Some Inject.Immediate_free; policy = Config.Temporal 0xffL };
    ]

let identity p = Protocol.encode_request { Protocol.rid = 0; body = Protocol.Run p }

let pinned_line p (c : Experiment.classification) =
  Printf.sprintf "%s -> sf=%b co=%b ndet=%b ddet=%b timeout=%b t2d=%s cost=%Ld peak=%d" (identity p)
    c.Experiment.sf c.Experiment.co c.Experiment.ndet c.Experiment.ddet c.Experiment.timeout
    (match c.Experiment.t2d with Some t -> Int64.to_string t | None -> "-")
    c.Experiment.cost c.Experiment.peak_heap

(* ---------------- one phase of load ---------------- *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (** received bytes not yet framed *)
  outbuf : Buffer.t;  (** frames not yet written *)
  mutable outpos : int;
  pending : int Queue.t;  (** request indices, in the order replies come back *)
  mutable dead : bool;
}

type phase = {
  n : int;
  due : float array;  (** absolute due times *)
  late : float array;  (** send time - due *)
  lat : float array;  (** reply time - due; infinity when no verdict came *)
  service : float array;  (** the verdict's server-side wall_us, seconds; nan if none *)
  cached : bool array;
  verdicts : Experiment.classification option array;
  mutable errors : int;  (** error replies other than quota *)
  mutable first_error : string;  (** the first one's code and message *)
  mutable quota : int;
  mutable protocol : int;  (** undecodable or mis-attributed replies, lost requests *)
  mutable span : float;  (** first send to last reply *)
}

type schedule = Open of float array  (** due offsets from the phase start *) | Closed

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Buffer.create 4096;
    outbuf = Buffer.create 4096;
    outpos = 0;
    pending = Queue.create ();
    dead = false;
  }

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  b

(* Write what the socket takes now; false when the connection broke. *)
let flush_out c =
  let rec go () =
    let len = Buffer.length c.outbuf - c.outpos in
    if len = 0 then begin
      Buffer.clear c.outbuf;
      c.outpos <- 0;
      true
    end
    else
      match Unix.single_write c.fd (Buffer.to_bytes c.outbuf) c.outpos len with
      | k ->
          c.outpos <- c.outpos + k;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
      | exception Unix.Unix_error _ -> false
  in
  go ()

(* Complete frames at the head of [inbuf], removed from it. *)
let take_frames c =
  let s = Buffer.contents c.inbuf in
  let len = String.length s in
  let rec go off acc =
    if len - off < 4 then (off, List.rev acc)
    else
      let n = Int32.to_int (String.get_int32_be s off) in
      if len - off - 4 < n then (off, List.rev acc)
      else go (off + 4 + n) (String.sub s (off + 4) n :: acc)
  in
  let off, frames = go 0 [] in
  Buffer.clear c.inbuf;
  Buffer.add_substring c.inbuf s off (len - off);
  frames

let run_phase ~socket ~conns:j schedule (reqs : Protocol.run_params array) =
  let n = Array.length reqs in
  let ph =
    {
      n;
      due = Array.make n 0.;
      late = Array.make n 0.;
      lat = Array.make n infinity;
      service = Array.make n nan;
      cached = Array.make n false;
      verdicts = Array.make n None;
      errors = 0;
      first_error = "";
      quota = 0;
      protocol = 0;
      span = 0.;
    }
  in
  let conns = List.init j (fun _ -> connect socket) in
  let t0 = Env.now () in
  (match schedule with Open d -> Array.iteri (fun i x -> ph.due.(i) <- t0 +. x) d | Closed -> ());
  (* [resolved] counts requests answered or lost with a dead connection *)
  let sent = ref 0 and resolved = ref 0 and last_reply = ref t0 in
  let live () = List.filter (fun c -> not c.dead) conns in
  let kill c =
    if not c.dead then begin
      c.dead <- true;
      ph.protocol <- ph.protocol + Queue.length c.pending;
      resolved := !resolved + Queue.length c.pending;
      Queue.clear c.pending
    end
  in
  let send c i =
    let now = Env.now () in
    (match schedule with Closed -> ph.due.(i) <- now | Open _ -> ());
    ph.late.(i) <- now -. ph.due.(i);
    (* request id = stream index + 1, so every reply names its request *)
    Buffer.add_bytes c.outbuf
      (frame (Protocol.encode_request { Protocol.rid = i + 1; body = Protocol.Run reqs.(i) }));
    Queue.push i c.pending;
    if not (flush_out c) then kill c
  in
  let least_loaded () =
    List.fold_left
      (fun best c ->
        match best with
        | Some b when Queue.length b.pending <= Queue.length c.pending -> best
        | _ -> Some c)
      None (live ())
  in
  let receive c payload =
    match Queue.take_opt c.pending with
    | None -> ph.protocol <- ph.protocol + 1
    | Some i -> (
        let now = Env.now () in
        last_reply := now;
        incr resolved;
        match Protocol.decode_response payload with
        | Ok { Protocol.rrid; reply } when rrid = i + 1 -> (
            match reply with
            | Protocol.Verdict v ->
                ph.lat.(i) <- now -. ph.due.(i);
                ph.service.(i) <- float_of_int v.Protocol.wall_us /. 1e6;
                ph.cached.(i) <- v.Protocol.cached;
                ph.verdicts.(i) <- Some v.Protocol.cls
            | Protocol.Error (Protocol.Quota, _) -> ph.quota <- ph.quota + 1
            | Protocol.Error (code, msg) ->
                if ph.errors = 0 then
                  ph.first_error <- Protocol.error_code_to_string code ^ ": " ^ msg;
                ph.errors <- ph.errors + 1
            | _ -> ph.protocol <- ph.protocol + 1)
        | _ -> ph.protocol <- ph.protocol + 1)
  in
  let chunk = Bytes.create 65536 in
  let last_due = match schedule with Open d when n > 0 -> d.(n - 1) | _ -> 0. in
  let deadline = t0 +. last_due +. 60. in
  while !resolved < n && live () <> [] && Env.now () < deadline do
    (match schedule with
    | Open _ ->
        let now = Env.now () in
        while !sent < n && ph.due.(!sent) <= now && live () <> [] do
          Option.iter (fun c -> send c !sent) (least_loaded ());
          incr sent
        done
    | Closed ->
        (* The first request goes alone.  A fresh daemon's first two
           concurrent cache writes race on the cache's lazily built CRC
           table, and one of them fails (CamlinternalLazy.Undefined); one
           write before any concurrency builds it.  Drop this once the
           cache builds its table eagerly. *)
        List.iter
          (fun c ->
            if Queue.is_empty c.pending && !sent < n && (!sent = 0 || !resolved > 0) then begin
              send c !sent;
              incr sent
            end)
          (live ()));
    let timeout =
      match schedule with
      | Open _ when !sent < n -> Float.max 0. (ph.due.(!sent) -. Env.now ())
      | _ -> 0.05
    in
    let cs = live () in
    let writers = List.filter (fun c -> Buffer.length c.outbuf > c.outpos) cs in
    match Unix.select (List.map (fun c -> c.fd) cs) (List.map (fun c -> c.fd) writers) [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        List.iter
          (fun c -> if List.mem c.fd writable && not (flush_out c) then kill c)
          writers;
        List.iter
          (fun c ->
            if List.mem c.fd readable then
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | 0 -> kill c
              | k ->
                  Buffer.add_subbytes c.inbuf chunk 0 k;
                  List.iter (receive c) (take_frames c)
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
              | exception Unix.Unix_error _ -> kill c)
          cs
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (* never sent, or still unanswered at the deadline *)
  ph.protocol <- ph.protocol + (n - !resolved);
  ph.span <- !last_reply -. t0;
  ph

let failures ph = ph.errors + ph.quota + ph.protocol

let ms_sorted xs = Stats.sorted (List.map (fun x -> 1000. *. x) xs)

let lat_p ph p = Stats.percentile_sorted (ms_sorted (Array.to_list ph.lat)) p

let late_p ph p = Stats.percentile_sorted (ms_sorted (Array.to_list ph.late)) p

(* ---------------- steps and the rate ladder ---------------- *)

(** The rate whose latency, CPU and memory are the end-to-end numbers:
    about a third of the daemon's capacity on a 2-core host, loaded
    enough that waiting behind misses is part of the tail.  At 1000 rps
    the p99 of runs at different seeds spread by about 0.34 of its
    median, too wide to gate; at 500 rps by about 0.12. *)
let reference_rate = 500

(** The reference rung runs on this many fresh daemons, each for this
    share of the run's seconds (about 1250 requests at 15 s, so a p99
    has a dozen samples beyond it), and its numbers are the median over
    them.  One daemon's p99 varies as much within a run as between runs
    (a single stall took one from 16 ms to 47 ms), so more requests on
    one daemon do not steady it; a median over daemons does. *)
let reference_daemons = 3

let reference_share = 0.17

(** The rungs above the reference, with the share of the run's seconds
    their arrivals span: they locate the highest rate meeting the
    latency limit. *)
let ladder = [ (1000, 0.08); (1500, 0.08); (2000, 0.08); (3000, 0.08) ]

let p99_limit_ms = 50.
let late_limit_ms = 10.

let requests (env : Env.t) (rate, share) = max 200 (int_of_float (float_of_int rate *. share *. env.seconds))

let mix seed k = Int64.add (Int64.of_int seed) (Int64.mul 0x5851f42d4c957f2dL (Int64.of_int k))

(** Requests in dpmr_loadgen's mix, in exact proportions: one in ten on
    the cold seed space, workloads and variant classes in turn.  The
    traffic's shape — which positions are cold, which workload and class
    each one asks for, in which order — is fixed per [salt]; the seed
    picks every request's identity (experiment and run seed, hence its
    cache key and the cold contexts built).  Runs at different seeds
    thus send different inputs in the same pattern, so their numbers
    vary with the daemon rather than with the luck of the draw. *)
let mixed_requests ~seed ~salt ~n =
  let ids = ref (mix seed salt) and shape = ref (mix 0 salt) in
  let reqs =
    Array.init n (fun i ->
        let cold = i mod 10 = 0 in
        (* position among the requests of its own kind, so the cold ones
           cycle through every workload and class as well *)
        let k = if cold then i / 10 else i - (i / 10) - 1 in
        let exp_seed =
          if cold then Int64.of_int (1000 + rand_below ids 64) else Int64.of_int (42 + rand_below ids 2)
        in
        let run_seed = Int64.add exp_seed (Int64.of_int (rand_below ids 4)) in
        with_class (params ~workload:workloads.(k mod 4) ~exp_seed ~run_seed) (k / 4 mod 4))
  in
  for i = n - 1 downto 1 do
    let j = rand_below shape (i + 1) in
    let x = reqs.(i) in
    reqs.(i) <- reqs.(j);
    reqs.(j) <- x
  done;
  reqs

(** A rung's requests and their Poisson due times; the arrival times
    belong to the traffic's fixed shape. *)
let stream ~seed ~rate ~n =
  let arrivals = ref (mix 0 (rate + 1)) in
  let t = ref 0. in
  let dues =
    Array.init n (fun _ ->
        t := !t -. (log (1. -. rand_unit arrivals) /. float_of_int rate);
        !t)
  in
  (mixed_requests ~seed ~salt:rate ~n, dues)

type step = {
  rate : int;
  boot_s : float;  (** spawn to ready *)
  warm : phase;  (** pinned set + hot identities, closed loop, all misses *)
  load : phase;  (** the open-loop stream *)
  cpu_s : float;  (** daemon CPU while serving [load] *)
  rss_mb : float;  (** daemon VmHWM after [load] *)
}

(* A lost or failed request has infinite latency, so it counts against
   the p99 limit; a late generator means the offered rate was not met. *)
let passes s = lat_p s.load 99. <= p99_limit_ms && late_p s.load 99. <= late_limit_ms

(* Every answer for one identity must be the same verdict, whichever
   connection, step or cache state produced it; the disagreeing answers,
   each as (earlier, later) verdict line. *)
let disagreements refs (reqs : Protocol.run_params array) ph =
  let bad = ref [] in
  Array.iteri
    (fun i v ->
      match v with
      | None -> ()
      | Some c -> (
          let k = identity reqs.(i) in
          match Hashtbl.find_opt refs k with
          | None -> Hashtbl.replace refs k c
          | Some c0 ->
              if c0 <> c then bad := (pinned_line reqs.(i) c0, pinned_line reqs.(i) c) :: !bad))
    ph.verdicts;
  List.rev !bad

(** Boot a fresh daemon on a fresh cache, send it the pinned set and
    every hot identity as one closed-loop client batch (all misses; the
    pinned verdicts are checked against the golden lines), then offer
    the rung's open-loop stream. *)
let step (env : Env.t) tally ~dir ~rung:((rate, _) as rung) ~refs =
  ignore (Proc.fresh_dir dir);
  let d = Proc.start_daemon ~dir ~exe:(Env.serve env) ~workers:env.jobs in
  Fun.protect
    ~finally:(fun () -> Proc.stop_daemon d)
    (fun () ->
      let socket = d.Proc.socket and conns = env.jobs in
      let warm = Array.of_list (pinned_set @ hot_set) in
      let cold = run_phase ~socket ~conns Closed warm in
      let lines =
        List.mapi
          (fun i p ->
            match cold.verdicts.(i) with Some c -> pinned_line p c | None -> identity p ^ " -> no verdict")
          pinned_set
      in
      let golden = String.split_on_char '\n' (Proc.read_file (Env.golden_file env "pinned.txt")) in
      List.iteri
        (fun i l ->
          if List.nth_opt golden i <> Some l then
            Tally.problem tally "serve-open: pinned verdict %d differs from the golden file: %s" i l)
        lines;
      let reqs, dues = stream ~seed:env.seed ~rate ~n:(requests env rung) in
      let cpu0 = Proc.cpu_seconds d.Proc.pid in
      let load = run_phase ~socket ~conns (Open dues) reqs in
      let cpu_s = Proc.cpu_seconds d.Proc.pid -. cpu0 in
      let rss_mb = float_of_int (Proc.vm_hwm_kb d.Proc.pid) /. 1024. in
      List.iter
        (fun (reqs, ph) ->
          let bad = disagreements refs reqs ph in
          List.iter
            (fun (was, now) ->
              Tally.problem tally "serve-open: verdict changed between answers: %s, then %s" was now)
            bad;
          Tally.check tally (ph.errors = 0) "serve-open: %d error repl%s (first: %s)" ph.errors
            (if ph.errors = 1 then "y" else "ies") ph.first_error;
          tally.Tally.attempted <- tally.Tally.attempted + ph.n;
          tally.Tally.failed <- tally.Tally.failed + failures ph + List.length bad)
        [ (warm, cold); (reqs, load) ];
      { rate; boot_s = d.Proc.boot_s; warm = cold; load; cpu_s; rss_mb })

(** The highest sustainable rate: the last passing step, interpolated
    linearly in p99 towards the first failing one so the number moves
    smoothly instead of jumping between ladder rungs.  Past saturation a
    step's p99 only measures how long its backlog grew, so the failing
    side of the interpolation is capped at twice the limit. *)
let max_rps steps =
  let rec go prev = function
    | [] -> float_of_int (fst prev)
    | s :: rest ->
        if passes s then go (s.rate, lat_p s.load 99.) rest
        else
          let r0, p0 = prev and p = Float.min (lat_p s.load 99.) (2. *. p99_limit_ms) in
          if p > p99_limit_ms then
            float_of_int r0 +. (float_of_int (s.rate - r0) *. (p99_limit_ms -. p0) /. (p -. p0))
          else float_of_int r0
  in
  go (0, 0.) steps

let describe s =
  Printf.sprintf
    "  r%-5d p50 %8.3f ms  p99 %8.3f ms  late p99 %7.3f ms  hits %4.1f%%  failures %d  %s"
    s.rate (lat_p s.load 50.) (lat_p s.load 99.) (late_p s.load 99.)
    (100. *. float_of_int (Array.fold_left (fun a b -> if b then a + 1 else a) 0 s.load.cached)
    /. float_of_int (max 1 s.load.n))
    (failures s.load)
    (if passes s then "pass" else "FAIL")

type ladder = {
  reference : step list;  (** the reference rung, one step per daemon *)
  typical : step;  (** the reference daemon with the median p99 *)
  above : step list;  (** the rungs above it, up to the first failing one *)
  max_rps : float;
}

(** Run the reference rung on [reference_daemons] fresh daemons, then
    climb the ladder, each rung on a fresh daemon, up to the first rung
    that misses the limit.  Each rung's p50 and p99 and the resulting
    [max_rps] go into [tally] as figures beside the metrics. *)
let climb (env : Env.t) tally name =
  let root = Proc.fresh_dir (Filename.concat env.work name) in
  let refs = Hashtbl.create 4096 in
  let count = ref 0 in
  let run ((rate, _) as rung) =
    incr count;
    let s = step env tally ~dir:(Filename.concat root (string_of_int !count)) ~rung ~refs in
    Tally.add tally (Printf.sprintf "r%d.p50_ms" rate) (lat_p s.load 50.);
    Tally.add tally (Printf.sprintf "r%d.p99_ms" rate) (lat_p s.load 99.);
    s
  in
  let reference = List.init reference_daemons (fun _ -> run (reference_rate, reference_share)) in
  let by_p99 = List.sort (fun a b -> compare (lat_p a.load 99.) (lat_p b.load 99.)) reference in
  let typical = List.nth by_p99 (reference_daemons / 2) in
  let rec go acc = function
    | [] -> List.rev acc
    | rung :: rest ->
        let s = run rung in
        if passes s then go (s :: acc) rest else List.rev (s :: acc)
  in
  let above = if passes typical then go [] ladder else [] in
  Proc.rm_rf root;
  List.iter (fun s -> print_endline (describe s)) (reference @ above);
  let m = max_rps (typical :: above) in
  Tally.add tally "max_rps" m;
  Printf.printf "  max_rps %.0f (p99 <= %.0f ms, generator p99 lateness <= %.0f ms)\n" m p99_limit_ms
    late_limit_ms;
  { reference; typical; above; max_rps = m }

let serve_open (env : Env.t) =
  let tally = Tally.create () in
  let l = climb env tally "serve-open" in
  List.iter
    (fun s ->
      Tally.add tally "setup_s" s.boot_s;
      Tally.add tally "wall_s" s.warm.span;
      Tally.add tally "verdicts_per_s" (float_of_int s.warm.n /. s.warm.span))
    (l.reference @ l.above);
  List.iter
    (fun s ->
      Tally.add tally "p50_ms" (lat_p s.load 50.);
      Tally.add tally "p99_ms" (lat_p s.load 99.);
      Tally.add tally "cpu_s" s.cpu_s;
      Tally.add tally "peak_rss_mb" s.rss_mb)
    l.reference;
  tally

(* ---------------- per-layer numbers of the server ---------------- *)

(** Service time is the verdict's own [wall_us]; waiting is the rest of
    the latency (queueing behind other requests, the wire, and the
    generator's lateness). *)
let server_layers s =
  let ph = s.load in
  let pick f =
    List.filter_map Fun.id
      (List.init ph.n (fun i -> if ph.verdicts.(i) <> None && f i then Some i else None))
  in
  let hits = pick (fun i -> ph.cached.(i)) and misses = pick (fun i -> not ph.cached.(i)) in
  let ms f is = List.map (fun i -> 1000. *. f i) is in
  [
    (* a hit is served in about 15 us and wall_us counts whole
       microseconds, so its median would read the same on every run *)
    ( "server.hit_service_ms.mean",
      List.fold_left ( +. ) 0. (ms (fun i -> ph.service.(i)) hits)
      /. float_of_int (max 1 (List.length hits)) );
    ("server.miss_service_ms.p99", Stats.percentile (ms (fun i -> ph.service.(i)) misses) 99.);
    ( "server.wait_ms.p99",
      Stats.percentile (ms (fun i -> ph.lat.(i) -. ph.service.(i)) (hits @ misses)) 99. );
    ( "server.hit_ratio",
      float_of_int (List.length hits) /. float_of_int (max 1 (List.length hits + List.length misses)) );
    ("loadgen.late_ms.p99", late_p ph 99.);
  ]

(** The ladder on fresh daemons, for the traced run: the typical
    reference daemon's split of latency, and [max_rps]. *)
let trace_climb (env : Env.t) tally =
  let l = climb env tally "serve-trace" in
  server_layers l.typical @ [ ("server.max_rps", l.max_rps) ]
