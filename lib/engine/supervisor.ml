(** Fault-tolerant job supervision for campaign runs.

    Long fault-injection campaigns cannot afford the failure modes of a
    bare worker pool: one raised exception must not void thousands of
    completed runs, a wedged job must hit a wall-clock ceiling (the
    simulated-cost budget bounds simulated time, not host time), and a
    job that fails deterministically must not be retried forever.

    [run] wraps one job attempt with three mechanisms:

    - {b deadline}: a per-attempt wall-clock ceiling enforced
      cooperatively through {!Vm.set_poll_hook} — the VM's dispatch
      loops poll once per basic block, so even a program stuck in a hot
      loop is cancelled within one poll interval;
    - {b retry}: transient failures (chaos injections, or exceptions
      matching a registered predicate) are retried with exponential
      backoff and deterministic jitter (hashed from the job key and
      attempt, so reruns back off identically);
    - {b quarantine}: deterministic failures — and transient ones that
      exhaust their retries — are recorded once and answered from the
      quarantine table on every later submission, so a poisoned spec
      cannot stall a sweep twice.

    A failed job surfaces as an explicit [Error failure] per slot, never
    as a batch abort. *)

type reason =
  | Deadline  (** wall-clock ceiling hit; cancelled mid-run *)
  | Transient  (** retriable failures, retries exhausted *)
  | Fatal  (** deterministic failure; no retry *)

let reason_name = function
  | Deadline -> "deadline"
  | Transient -> "transient-exhausted"
  | Fatal -> "fatal"

type failure = {
  fkey : string;
  freason : reason;
  fattempts : int;  (** attempts actually executed *)
  ferror : string;  (** [Printexc.to_string] of the last exception *)
}

let failure_to_string f =
  Printf.sprintf "%s after %d attempt(s): %s" (reason_name f.freason) f.fattempts f.ferror

type policy = {
  deadline : float option;  (** per-attempt wall-clock ceiling, seconds *)
  max_retries : int;  (** extra attempts granted to transient failures *)
  backoff : float;  (** base backoff sleep, seconds *)
  backoff_max : float;
}

(* The default deadline is deliberately generous: it exists to catch
   wedged jobs (minutes), not slow ones — the simulated-cost budget
   already bounds legitimate work.  Retries cover at least a chaos
   burst; backoff is short because our transients (chaos, scheduling
   noise) clear quickly. *)
let default_policy =
  { deadline = Some 300.; max_retries = 3; backoff = 0.005; backoff_max = 0.25 }

type t = {
  policy : policy;
  quarantine : (string, failure) Hashtbl.t;
  mutable retries : int;  (** attempts beyond the first, all jobs *)
  mutable failures : int;  (** jobs that ended in [Error] *)
  mu : Mutex.t;
}

let create ?(policy = default_policy) () =
  { policy; quarantine = Hashtbl.create 16; retries = 0; failures = 0; mu = Mutex.create () }

let policy t = t.policy
let retries t = Mutex.protect t.mu (fun () -> t.retries)
let failures t = Mutex.protect t.mu (fun () -> t.failures)
let quarantined t = Mutex.protect t.mu (fun () -> Hashtbl.length t.quarantine)

let quarantine_find t key = Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.quarantine key)

(* ---------------- failure classification ---------------- *)

(* Extra transient predicates (beyond chaos injections), for embedders
   whose jobs touch genuinely flaky resources. *)
let transient_predicates : (exn -> bool) list ref = ref []

let register_transient p = transient_predicates := p :: !transient_predicates

let classify_exn = function
  | Dpmr_vm.Vm.Cancelled _ -> Deadline
  | Chaos.Injected_fault _ -> Transient
  | e -> if List.exists (fun p -> p e) !transient_predicates then Transient else Fatal

(* ---------------- deadline enforcement ---------------- *)

(* Sampled wall-clock check: the hook runs once per basic block, so it
   only pays for [gettimeofday] every [mask + 1] polls.  4096 blocks is
   far under a millisecond even on the slow reference engine. *)
let poll_mask = 4095

let with_deadline deadline f =
  match deadline with
  | None -> f ()
  | Some d ->
      let cutoff = Unix.gettimeofday () +. d in
      let ticks = ref 0 in
      Dpmr_vm.Vm.set_poll_hook
        (Some
           (fun () ->
             incr ticks;
             if !ticks land poll_mask = 0 && Unix.gettimeofday () > cutoff then
               raise
                 (Dpmr_vm.Vm.Cancelled
                    (Printf.sprintf "wall-clock deadline (%.3fs) exceeded" d))));
      Fun.protect ~finally:(fun () -> Dpmr_vm.Vm.set_poll_hook None) f

(* ---------------- retry backoff ---------------- *)

(* Deterministic jitter: exponential envelope scaled by a hash of
   (key, attempt) into [0.5, 1.0] — concurrent retries of different
   jobs desynchronize, yet a rerun of the same campaign sleeps the
   same amounts. *)
let jitter ~key ~attempt =
  let h = Dpmr_memsim.Rng.fnv1a64 (Printf.sprintf "backoff\x00%s\x00%d" key attempt) in
  0.5 +. (Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992. /. 2.)

let backoff_delay policy ~key ~attempt =
  let envelope =
    Float.min policy.backoff_max (policy.backoff *. Float.pow 2. (float_of_int attempt))
  in
  envelope *. jitter ~key ~attempt

let sleep_backoff policy ~key ~attempt = Unix.sleepf (backoff_delay policy ~key ~attempt)

(* ---------------- the supervised attempt loop ---------------- *)

let record_failure t key fl =
  Mutex.protect t.mu (fun () ->
      t.failures <- t.failures + 1;
      if not (Hashtbl.mem t.quarantine key) then Hashtbl.replace t.quarantine key fl);
  Error fl

let run t ~key f =
  match quarantine_find t key with
  | Some fl ->
      Mutex.protect t.mu (fun () -> t.failures <- t.failures + 1);
      Error fl
  | None ->
      let rec attempt n =
        if n > 0 then Mutex.protect t.mu (fun () -> t.retries <- t.retries + 1);
        match
          with_deadline t.policy.deadline (fun () ->
              Chaos.attempt_fault ~key ~attempt:n;
              Ok (f ()))
        with
        | r -> r
        | exception e -> (
            let err = Printexc.to_string e in
            match classify_exn e with
            | Deadline -> record_failure t key { fkey = key; freason = Deadline; fattempts = n + 1; ferror = err }
            | Fatal -> record_failure t key { fkey = key; freason = Fatal; fattempts = n + 1; ferror = err }
            | Transient ->
                if n < t.policy.max_retries then begin
                  sleep_backoff t.policy ~key ~attempt:n;
                  attempt (n + 1)
                end
                else
                  record_failure t key
                    { fkey = key; freason = Transient; fattempts = n + 1; ferror = err })
      in
      attempt 0
