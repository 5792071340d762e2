(** Fixed-size domain worker pool with deterministic result ordering.

    A pool of size J has J executors: J − 1 worker domains spawned once
    by {!create}, and the domain that submits a batch.  The workers park
    on a condition variable between batches until {!shutdown}, so
    repeated batches — an engine reused across figures, or a daemon
    serving requests — pay domain spawn and per-domain warmup
    (DLS-cached experiment contexts, lowered programs) once.  A
    submitting domain runs its own batch beside the workers while it
    holds the pool's one caller slot, instead of parking while they run:
    a parked domain still joins every stop-the-world collection, so a
    batch would otherwise have one more participant than executors.  A
    pool of size 1 spawns no domain: its batches run serially on the
    calling domain.

    A batch is one queue entry whose tasks are claimed by index from an
    atomic counter, and each task writes its result into its own slot,
    so the returned list is ordered by input position regardless of
    which domain ran what, or when — the property that keeps parallel
    engine output byte-identical to serial output. *)

let default_size () = Domain.recommended_domain_count ()

type batch = {
  n : int;
  next : int Atomic.t;  (** the next unclaimed index; [>= n] once all are claimed *)
  run : int -> unit;  (** run task [i] and record its result; never raises *)
}

type t = {
  size : int;
  queue : batch Queue.t;  (** batches with indices that may be unclaimed *)
  mu : Mutex.t;
  work : Condition.t;  (** signalled when a batch is queued or on shutdown *)
  caller : bool Atomic.t;
      (** the caller slot: held while a submitting domain runs its own
          batch, so at most [size] tasks run at once *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let size t = t.size

(* Claim indices of [b] until none is left. *)
let rec claim b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.n then begin
    b.run i;
    claim b
  end

let worker_loop t =
  let rec loop () =
    let batch =
      Mutex.protect t.mu (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.work t.mu
          done;
          Queue.peek_opt t.queue)
    in
    match batch with
    | None -> () (* stopping and drained *)
    | Some b ->
        claim b;
        (* no index is left to claim: the batch leaves the queue, unless
           another worker dropped it first *)
        Mutex.protect t.mu (fun () ->
            match Queue.peek_opt t.queue with
            | Some head when head == b -> ignore (Queue.pop t.queue)
            | _ -> ());
        loop ()
  in
  loop ()

let create ?(size = default_size ()) () =
  let t =
    {
      size = max 1 size;
      queue = Queue.create ();
      mu = Mutex.create ();
      work = Condition.create ();
      caller = Atomic.make false;
      stopping = false;
      domains = [];
    }
  in
  t.domains <- List.init (t.size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.protect t.mu (fun () ->
      t.stopping <- true;
      Condition.broadcast t.work);
  List.iter Domain.join t.domains;
  t.domains <- []

(* ---------------- batch execution on a pool ---------------- *)

(* Tasks never let an exception escape into the worker loop: each slot
   captures [Ok] or [Error (exn, backtrace)] and the batch waiter
   re-raises (or not) on the calling domain. *)
let run_batch t ?progress f xs =
  let n = List.length xs in
  let input = Array.of_list xs in
  let results = Array.make n None in
  let completed = ref 0 in
  let done_mu = Mutex.create () in
  let done_cond = Condition.create () in
  let run i =
    let r =
      try Ok (f input.(i))
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Error (e, bt)
    in
    (* distinct slots: no lock needed for the write itself *)
    results.(i) <- Some r;
    Mutex.protect done_mu (fun () ->
        incr completed;
        (match progress with Some p -> p ~done_:!completed ~total:n | None -> ());
        Condition.signal done_cond)
  in
  let b = { n; next = Atomic.make 0; run } in
  let runs_own = Atomic.compare_and_set t.caller false true in
  (* a slot holder runs a one-task batch without waking a worker *)
  if n > 1 || not runs_own then
    Mutex.protect t.mu (fun () ->
        Queue.push b t.queue;
        Condition.broadcast t.work);
  if runs_own then
    Fun.protect ~finally:(fun () -> Atomic.set t.caller false) (fun () -> claim b);
  Mutex.protect done_mu (fun () ->
      while !completed < n do
        Condition.wait done_cond done_mu
      done);
  Array.to_list results
  |> List.map (function
       | Some r -> r
       | None -> failwith "Pool.run_batch: missing result")

let serial_batch ?progress f xs =
  let n = List.length xs in
  List.mapi
    (fun i x ->
      let r =
        try Ok (f x)
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Error (e, bt)
      in
      (match progress with Some p -> p ~done_:(i + 1) ~total:n | None -> ());
      r)
    xs

(** Safe to call from several domains at once: batches queue in
    submission order, the caller slot lets at most one caller execute
    (its own batch only), and each batch waits only on its own
    completion counter. *)
let map_results_on t ?progress f xs =
  if xs = [] then []
  else if t.size = 1 then serial_batch ?progress f xs
  else run_batch t ?progress f xs

let map_on t ?progress f xs =
  List.map
    (function
      | Ok r -> r
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    (map_results_on t ?progress f xs)
