(** Fixed-size domain worker pool with deterministic result ordering.

    A pool's worker domains are spawned once by {!create} and park on a
    condition variable between batches until {!shutdown}, so repeated
    batches — an engine reused across figures, or a daemon serving
    requests — pay domain spawn and per-domain warmup (DLS-cached
    experiment contexts, lowered programs) once.  A pool of size 1
    spawns no domain: its batches run serially on the calling domain.

    Workers pull tasks from a mutex-protected queue and write results
    into per-index slots, so the returned list is ordered by input
    position regardless of completion order — the property that keeps
    parallel engine output byte-identical to serial output. *)

let default_size () = Domain.recommended_domain_count ()

type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  mu : Mutex.t;
  work : Condition.t;  (** signalled when a task is queued or on shutdown *)
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let size t = t.size

let worker_loop t =
  let rec loop () =
    let task =
      Mutex.protect t.mu (fun () ->
          while Queue.is_empty t.queue && not t.stopping do
            Condition.wait t.work t.mu
          done;
          if Queue.is_empty t.queue then None else Some (Queue.pop t.queue))
    in
    match task with
    | None -> () (* stopping and drained *)
    | Some task ->
        task ();
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
      stopping = false;
      domains = [];
    }
  in
  if t.size > 1 then
    t.domains <- List.init t.size (fun _ -> Domain.spawn (fun () -> worker_loop t));
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
  let task i () =
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
  Mutex.protect t.mu (fun () ->
      for i = 0 to n - 1 do
        Queue.push (task i) t.queue
      done;
      Condition.broadcast t.work);
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

(** Safe to call from several domains at once: tasks interleave in one
    queue and each batch waits only on its own completion counter. *)
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
