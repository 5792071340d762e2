(** Parallel experiment engine.

    All experiment drivers go through [run_specs] instead of calling
    [Experiment.run_variant] in a loop.  The engine:

    - deduplicates identical specs inside a batch and serves previously
      seen specs from the content-addressed result [Cache];
    - executes the remaining jobs on a fixed pool of OCaml 5 domains
      ([Pool]) that lives as long as the engine, beside the calling
      domain, each executor holding its own experiment contexts
      (programs carry internal caches, so a [Prog.t] must never cross
      domains);
    - returns classifications keyed by input position, so output is
      byte-identical to the serial engine regardless of completion order
      or worker count;
    - records per-job wall time and simulated cost in [Telemetry] and
      reports progress on long grids. *)

module Experiment = Dpmr_fi.Experiment
module Workloads = Dpmr_workloads.Workloads

type t = {
  jobs : int;
  salt : string;
  cache : Cache.t option;
  telemetry : Telemetry.t;
  supervisor : Supervisor.t;
  progress : bool;
  pool : Pool.t;
      (** [jobs - 1] worker domains spawned at {!create} and joined at
          {!close}, plus the calling domain as the [jobs]-th executor of
          its own batches; at [jobs = 1] batches run on the calling
          domain alone *)
  snapshots : bool;
      (** snapshot/fork campaign execution: run each fault-injection
          cell's warmup once as a watched baseline and fork the members
          from its copy-on-write capture ({!Experiment.plan_group}) *)
  dispatcher : Dispatch.t option;
      (** remote scatter/gather: cache misses go to resident workers
          over the wire instead of the local pool, with the local pool
          as the degradation path ([report all --workers]) *)
}

let default_jobs () = Pool.default_size ()

let create ?jobs ?(use_cache = true) ?(cache_dir = Cache.default_dir)
    ?(salt = Job.default_salt) ?policy ?(progress = true)
    ?(snapshots = true) ?dispatcher () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let cache = if use_cache then Some (Cache.load ~dir:cache_dir ~salt ()) else None in
  {
    jobs;
    salt;
    cache;
    telemetry = Telemetry.create ();
    supervisor = Supervisor.create ?policy ();
    progress;
    pool = Pool.create ~size:jobs ();
    snapshots;
    dispatcher;
  }

let jobs t = t.jobs
let dispatcher t = t.dispatcher
let telemetry t = t.telemetry
let supervisor t = t.supervisor
let cache_stats t = Option.map Cache.stats t.cache

let cache_mem t spec =
  match t.cache with
  | None -> false
  | Some c -> Cache.mem c (Job.hash ~salt:t.salt spec)

let drain t = Option.iter Cache.flush t.cache

let close t =
  Option.iter Cache.flush t.cache;
  Option.iter Cache.close t.cache;
  Pool.shutdown t.pool

(* ---------------- per-domain experiment contexts ---------------- *)

(* Each domain builds and keeps its own [Experiment.t] per (workload,
   scale, seed): golden runs are cheap relative to a grid, and sharing a
   program across domains would race on its internal caches. *)
let experiments_key :
    (string * int * int64, Experiment.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let experiment_for (spec : Job.spec) =
  let tbl = Domain.DLS.get experiments_key in
  let key = (spec.Job.workload, spec.Job.scale, spec.Job.exp_seed) in
  match Hashtbl.find_opt tbl key with
  | Some e -> e
  | None ->
      let entry = Workloads.find spec.Job.workload in
      let wk =
        Experiment.workload spec.Job.workload (fun () ->
            entry.Workloads.build ~scale:spec.Job.scale ())
      in
      let e = Experiment.make ~seed:spec.Job.exp_seed wk in
      Hashtbl.replace tbl key e;
      e

let adjusted (spec : Job.spec) =
  let e = experiment_for spec in
  if Int64.equal e.Experiment.budget spec.Job.budget then e
  else { e with Experiment.budget = spec.Job.budget }

let execute (spec : Job.spec) =
  Experiment.run_variant ~seed:spec.Job.run_seed (adjusted spec) spec.Job.variant

(* ---------------- snapshot groups ---------------- *)

(* A schedulable unit: one spec, or a whole fault-injection cell whose
   members share the watched baseline's copy-on-write capture. *)
type unit_ = Single of string * Job.spec | Cell of (string * Job.spec) array

(* Members of one cell execute bit-identically until their own injection
   diverges, so they must agree on everything the prefix depends on:
   workload/scale/seeds/budget, and for the DPMR variants the full
   configuration (the transform's coin flips are part of the prefix).
   Golden and Nofi_dpmr jobs ARE their class's baseline — they join the
   matching cell and inherit the watched baseline's whole outcome for
   free instead of running separately. *)
let cell_key (s : Job.spec) =
  let cls =
    match s.Job.variant with
    | Experiment.Golden | Experiment.Fi_stdapp _ -> "std"
    | Experiment.Nofi_dpmr cfg | Experiment.Fi_dpmr (cfg, _, _) ->
        "dpmr:" ^ Job.config_repr cfg
  in
  Printf.sprintf "%s;%d;%Ld;%Ld;%Ld;%s" s.Job.workload s.Job.scale s.Job.exp_seed
    s.Job.run_seed s.Job.budget cls

(* Partition a batch into schedulable units, preserving first-seen order
   (a cell sits at its first member's position). *)
let partition_units t to_run =
  if not t.snapshots then List.map (fun (k, s) -> Single (k, s)) to_run
  else begin
    let cells : (string, (string * Job.spec) list ref) Hashtbl.t = Hashtbl.create 32 in
    let order =
      List.filter_map
        (fun (key, spec) ->
          let ck = cell_key spec in
          match Hashtbl.find_opt cells ck with
          | Some members ->
              members := (key, spec) :: !members;
              None
          | None ->
              let members = ref [ (key, spec) ] in
              Hashtbl.replace cells ck members;
              Some members)
        to_run
    in
    List.map
      (fun members ->
        match !members with
        | [ (k, s) ] -> Single (k, s)
        | ms -> Cell (Array.of_list (List.rev ms)))
      order
  end

(* The minor heap of a domain that runs cells, in words: one 32 MB
   nursery budget split over the engine's [jobs] executors.  A cell
   keeps all of its prepared members (transformed and lowered programs)
   live across the watched baseline and every resume; on the runtime's
   2 MB default they are promoted and then swept by the major GC.
   [Gc.set] reaches only the domain that runs it, and every minor
   collection stops and promotes all domains, so only domains that run
   cells grow — a worker or a batch's caller alike: singles, tasks and
   idle domains keep the default and their peak RSS. *)
let grow_nursery t =
  let g = Gc.get () in
  let words = 4 * 1024 * 1024 / t.jobs in
  if g.Gc.minor_heap_size < words then Gc.set { g with Gc.minor_heap_size = words }

(* Run a whole cell on one executor: plan the shared baseline once, then
   run each member under its own supervision.  Any planning failure
   degrades every member to the ordinary from-zero path — never worse
   than ungrouped execution.  Returns one result per member, tagged with
   the snapshot hash its run actually resumed from. *)
let run_cell t members =
  grow_nursery t;
  let _, spec0 = members.(0) in
  let e = adjusted spec0 in
  let t_plan = Telemetry.now () in
  let plan =
    try
      Some
        (Experiment.plan_group ~seed:spec0.Job.run_seed e
           (Array.map (fun (_, s) -> s.Job.variant) members))
    with _ -> None
  in
  (* the shared planning cost (member builds + watched baseline) is
     billed to the cell's first member so no wall time goes missing *)
  let plan_wall = Telemetry.now () -. t_plan in
  Array.to_list
    (Array.mapi
       (fun i (key, spec) ->
         let t1 = Telemetry.now () -. (if i = 0 then plan_wall else 0.) in
         let r, snap =
           match plan with
           | None ->
               (Supervisor.run t.supervisor ~key (fun () -> execute spec), None)
           | Some g ->
               ( Supervisor.run t.supervisor ~key (fun () ->
                     Experiment.run_member ~seed:spec.Job.run_seed e g i),
                 Option.map
                   (Printf.sprintf "%016Lx")
                   (Experiment.member_snapshot_hash g i) )
         in
         ((key, spec), r, Telemetry.now () -. t1, snap))
       members)

(* ---------------- progress reporting ---------------- *)

let progress_fn t n =
  if (not t.progress) || n < 32 then None
  else begin
    let step = max 8 (n / 8) in
    Some
      (fun ~done_ ~total ->
        if done_ mod step = 0 || done_ = total then
          Printf.eprintf "[engine] %d/%d jobs done\n%!" done_ total)
  end

(* ---------------- batch execution ---------------- *)

let run_specs_r t specs =
  match specs with
  | [] -> []
  | _ ->
      let t0 = Telemetry.now () in
      let n = List.length specs in
      let keyed = List.map (fun s -> (Job.hash ~salt:t.salt s, s)) specs in
      let results = Array.make n None in
      (* serve cache hits; group the misses by key so identical specs
         inside one batch execute once *)
      let order = ref [] (* unique missing keys, first-seen order *) in
      let missing : (string, Job.spec * int list) Hashtbl.t = Hashtbl.create 64 in
      List.iteri
        (fun i (key, spec) ->
          (* within-batch duplicates join the miss group of their key even
             when the cache is disabled *)
          match Hashtbl.find_opt missing key with
          | Some (s, idxs) -> Hashtbl.replace missing key (s, i :: idxs)
          | None -> (
              let cached = match t.cache with Some c -> Cache.find c key | None -> None in
              match cached with
              | Some cls -> results.(i) <- Some (Experiment.Run cls)
              | None ->
                  Hashtbl.replace missing key (spec, [ i ]);
                  order := key :: !order))
        keyed;
      let cached_count = n - List.fold_left (fun a k -> a + List.length (snd (Hashtbl.find missing k))) 0 !order in
      Telemetry.record_cached t.telemetry cached_count;
      let retries_before = Supervisor.retries t.supervisor in
      let to_run = List.rev_map (fun key -> (key, fst (Hashtbl.find missing key))) !order in
      let units = partition_units t to_run in
      (* every job runs under supervision: deadline, retry-with-backoff
         for transient failures, quarantine for deterministic ones — a
         failure fills its own slots and cannot abort the batch.  A
         [Cell] runs whole on one executor: its members share a watched
         baseline, but each member is still supervised individually. *)
      let exec_unit = function
        | Single (key, spec) ->
            let t1 = Telemetry.now () in
            let r = Supervisor.run t.supervisor ~key (fun () -> execute spec) in
            [ ((key, spec), r, Telemetry.now () -. t1, None) ]
        | Cell members -> run_cell t members
      in
      let run_units us =
        Pool.map_on t.pool ?progress:(progress_fn t (List.length us)) exec_unit us
        |> List.concat
        |> List.map (fun (it, r, wall, snap) ->
               let outcome =
                 match r with
                 | Ok cls -> Dispatch.Done cls
                 | Error (fl : Supervisor.failure) ->
                     Dispatch.Hole
                       {
                         Dispatch.hreason = Supervisor.reason_name fl.Supervisor.freason;
                         hattempts = fl.Supervisor.fattempts;
                         herror = fl.Supervisor.ferror;
                       }
               in
               (it, outcome, wall, snap))
      in
      let ran =
        match t.dispatcher with
        | None -> run_units units
        | Some d ->
            (* scatter the schedulable units to remote workers, whole
               groups at a time so remote engines re-derive the same
               snapshot cells; the local pool is the degradation path *)
            let groups =
              List.map (function Single (k, s) -> [| (k, s) |] | Cell ms -> ms) units
            in
            Dispatch.run d
              ~local:(fun gs ->
                run_units
                  (List.map
                     (fun g ->
                       if Array.length g = 1 then Single (fst g.(0), snd g.(0)) else Cell g)
                     gs))
              groups
      in
      List.iter
        (fun ((key, spec), outcome, wall, snap) ->
          let result =
            match outcome with
            | Dispatch.Done cls ->
                Telemetry.record_job t.telemetry ~wall ~cost:cls.Experiment.cost;
                (match t.cache with
                | Some c ->
                    Cache.add c ?snap ~key ~spec_repr:(Job.repr spec) cls;
                    (* federation: the same result under its fork key, so
                       another writer that captured a bit-identical
                       baseline can serve it without re-hashing the grid *)
                    Option.iter
                      (fun h ->
                        Cache.add c ~aux:true ~snap:h
                          ~key:(Job.fork_hash ~salt:t.salt ~snap:h spec)
                          ~spec_repr:("fork:" ^ Job.repr spec) cls)
                      snap
                | None -> ());
                Experiment.Run cls
            | Dispatch.Hole h ->
                Telemetry.record_failed t.telemetry ~wall;
                Experiment.Job_failed
                  {
                    Experiment.fail_reason = h.Dispatch.hreason;
                    fail_attempts = h.Dispatch.hattempts;
                    fail_error = h.Dispatch.herror;
                  }
          in
          let _, idxs = Hashtbl.find missing key in
          List.iter (fun i -> results.(i) <- Some result) idxs)
        ran;
      Telemetry.record_retries t.telemetry (Supervisor.retries t.supervisor - retries_before);
      Option.iter Cache.flush t.cache;
      Telemetry.record_batch t.telemetry ~wall:(Telemetry.now () -. t0);
      Array.to_list results
      |> List.map (function
           | Some r -> r
           | None -> failwith "Engine.run_specs_r: missing result")

(** The historical strict interface: callers that cannot represent holes
    get the first failure as an exception — after the whole batch ran,
    so completed results are already persisted in the cache. *)
let run_specs t specs =
  List.map
    (function
      | Experiment.Run cls -> cls
      | Experiment.Job_failed f ->
          failwith
            (Printf.sprintf "Engine.run_specs: job failed (%s after %d attempt(s): %s)"
               f.Experiment.fail_reason f.Experiment.fail_attempts f.Experiment.fail_error))
    (run_specs_r t specs)

let run_spec t spec = List.hd (run_specs t [ spec ])

let run_tasks t thunks =
  match thunks with
  | [] -> []
  | _ ->
      let t0 = Telemetry.now () in
      let outs =
        Pool.map_on t.pool
          (fun f ->
            let t1 = Telemetry.now () in
            let r = f () in
            (r, Telemetry.now () -. t1))
          thunks
      in
      List.iter (fun (_, wall) -> Telemetry.record_task t.telemetry ~wall) outs;
      Telemetry.record_batch t.telemetry ~wall:(Telemetry.now () -. t0);
      List.map fst outs

(* ---------------- summary ---------------- *)

let summary_lines t =
  Telemetry.summary_lines t.telemetry ~workers:t.jobs ~cache:(cache_stats t)
    ~tier:(Dpmr_vm.Vm.tier_stats ())
    ?dispatch:t.dispatcher

(** Printed to stderr so report output stays byte-identical across
    worker counts and cache states. *)
let print_summary t =
  List.iter (fun l -> Printf.eprintf "%s\n" l) (summary_lines t);
  flush stderr
