(* Parallel experiment engine tests (lib/engine): job hashing, the jsonl
   cache codec, classification edge cases, determinism of the domain
   pool, content-addressed cache behaviour (hits, stale-salt eviction,
   clearing), and crash durability (CRC framing, torn-tail recovery,
   periodic flush, kill-and-resume). *)

module Config = Dpmr_core.Config
module Outcome = Dpmr_vm.Outcome
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Job = Dpmr_engine.Job
module Cache = Dpmr_engine.Cache
module Chaos = Dpmr_engine.Chaos
module Pool = Dpmr_engine.Pool
module Engine = Dpmr_engine.Engine
module Progs = Dpmr_testprogs.Progs
module Workloads = Dpmr_workloads.Workloads

(* ---- shared fixtures ---- *)

(* cheap registry workload: every engine job must name a registry entry *)
let app = "mcf"

let exp_ctx =
  lazy
    (let entry = Workloads.find app in
     Experiment.make
       (Experiment.workload app (fun () -> entry.Workloads.build ~scale:1 ())))

let specs_fixture () =
  let e = Lazy.force exp_ctx in
  let mk = Job.make e ~workload:app ~scale:1 ~run_seed:42L in
  let fi =
    List.concat_map
      (fun kind ->
        List.map
          (fun site -> mk (Experiment.Fi_dpmr (Config.default, kind, site)))
          (Experiment.sites e kind))
      [ Inject.Heap_array_resize 50; Inject.Immediate_free ]
  in
  mk Experiment.Golden :: mk (Experiment.Nofi_dpmr Config.default) :: fi

let check_cls = Alcotest.testable
    (fun ppf (c : Experiment.classification) ->
      Fmt.string ppf
        (Job.entry_to_line { Job.key = ""; salt = ""; spec_repr = ""; snap = None; cls = c }))
    ( = )

(* ---- job model ---- *)

let test_hash_stable_and_salted () =
  let spec = List.hd (specs_fixture ()) in
  Alcotest.(check string) "hash is deterministic" (Job.hash spec) (Job.hash spec);
  Alcotest.(check bool) "different salt, different hash" true
    (Job.hash spec <> Job.hash ~salt:"other-code-version" spec);
  let other = { spec with Job.run_seed = 43L } in
  Alcotest.(check bool) "different spec, different hash" true
    (Job.hash spec <> Job.hash other)

let test_jsonl_roundtrip () =
  let cls t2d =
    {
      Experiment.sf = true;
      co = false;
      ndet = false;
      ddet = true;
      timeout = false;
      t2d;
      cost = 123456789L;
      peak_heap = 4096;
    }
  in
  List.iter
    (fun t2d ->
      let e =
        {
          Job.key = "00ff";
          salt = Job.default_salt;
          spec_repr = "w=\"quoted\";\ttab";
          snap = Some "0123456789abcdef";
          cls = cls t2d;
        }
      in
      match Job.entry_of_line (Job.entry_to_line e) with
      | Some e' ->
          Alcotest.(check string) "key" e.Job.key e'.Job.key;
          Alcotest.(check string) "salt" e.Job.salt e'.Job.salt;
          Alcotest.(check string) "spec" e.Job.spec_repr e'.Job.spec_repr;
          Alcotest.(check (option string)) "snap" e.Job.snap e'.Job.snap;
          Alcotest.check check_cls "classification" e.Job.cls e'.Job.cls
      | None -> Alcotest.fail "round-trip parse failed")
    [ Some 99L; None ];
  Alcotest.(check bool) "corrupt line rejected" true
    (Job.entry_of_line "{\"key\":\"x\" garbage" = None)

(* ---- Experiment.classify edge cases ---- *)

let classify_exp =
  lazy (Experiment.make (Experiment.workload "t" (fun () -> Progs.overflow ~limit:8 ())))

let synthetic ?(outcome = Outcome.Normal) ?output ?(cost = 1000L) ?fi_first_cost () =
  let e = Lazy.force classify_exp in
  {
    Outcome.outcome;
    cost;
    output = Option.value output ~default:e.Experiment.golden.Outcome.output;
    peak_heap_bytes = 100;
    mapped_pages = 1;
    fi_first_cost;
  }

let test_classify_timeout () =
  let e = Lazy.force classify_exp in
  let c =
    Experiment.classify e
      (synthetic ~outcome:Outcome.Timeout ~output:"partial" ~fi_first_cost:10L ())
  in
  Alcotest.(check bool) "timeout flagged" true c.Experiment.timeout;
  Alcotest.(check bool) "not CO" false c.Experiment.co;
  Alcotest.(check bool) "no natural detection" false c.Experiment.ndet;
  Alcotest.(check bool) "no DPMR detection" false c.Experiment.ddet;
  Alcotest.(check bool) "SF recorded" true c.Experiment.sf

let test_classify_ddet_without_fi () =
  (* a DPMR check fired before (or without) any injected code running:
     detection stands, but T2D is undefined *)
  let e = Lazy.force classify_exp in
  let c =
    Experiment.classify e (synthetic ~outcome:(Outcome.Dpmr_detect "check 0") ~output:"" ())
  in
  Alcotest.(check bool) "ddet" true c.Experiment.ddet;
  Alcotest.(check bool) "not sf" false c.Experiment.sf;
  Alcotest.(check bool) "t2d undefined" true (c.Experiment.t2d = None)

let test_classify_app_exit_correct_output () =
  (* nonzero exit with byte-identical output: not CO (exit status is part
     of correctness), counted as natural detection *)
  let e = Lazy.force classify_exp in
  let c = Experiment.classify e (synthetic ~outcome:(Outcome.App_exit 3) ()) in
  Alcotest.(check bool) "not CO" false c.Experiment.co;
  Alcotest.(check bool) "natural detection" true c.Experiment.ndet;
  Alcotest.(check bool) "no DPMR detection" false c.Experiment.ddet

let test_classify_normal_correct () =
  let e = Lazy.force classify_exp in
  let c = Experiment.classify e (synthetic ~fi_first_cost:5L ()) in
  Alcotest.(check bool) "CO" true c.Experiment.co;
  Alcotest.(check bool) "no detections" true
    ((not c.Experiment.ndet) && not c.Experiment.ddet)

(* ---- pool ---- *)

let with_pool size f =
  let p = Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_pool_order_and_exception () =
  let xs = List.init 64 Fun.id in
  List.iter
    (fun size ->
      with_pool size (fun p ->
          Alcotest.(check (list int)) "results in input order"
            (List.map (fun x -> x * x) xs)
            (Pool.map_on p (fun x -> x * x) xs);
          Alcotest.check_raises "exception re-raised" Exit (fun () ->
              ignore (Pool.map_on p (fun x -> if x = 5 then raise Exit else x) xs));
          Alcotest.(check (list int)) "pool still serves after a raise" xs
            (Pool.map_on p Fun.id xs)))
    [ 1; 2; 3; 4 ];
  (* the serial path: a pool of one runs every job on the caller *)
  with_pool 1 (fun p ->
      let self = (Domain.self () :> int) in
      Alcotest.(check (list int)) "size 1 runs on the calling domain"
        (List.map (fun _ -> self) xs)
        (Pool.map_on p (fun _ -> (Domain.self () :> int)) xs));
  (* a pool of two is the caller plus one worker: each task waits until
     two tasks have started, so both executors take part *)
  with_pool 2 (fun p ->
      let self = (Domain.self () :> int) in
      let started = Atomic.make 0 in
      let ran =
        Pool.map_on p
          (fun _ ->
            Atomic.incr started;
            let deadline = Unix.gettimeofday () +. 10. in
            while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
              Domain.cpu_relax ()
            done;
            (Domain.self () :> int))
          (List.init 16 Fun.id)
      in
      Alcotest.(check bool) "size 2 runs on the calling domain" true (List.mem self ran);
      Alcotest.(check int) "and on one other domain, never a third" 2
        (List.length (List.sort_uniq compare ran)))

let test_pool_map_results_per_slot () =
  (* one element failing keeps every other slot's result; the failing
     slot carries the exception instead of poisoning the batch *)
  List.iter
    (fun size ->
      let xs = List.init 16 Fun.id in
      let rs =
        with_pool size (fun p ->
            Pool.map_results_on p (fun x -> if x mod 5 = 3 then raise Exit else x * 2) xs)
      in
      Alcotest.(check int) "one result per input" 16 (List.length rs);
      List.iteri
        (fun i r ->
          match r with
          | Ok v ->
              Alcotest.(check bool) "slot should have failed" true (i mod 5 <> 3);
              Alcotest.(check int) "value" (i * 2) v
          | Error (e, _bt) ->
              Alcotest.(check bool) "slot should have succeeded" true (i mod 5 = 3);
              Alcotest.(check bool) "original exception kept" true (e = Exit))
        rs)
    [ 1; 2; 4 ]

(* Two domains submit a 16-task batch each to one pool at the same
   moment; every task sleeps briefly, so the batches overlap.  Returns
   each submitter's domain, the domains that ran its batch, and the most
   tasks that were ever running at once. *)
let concurrent_batches p =
  let ready = Atomic.make 0 and running = Atomic.make 0 and peak = Atomic.make 0 in
  let task _ =
    let now = Atomic.fetch_and_add running 1 + 1 in
    let rec raise_peak () =
      let seen = Atomic.get peak in
      if now > seen && not (Atomic.compare_and_set peak seen now) then raise_peak ()
    in
    raise_peak ();
    Unix.sleepf 0.001;
    Atomic.decr running;
    (Domain.self () :> int)
  in
  let submit () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    ((Domain.self () :> int), Pool.map_on p task (List.init 16 Fun.id))
  in
  let a = Domain.spawn submit and b = Domain.spawn submit in
  let a = Domain.join a and b = Domain.join b in
  (a, b, Atomic.get peak)

let test_pool_concurrent_callers () =
  with_pool 2 (fun p ->
      let (a, ran_a), (b, ran_b), peak = concurrent_batches p in
      Alcotest.(check bool) "no task of the first batch on the second caller" false
        (List.mem b ran_a);
      Alcotest.(check bool) "no task of the second batch on the first caller" false
        (List.mem a ran_b);
      Alcotest.(check bool) "at most 2 tasks at once" true (peak <= 2));
  (* a pool of one has no slot to contend for: each caller runs its own *)
  with_pool 1 (fun p ->
      let (a, ran_a), (b, ran_b), _ = concurrent_batches p in
      Alcotest.(check (list int)) "size 1: the first batch ran on its caller"
        (List.map (fun _ -> a) ran_a) ran_a;
      Alcotest.(check (list int)) "size 1: the second batch ran on its caller"
        (List.map (fun _ -> b) ran_b) ran_b)

(* ---- determinism guard: serial vs multi-domain ---- *)

let lines_of cs =
  List.map (fun c -> Job.entry_to_line { Job.key = ""; salt = ""; spec_repr = ""; snap = None; cls = c }) cs

(* an engine with worker domains holds them until it is closed *)
let with_engine ?snapshots ~jobs f =
  let e = Engine.create ~jobs ~use_cache:false ?snapshots ~progress:false () in
  Fun.protect ~finally:(fun () -> Engine.close e) (fun () -> f e)

let test_parallel_determinism () =
  let specs = specs_fixture () in
  let serial = Engine.create ~jobs:1 ~use_cache:false ~progress:false () in
  let a = Engine.run_specs serial specs in
  let b = with_engine ~jobs:4 (fun parallel -> Engine.run_specs parallel specs) in
  Alcotest.(check (list string)) "serial and 4-domain runs byte-identical"
    (lines_of a) (lines_of b)

(* ---- the engine's executing domains ---- *)

(* One thunk per executor, each held until every executor has taken
   one, so the answers come from [jobs] distinct domains — the calling
   domain and each worker (or, past the deadline, show that they could
   not). *)
let on_every_executor engine f =
  let jobs = Engine.jobs engine in
  let arrived = Atomic.make 0 in
  Engine.run_tasks engine
    (List.init jobs (fun _ () ->
         Atomic.incr arrived;
         let deadline = Unix.gettimeofday () +. 10. in
         while Atomic.get arrived < jobs && Unix.gettimeofday () < deadline do
           Domain.cpu_relax ()
         done;
         ((Domain.self () :> int), f ())))

let distinct xs = List.length (List.sort_uniq compare xs)

let test_pool_domains_persist () =
  with_engine ~jobs:2 (fun e ->
      let ids () = List.map fst (on_every_executor e ignore) in
      let first = ids () in
      let second = ids () in
      Alcotest.(check int) "each batch reaches both executors" 2 (distinct first);
      Alcotest.(check int) "the second batch runs on the same two domains" 2
        (distinct (first @ second)))

let minor_heap () = (Gc.get ()).Gc.minor_heap_size

let test_nursery_follows_cells () =
  let grown = 4 * 1024 * 1024 / 2 in
  let e = Lazy.force exp_ctx in
  let mk = Job.make e ~workload:app ~scale:1 ~run_seed:42L in
  let kind = Inject.Heap_array_resize 50 in
  let cell =
    match Experiment.sites e kind with
    | s0 :: s1 :: _ ->
        List.map (fun site -> mk (Experiment.Fi_dpmr (Config.default, kind, site))) [ s0; s1 ]
    | _ -> Alcotest.fail "fixture needs two injection sites"
  in
  (* earlier engines may have grown the calling domain, one of this
     engine's two executors: start it on a fresh domain's nursery so
     that the executor running the cell grows visibly *)
  let caller = minor_heap () in
  let default = Domain.join (Domain.spawn minor_heap) in
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = default };
  Fun.protect ~finally:(fun () -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = caller })
  @@ fun () ->
  with_engine ~snapshots:true ~jobs:2 (fun eng ->
      (* each executor's (domain, minor heap): the calling domain and the worker *)
      let heaps () = List.sort compare (on_every_executor eng minor_heap) in
      let before = heaps () in
      Alcotest.(check int) "the caller and one worker execute" 2 (distinct (List.map fst before));
      (* a golden run and a fault-free DPMR run fall in different cells,
         so this batch is two singles *)
      ignore (Engine.run_specs eng [ mk Experiment.Golden; mk (Experiment.Nofi_dpmr Config.default) ]);
      Alcotest.(check (list (pair int int))) "singles change no nursery" before (heaps ());
      ignore (Engine.run_specs eng cell);
      match List.filter (fun h -> not (List.mem h before)) (heaps ()) with
      | [ (_, words) ] ->
          Alcotest.(check bool) "the executor that ran the cell grew to 4M / 2 words" true
            (words >= grown)
      | changed ->
          Alcotest.failf "expected exactly one executor's nursery to change, %d did"
            (List.length changed))

(* ---- content-addressed cache ---- *)

let test_dir = "_engine_test_cache"

(* chaos is pinned off here: these tests assert exact hit/miss/added
   counts, which deliberate fault injection would perturb *)
let with_clean_dir f =
  Chaos.with_chaos None (fun () ->
      ignore (Cache.clear ~dir:test_dir ());
      Fun.protect ~finally:(fun () -> ignore (Cache.clear ~dir:test_dir ())) f)

let test_cache_hits_second_run () =
  with_clean_dir (fun () ->
      let specs = specs_fixture () in
      let e1 = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
      let a = Engine.run_specs e1 specs in
      let s1 = Option.get (Engine.cache_stats e1) in
      Alcotest.(check int) "first run: all misses" (List.length specs) s1.Cache.misses;
      Alcotest.(check int) "first run: all persisted" (List.length specs) s1.Cache.added;
      let e2 = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
      let b = Engine.run_specs e2 specs in
      let s2 = Option.get (Engine.cache_stats e2) in
      Alcotest.(check int) "second run: all hits" (List.length specs) s2.Cache.hits;
      Alcotest.(check int) "second run: no misses" 0 s2.Cache.misses;
      Alcotest.(check (list string)) "cached results identical" (lines_of a) (lines_of b))

let test_cache_stale_salt_misses () =
  with_clean_dir (fun () ->
      let specs = specs_fixture () in
      let e1 =
        Engine.create ~jobs:1 ~cache_dir:test_dir ~salt:"code-v1" ~snapshots:false
          ~progress:false ()
      in
      ignore (Engine.run_specs e1 specs);
      (* same specs under a bumped code-version salt: nothing may be
         served, and loading evicts every stale line *)
      let e2 =
        Engine.create ~jobs:1 ~cache_dir:test_dir ~salt:"code-v2" ~snapshots:false
          ~progress:false ()
      in
      ignore (Engine.run_specs e2 specs);
      let s2 = Option.get (Engine.cache_stats e2) in
      Alcotest.(check int) "stale salt: zero hits" 0 s2.Cache.hits;
      Alcotest.(check int) "stale lines evicted on load" (List.length specs) s2.Cache.evicted;
      (* and the rewritten file now only holds code-v2 entries *)
      let d = Cache.disk_stats ~dir:test_dir ~salt:"code-v2" () in
      Alcotest.(check int) "compacted to current salt" d.Cache.total d.Cache.current)

let test_cache_clear () =
  with_clean_dir (fun () ->
      let specs = specs_fixture () in
      let e1 =
        Engine.create ~jobs:1 ~cache_dir:test_dir ~snapshots:false ~progress:false ()
      in
      ignore (Engine.run_specs e1 specs);
      Alcotest.(check int) "clear reports entry count" (List.length specs)
        (Cache.clear ~dir:test_dir ());
      let d = Cache.disk_stats ~dir:test_dir ~salt:Job.default_salt () in
      Alcotest.(check int) "empty after clear" 0 d.Cache.total)

(* ---- snapshot fork-key federation ---- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_cache_fork_sidecar () =
  with_clean_dir (fun () ->
      let specs = specs_fixture () in
      let e1 = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
      let a = Engine.run_specs e1 specs in
      let s1 = Option.get (Engine.cache_stats e1) in
      (* fork-key records are sidecars: counted under [forked], never
         inflating the primary [added] count the grid reasons about *)
      Alcotest.(check bool) "sidecar entries recorded" true (s1.Cache.forked > 0);
      Alcotest.(check int) "primary entries unaffected" (List.length specs)
        s1.Cache.added;
      Engine.close e1;
      let raw =
        String.concat ""
          (List.filter_map
             (fun p ->
               let p = Cache.shard_file test_dir p in
               if Sys.file_exists p then
                 Some (In_channel.with_open_bin p In_channel.input_all)
               else None)
             (List.init Cache.shard_count Fun.id))
      in
      Alcotest.(check bool) "sidecar records on disk" true (contains raw "fork:");
      Alcotest.(check bool) "sidecars carry the snapshot hash" true
        (contains raw "\"snap\"");
      (* a fresh engine still serves every primary spec from cache, and
         the snapshot-tagged lines survive a verify-grade reload *)
      let e2 = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
      let b = Engine.run_specs e2 specs in
      let s2 = Option.get (Engine.cache_stats e2) in
      Alcotest.(check int) "second run: all hits" (List.length specs) s2.Cache.hits;
      Alcotest.(check (list string)) "results identical" (lines_of a) (lines_of b);
      Engine.close e2;
      let d = Cache.disk_stats ~dir:test_dir ~salt:Job.default_salt () in
      Alcotest.(check int) "no damaged lines" 0 d.Cache.damaged)

(* ---- crash durability: corruption recovery, flush, resume ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* the cache shards records over results-<x>.jsonl by hash prefix: the
   corruption tests damage a shard file that actually holds records *)
let nonempty_shards () =
  List.filter
    (fun p -> Sys.file_exists p && read_file p <> "")
    (List.init Cache.shard_count (Cache.shard_file test_dir))

(** Fill the test cache through a real engine run; returns the specs and
    their results. *)
(* snapshots off: these tests assert exact on-disk line counts, which
   fork-key sidecar records (snapshot federation) would shift *)
let populate () =
  let specs = specs_fixture () in
  let e =
    Engine.create ~jobs:1 ~cache_dir:test_dir ~snapshots:false ~progress:false ()
  in
  let rs = Engine.run_specs e specs in
  (specs, rs)

let reload () = Cache.load ~dir:test_dir ~salt:Job.default_salt ()

let check_repaired ~survivors =
  (* loading damage repairs the file in place (atomic compaction): a
     second scan must be clean and hold exactly the survivors *)
  let d = Cache.disk_stats ~dir:test_dir ~salt:Job.default_salt () in
  Alcotest.(check int) "repaired: no damaged lines" 0 d.Cache.damaged;
  Alcotest.(check bool) "repaired: clean tail" false d.Cache.torn_tail;
  Alcotest.(check int) "repaired: survivors intact" survivors d.Cache.total

let test_cache_torn_tail () =
  with_clean_dir (fun () ->
      let specs, _ = populate () in
      let n = List.length specs in
      let path = List.hd (nonempty_shards ()) in
      let s = read_file path in
      (* crash mid-append: the shard's final record loses its last bytes
         and its newline *)
      write_file path (String.sub s 0 (String.length s - 9));
      let c = reload () in
      Alcotest.(check int) "torn record dropped" (n - 1) (Cache.entries c);
      Alcotest.(check int) "torn tail counted" 1 (Cache.stats c).Cache.damaged;
      Cache.close c;
      check_repaired ~survivors:(n - 1))

let test_cache_garbage_line () =
  with_clean_dir (fun () ->
      let specs, _ = populate () in
      let n = List.length specs in
      let path = List.hd (nonempty_shards ()) in
      (match String.split_on_char '\n' (read_file path) with
      | first :: rest ->
          write_file path (String.concat "\n" (first :: "#### not a record ####" :: rest))
      | [] -> Alcotest.fail "empty cache file");
      let c = reload () in
      Alcotest.(check int) "all real records survive" n (Cache.entries c);
      Alcotest.(check int) "garbage counted" 1 (Cache.stats c).Cache.damaged;
      Cache.close c;
      check_repaired ~survivors:n)

let test_cache_crc_mismatch () =
  with_clean_dir (fun () ->
      let specs, _ = populate () in
      let n = List.length specs in
      let path = List.hd (nonempty_shards ()) in
      let b = Bytes.of_string (read_file path) in
      (* single byte flip inside the first record's payload: the line
         stays structurally plausible, only the CRC can catch it *)
      let pos = 25 in
      Bytes.set b pos (if Bytes.get b pos = 'x' then 'y' else 'x');
      write_file path (Bytes.to_string b);
      let c = reload () in
      Alcotest.(check int) "flipped record dropped" (n - 1) (Cache.entries c);
      Alcotest.(check int) "crc mismatch counted" 1 (Cache.stats c).Cache.damaged;
      (* a damaged record is a miss, never a wrong result *)
      let missed = ref 0 in
      List.iter
        (fun spec ->
          if Cache.find c (Job.hash ~salt:Job.default_salt spec) = None then incr missed)
        specs;
      Alcotest.(check int) "exactly one lookup degraded to a miss" 1 !missed;
      Cache.close c;
      check_repaired ~survivors:(n - 1))

let test_cache_random_corruption =
  (* any byte-level corruption anywhere in the file: load never raises,
     never over-counts survivors, and always repairs to a clean file *)
  QCheck.Test.make ~name:"cache: random corruption always recovered" ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (pos, cut) ->
      Chaos.with_chaos None (fun () ->
          ignore (Cache.clear ~dir:test_dir ());
          Fun.protect ~finally:(fun () -> ignore (Cache.clear ~dir:test_dir ()))
            (fun () ->
              let specs, _ = populate () in
              let n = List.length specs in
              let shards = nonempty_shards () in
              let path = List.nth shards (pos mod List.length shards) in
              let pristine = read_file path in
              let len = String.length pristine in
              let pos = pos mod len in
              let cut = min (1 + cut) (len - pos) in
              let b = Bytes.of_string pristine in
              Bytes.fill b pos cut 'Z';
              write_file path (Bytes.to_string b);
              let c = reload () in
              let survivors = Cache.entries c in
              Cache.close c;
              let d = Cache.disk_stats ~dir:test_dir ~salt:Job.default_salt () in
              survivors <= n && d.Cache.damaged = 0 && (not d.Cache.torn_tail)
              && d.Cache.total = survivors)))

let test_cache_flush_every () =
  with_clean_dir (fun () ->
      let cls =
        {
          Experiment.sf = true; co = false; ndet = false; ddet = true;
          timeout = false; t2d = Some 7L; cost = 1L; peak_heap = 0;
        }
      in
      let c = Cache.load ~dir:test_dir ~flush_every:2 ~salt:"s" () in
      List.iter
        (fun k -> Cache.add c ~key:k ~spec_repr:"r" cls)
        [ "k1"; "k2"; "k3"; "k4"; "k5" ];
      (* no close, no explicit flush: everything up to the last periodic
         flush must already be on disk — that is what an interrupted
         campaign resumes from *)
      let d = Cache.disk_stats ~dir:test_dir ~salt:"s" () in
      Alcotest.(check bool) "flushed prefix on disk"
        true (d.Cache.current >= 4);
      Cache.close c)

let test_kill_and_resume () =
  with_clean_dir (fun () ->
      let specs, a = populate () in
      (* simulate dying mid-append after the run's flush: a torn
         half-record with no terminating newline on one shard *)
      let path = List.hd (nonempty_shards ()) in
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"crc\":\"00000000\",\"key\":\"torn";
      close_out oc;
      let e2 = Engine.create ~jobs:1 ~cache_dir:test_dir ~progress:false () in
      let b = Engine.run_specs e2 specs in
      let s2 = Option.get (Engine.cache_stats e2) in
      Alcotest.(check bool) "resume serves the flushed prefix" true (s2.Cache.hits > 0);
      Alcotest.(check int) "torn tail counted, not fatal" 1 s2.Cache.damaged;
      Alcotest.(check (list string)) "resumed results byte-identical" (lines_of a)
        (lines_of b))

let test_batch_dedup () =
  (* identical specs inside one batch execute once even without a cache *)
  let spec = List.hd (specs_fixture ()) in
  let engine = Engine.create ~jobs:1 ~use_cache:false ~progress:false () in
  let rs = Engine.run_specs engine [ spec; spec; spec ] in
  Alcotest.(check int) "three answers" 3 (List.length rs);
  Alcotest.(check int) "one execution" 1 (Engine.telemetry engine).Dpmr_engine.Telemetry.jobs_run

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "job hash stable and salt-sensitive" `Quick
          test_hash_stable_and_salted;
        Alcotest.test_case "cache line jsonl round-trip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "classify: timeout" `Quick test_classify_timeout;
        Alcotest.test_case "classify: DPMR detect without SF" `Quick
          test_classify_ddet_without_fi;
        Alcotest.test_case "classify: app-exit with correct output" `Quick
          test_classify_app_exit_correct_output;
        Alcotest.test_case "classify: normal correct run" `Quick test_classify_normal_correct;
        Alcotest.test_case "pool: ordering and exceptions" `Quick
          test_pool_order_and_exception;
        Alcotest.test_case "pool: per-slot results survive a failing slot" `Quick
          test_pool_map_results_per_slot;
        Alcotest.test_case "pool: concurrent callers" `Quick test_pool_concurrent_callers;
        Alcotest.test_case "determinism: serial vs 4 domains" `Quick
          test_parallel_determinism;
        Alcotest.test_case "pool domains persist across batches" `Quick
          test_pool_domains_persist;
        Alcotest.test_case "nursery follows cells" `Quick test_nursery_follows_cells;
        Alcotest.test_case "cache: second run all hits" `Quick test_cache_hits_second_run;
        Alcotest.test_case "cache: stale code-version salt misses" `Quick
          test_cache_stale_salt_misses;
        Alcotest.test_case "cache: clear" `Quick test_cache_clear;
        Alcotest.test_case "cache: snapshot fork-key sidecar records" `Quick
          test_cache_fork_sidecar;
        Alcotest.test_case "cache: torn tail dropped and repaired" `Quick
          test_cache_torn_tail;
        Alcotest.test_case "cache: garbage line dropped, records kept" `Quick
          test_cache_garbage_line;
        Alcotest.test_case "cache: CRC mismatch degrades to one miss" `Quick
          test_cache_crc_mismatch;
        QCheck_alcotest.to_alcotest test_cache_random_corruption;
        Alcotest.test_case "cache: periodic flush persists without close" `Quick
          test_cache_flush_every;
        Alcotest.test_case "cache: kill and resume serves flushed prefix" `Quick
          test_kill_and_resume;
        Alcotest.test_case "batch dedup of identical specs" `Quick test_batch_dedup;
      ] );
  ]
