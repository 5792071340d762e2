(* Concurrent access to the sharded result cache (lib/engine/cache):

   - two OS processes appending to the same cache directory at once
     (the federation the daemon and batch runs rely on): every record
     survives intact — no torn frames, [disk_stats] clean, and a fresh
     load sees the union of both writers;
   - two domains of one process hammering one [Cache.t]: adds and
     lookups stay consistent under the per-shard locks;
   - two domains of a fresh process appending at once from the first
     record on: shared module state (the CRC table) is ready before any
     domain frames a record;
   - sharding invariants: keys land in their hash shard, and a legacy
     single-file cache migrates into shards on load. *)

module Experiment = Dpmr_fi.Experiment
module Cache = Dpmr_engine.Cache
module Chaos = Dpmr_engine.Chaos
module Job = Dpmr_engine.Job

let salt = "test-salt/concurrent"

let in_tmp_dir f =
  let dir = Filename.temp_file "dpmr_cache_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  f dir

let cls i =
  {
    Experiment.sf = i mod 2 = 0;
    co = false;
    ndet = false;
    ddet = i mod 3 = 0;
    timeout = false;
    t2d = (if i mod 2 = 0 then Some (Int64.of_int (i * 17)) else None);
    cost = Int64.of_int (1000 + i);
    peak_heap = 64 + i;
  }

(* distinct, hash-shaped keys: 16 hex digits, spread over all shards *)
let key_of ~writer i = Printf.sprintf "%x%07x%08x" (i mod 16) writer i

(* These tests count records exactly, which [DPMR_CHAOS]'s deliberately
   torn appends would perturb: their bodies run with chaos off, and the
   sibling writers get an environment without it.  Cache durability
   under chaos is the supervisor and corruption tests' business. *)
let no_chaos f () = Chaos.with_chaos None f

let env_without_chaos () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"DPMR_CHAOS=" kv))
       (Array.to_list (Unix.environment ())))

let writer_loop dir ~writer ~n =
  let c = Cache.load ~dir ~flush_every:7 ~salt () in
  for i = 0 to n - 1 do
    Cache.add c ~key:(key_of ~writer i)
      ~spec_repr:(Printf.sprintf "writer=%d i=%d" writer i)
      (cls i)
  done;
  Cache.close c

let test_two_processes () =
  in_tmp_dir @@ fun dir ->
  let n = 400 in
  (* a sibling OS process (Unix.fork is forbidden once other suites have
     spawned domains) appends writer 1's records while this process
     writes writer 0's — cache_writer.ml keeps cls/key_of in lockstep *)
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "cache_writer.exe" in
  let pid =
    Unix.create_process_env exe
      [| exe; dir; "1"; string_of_int n |]
      (env_without_chaos ()) Unix.stdin Unix.stdout Unix.stderr
  in
  writer_loop dir ~writer:0 ~n;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "sibling writer exited cleanly" true
    (status = Unix.WEXITED 0);
  (* every line on disk is intact: no torn frames, no CRC damage *)
  let s = Cache.disk_stats ~dir ~salt () in
  Alcotest.(check int) "no damaged lines" 0 s.Cache.damaged;
  Alcotest.(check bool) "no torn tail" false s.Cache.torn_tail;
  Alcotest.(check int) "all records intact on disk" (2 * n) s.Cache.total;
  Alcotest.(check int) "all records current" (2 * n) s.Cache.current;
  (* a fresh load serves the union of both writers *)
  let c = Cache.load ~dir ~salt () in
  Alcotest.(check int) "union loaded" (2 * n) (Cache.entries c);
  for i = 0 to n - 1 do
    for writer = 0 to 1 do
      match Cache.find c (key_of ~writer i) with
      | Some got ->
          if got <> cls i then
            Alcotest.failf "writer %d key %d: wrong classification" writer i
      | None -> Alcotest.failf "writer %d key %d: record lost" writer i
    done
  done;
  Cache.close c

let test_two_domains_one_cache () =
  in_tmp_dir @@ fun dir ->
  let c = Cache.load ~dir ~salt () in
  let n = 500 in
  let worker writer () =
    for i = 0 to n - 1 do
      Cache.add c ~key:(key_of ~writer i) ~spec_repr:"d" (cls i);
      (* interleave lookups of both writers' keys: readers under the
         shard locks while the other domain appends *)
      ignore (Cache.find c (key_of ~writer:(1 - writer) i))
    done
  in
  let d = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join d;
  Alcotest.(check int) "all adds visible" (2 * n) (Cache.entries c);
  Cache.close c;
  let s = Cache.disk_stats ~dir ~salt () in
  Alcotest.(check int) "no damage from concurrent domains" 0 s.Cache.damaged;
  Alcotest.(check int) "every record persisted" (2 * n) s.Cache.total

(* Each run is a fresh process, so its first two appends are the first
   CRC framings the process does, from two domains at once and into
   different shards (no common lock).  Several runs, because a race
   there loses only some of the time. *)
let test_two_domains_fresh_cache () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "cache_writer.exe" in
  let env = env_without_chaos () in
  let n = 40 in
  for run = 1 to 8 do
    in_tmp_dir @@ fun dir ->
    let pid =
      Unix.create_process_env exe
        [| exe; dir; "0"; string_of_int n; "domains" |]
        env Unix.stdin Unix.stdout Unix.stderr
    in
    let _, status = Unix.waitpid [] pid in
    if status <> Unix.WEXITED 0 then
      Alcotest.failf "run %d: two-domain writer failed on a fresh cache" run;
    let c = Cache.load ~dir ~salt () in
    Alcotest.(check int) "every record of both domains" (2 * n) (Cache.entries c);
    for k = 0 to 1 do
      for i = 8 * k to (8 * k) + n - 1 do
        if Cache.find c (key_of ~writer:k i) <> Some (cls i) then
          Alcotest.failf "run %d: domain %d key %d lost or wrong" run k i
      done
    done;
    Cache.close c
  done

let test_shard_placement () =
  in_tmp_dir @@ fun dir ->
  let c = Cache.load ~dir ~salt () in
  List.iter
    (fun k -> Cache.add c ~key:k ~spec_repr:"p" (cls 1))
    [ "0aaaaaaaaaaaaaaa"; "7bbbbbbbbbbbbbbb"; "fccccccccccccccc" ];
  Cache.close c;
  List.iter
    (fun (k, shard) ->
      Alcotest.(check int) (k ^ " shard index") shard (Cache.shard_of_key k);
      let path = Cache.shard_file dir shard in
      Alcotest.(check bool) (k ^ " shard file exists") true (Sys.file_exists path);
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check bool) (k ^ " record in its shard") true
        (let rec find i =
           i + String.length k <= String.length line
           && (String.sub line i (String.length k) = k || find (i + 1))
         in
         find 0))
    [ ("0aaaaaaaaaaaaaaa", 0); ("7bbbbbbbbbbbbbbb", 7); ("fccccccccccccccc", 15) ]

let test_legacy_migration () =
  in_tmp_dir @@ fun dir ->
  (* write records through the current code, then concatenate every
     shard into a single legacy results.jsonl — the pre-sharding layout *)
  let keys = List.init 32 (fun i -> key_of ~writer:9 i) in
  let c = Cache.load ~dir ~salt () in
  List.iteri (fun i k -> Cache.add c ~key:k ~spec_repr:"m" (cls i)) keys;
  Cache.close c;
  let legacy = Buffer.create 4096 in
  for i = 0 to Cache.shard_count - 1 do
    let path = Cache.shard_file dir i in
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      Buffer.add_string legacy (really_input_string ic (in_channel_length ic));
      close_in ic;
      Sys.remove path
    end
  done;
  let oc = open_out_bin (Cache.file_of dir) in
  Buffer.output_buffer oc legacy;
  close_out oc;
  (* loading migrates every record into its shard and retires the file *)
  let c = Cache.load ~dir ~salt () in
  Alcotest.(check int) "all legacy records loaded" (List.length keys)
    (Cache.entries c);
  Cache.close c;
  Alcotest.(check bool) "legacy file retired" false
    (Sys.file_exists (Cache.file_of dir));
  let s = Cache.disk_stats ~dir ~salt () in
  Alcotest.(check int) "records re-homed intact" (List.length keys) s.Cache.total;
  Alcotest.(check int) "no damage from migration" 0 s.Cache.damaged;
  List.iter
    (fun i ->
      let k = List.nth keys i in
      let c = Cache.load ~dir ~salt () in
      (match Cache.find c k with
      | Some got when got = cls i -> ()
      | _ -> Alcotest.failf "legacy record %s lost or wrong" k);
      Cache.close c)
    [ 0; 31 ]

let suites =
  [
    ( "cache/concurrent",
      [
        Alcotest.test_case "two processes, one directory" `Quick
          (no_chaos test_two_processes);
        Alcotest.test_case "two domains, one cache" `Quick
          (no_chaos test_two_domains_one_cache);
        Alcotest.test_case "two domains append to a fresh cache" `Quick
          test_two_domains_fresh_cache;
        Alcotest.test_case "records land in their hash shard" `Quick
          test_shard_placement;
        Alcotest.test_case "legacy single-file cache migrates" `Quick
          (no_chaos test_legacy_migration);
      ] );
  ]
