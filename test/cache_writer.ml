(* Helper executable for the two-process cache-federation test: a
   sibling OS process appending records to a shared cache directory
   (Unix.fork is off-limits once the test runner has spawned domains).

   Invoked as  cache_writer.exe DIR WRITER N.  With a fourth argument
   [domains] it instead appends from two domains of this fresh process
   at once, the first record of each released together into different
   shards: domain k writes writer WRITER+k's keys from index 8k.  [cls]
   and [key_of] must stay in lockstep with test_cache_concurrent.ml,
   which verifies the records this process writes. *)

module Experiment = Dpmr_fi.Experiment
module Cache = Dpmr_engine.Cache

let salt = "test-salt/concurrent"

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

let key_of ~writer i = Printf.sprintf "%x%07x%08x" (i mod 16) writer i

let append c ~writer ~first ~n =
  for i = first to first + n - 1 do
    Cache.add c ~key:(key_of ~writer i)
      ~spec_repr:(Printf.sprintf "writer=%d i=%d" writer i)
      (cls i)
  done

let () =
  let dir = Sys.argv.(1) in
  let writer = int_of_string Sys.argv.(2) in
  let n = int_of_string Sys.argv.(3) in
  let c = Cache.load ~dir ~flush_every:7 ~salt () in
  if Array.length Sys.argv > 4 && Sys.argv.(4) = "domains" then begin
    let ready = Atomic.make 0 in
    let go k () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      append c ~writer:(writer + k) ~first:(8 * k) ~n
    in
    let d = Domain.spawn (go 1) in
    go 0 ();
    Domain.join d
  end
  else append c ~writer ~first:0 ~n;
  Cache.close c
