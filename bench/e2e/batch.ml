(* The batch workloads: report processes started fresh for every
   repetition, timed from spawn to reap.

   - grid-cold: [report all] in a fresh directory (empty result cache),
     so the run also writes the cache; set-up is creating the directory
     and emptying the cache with [cache clear].
   - grid-warm: [report all] against the cache a cold run left; set-up
     is that filling run.
   - overhead-x4: [report fig-3.15] then [report fig-4.6] at scale 4 in
     a fresh directory; the repetition's numbers are the two processes
     together.

   A batch delivers every verdict when its process exits, so the
   verdict latencies of a repetition all equal its wall time. *)

module J = Dpmr_trace.Json_check

(* ---------------- --telemetry-json ---------------- *)

type telemetry = {
  total : int;  (** jobs.total *)
  failed : int;  (** jobs.failed *)
  cached : int;  (** jobs.cached *)
  cost_units : float;
  busy_seconds : float;
  wall_seconds : float;
}

let rec field j = function
  | [] -> Some j
  | k :: ks -> Option.bind (J.mem k j) (fun v -> field v ks)

let num j path =
  match field j path with
  | Some (J.Num f) -> f
  | _ -> failwith ("telemetry: missing number " ^ String.concat "." path)

let read_telemetry path =
  match J.parse (Proc.read_file path) with
  | Error e -> failwith ("telemetry: " ^ e)
  | Ok j ->
      {
        total = int_of_float (num j [ "jobs"; "total" ]);
        failed = int_of_float (num j [ "jobs"; "failed" ]);
        cached = int_of_float (num j [ "jobs"; "cached" ]);
        cost_units = num j [ "cost_units" ];
        busy_seconds = num j [ "busy_seconds" ];
        wall_seconds = num j [ "wall_seconds" ];
      }

(* ---------------- one report process ---------------- *)

let report_args (env : Env.t) ?(scale = 1) ?(no_cache = false) ~jobs id =
  [ "report"; id; "--jobs"; string_of_int jobs; "--seed"; string_of_int env.seed ]
  @ (if scale = 1 then [] else [ "--scale"; string_of_int scale ])
  @ (if no_cache then [ "--no-cache" ] else [])
  @ [ "--telemetry-json"; "telemetry-" ^ id ^ ".json" ]

(** Run one report in [dir]; a non-zero exit or unreadable telemetry is
    a problem, and failed jobs count against the run. *)
let report (env : Env.t) tally ~dir ?scale ?no_cache ?(jobs = env.jobs) id =
  let r = Proc.measure ~dir (Env.cli env) (report_args env ?scale ?no_cache ~jobs id) in
  Tally.check tally r.Proc.ok "report %s exited non-zero (see %s/stderr.log)" id dir;
  let tel =
    try read_telemetry (Filename.concat dir ("telemetry-" ^ id ^ ".json"))
    with Failure msg | Sys_error msg ->
      Tally.problem tally "report %s: %s" id msg;
      { total = 0; failed = 0; cached = 0; cost_units = 0.; busy_seconds = 0.; wall_seconds = 0. }
  in
  tally.Tally.attempted <- tally.Tally.attempted + tel.total;
  tally.Tally.failed <- tally.Tally.failed + tel.failed;
  (r, tel)

(** Every repetition prints the same bytes; at the golden seed they are
    the pinned ones. *)
let same_output tally ~first ~golden what out =
  (match !first with
  | None -> first := Some out
  | Some f -> Tally.check tally (String.equal f out) "%s: output differs between repetitions" what);
  match golden with
  | Some g -> Tally.check tally (String.equal g out) "%s: output differs from the golden file" what
  | None -> ()

let sample tally ~wall ~cpu ~rss ~verdicts =
  Tally.add tally "wall_s" wall;
  Tally.add tally "cpu_s" cpu;
  Tally.add tally "peak_rss_mb" rss;
  Tally.add tally "verdicts_per_s" (float_of_int verdicts /. wall)

(* A batch's verdicts all arrive at exit: the verdict latency
   distribution is the repetitions' wall times, each weighted by the
   same verdict count. *)
let latencies tally =
  let walls = Tally.samples tally "wall_s" in
  List.iter (fun w -> Tally.add tally "p50_ms" (1000. *. w)) walls;
  Tally.add tally "p99_ms" (1000. *. Stats.percentile walls 99.)

(** Fresh directory plus [cache clear] in it: what a user does before a
    cold campaign. *)
let cold_setup (env : Env.t) tally dir =
  let t0 = Env.now () in
  ignore (Proc.fresh_dir dir);
  let r = Proc.measure ~dir (Env.cli env) [ "cache"; "clear" ] in
  Tally.check tally r.Proc.ok "cache clear exited non-zero in %s" dir;
  Tally.add tally "setup_s" (Env.now () -. t0)

(* A set-up takes about 3 ms, and a process start on this kind of host
   drifts by 10-30% within seconds: each repetition sets its directory up
   [setups_per_rep] times, so setup_s is a median of samples spread over
   the whole run rather than of a burst at its start. *)
let setups_per_rep = 5

let cold_reps (env : Env.t) tally name run_rep =
  let root = Proc.fresh_dir (Filename.concat env.work name) in
  Env.rep_loop env (fun i ->
      let dir = Filename.concat root (Printf.sprintf "rep-%d" i) in
      for _ = 1 to setups_per_rep do
        cold_setup env tally dir
      done;
      run_rep dir;
      Proc.rm_rf dir);
  Proc.rm_rf root

let grid_cold (env : Env.t) =
  let tally = Tally.create () in
  let first = ref None and golden = Env.golden_for env "report-all.txt" in
  cold_reps env tally "grid-cold" (fun dir ->
      let r, tel = report env tally ~dir "all" in
      same_output tally ~first ~golden "report all" r.Proc.out;
      Tally.check tally (tel.cached = 0) "grid-cold: %d jobs came from a cache" tel.cached;
      sample tally ~wall:r.Proc.wall ~cpu:r.Proc.cpu ~rss:r.Proc.rss_mb ~verdicts:tel.total);
  latencies tally;
  tally

(* One fill only: at about 5.5 s a second one would push the run past
   30 s, so grid-warm's setup_s has one sample. *)
let grid_warm (env : Env.t) =
  let tally = Tally.create () in
  let first = ref None and golden = Env.golden_for env "report-all.txt" in
  let root = Proc.fresh_dir (Filename.concat env.work "grid-warm") in
  let warm = Filename.concat root "cache" in
  let t0 = Env.now () in
  ignore (Proc.fresh_dir warm);
  let r, _ = report env tally ~dir:warm "all" in
  Tally.add tally "setup_s" (Env.now () -. t0);
  same_output tally ~first ~golden "report all (fill)" r.Proc.out;
  (* the fill is set-up, not measured work *)
  tally.Tally.attempted <- 0;
  Env.rep_loop env (fun _ ->
      let r, tel = report env tally ~dir:warm "all" in
      same_output tally ~first ~golden "report all (warm)" r.Proc.out;
      Tally.check tally
        (tel.cached = tel.total && tel.cost_units = 0.)
        "grid-warm: a warm repetition executed jobs (%d of %d cached)" tel.cached tel.total;
      sample tally ~wall:r.Proc.wall ~cpu:r.Proc.cpu ~rss:r.Proc.rss_mb ~verdicts:tel.total);
  latencies tally;
  Proc.rm_rf root;
  tally

let overhead_ids = [ "fig-3.15"; "fig-4.6" ]

let overhead_x4 (env : Env.t) =
  let tally = Tally.create () in
  let first = ref None and golden = Env.golden_for env "overhead-x4.txt" in
  cold_reps env tally "overhead-x4" (fun dir ->
      let runs = List.map (fun id -> report env tally ~dir ~scale:4 id) overhead_ids in
      let out = String.concat "" (List.map (fun ((r : Proc.run), _) -> r.out) runs) in
      same_output tally ~first ~golden "overhead-x4" out;
      List.iter
        (fun (_, tel) ->
          Tally.check tally (tel.cached = 0) "overhead-x4: %d jobs came from a cache" tel.cached)
        runs;
      let sum f = List.fold_left (fun a x -> a +. f x) 0. runs in
      sample tally
        ~wall:(sum (fun ((r : Proc.run), _) -> r.wall))
        ~cpu:(sum (fun ((r : Proc.run), _) -> r.cpu))
        ~rss:(List.fold_left (fun a ((r : Proc.run), _) -> Float.max a r.rss_mb) 0. runs)
        ~verdicts:(List.fold_left (fun a (_, tel) -> a + tel.total) 0 runs));
  latencies tally;
  tally
