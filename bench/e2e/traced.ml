(* The traced run: the campaign executed inside this process, with one
   span around each public call into a layer, so the per-layer split is
   measured from the benchmark's side of every boundary and the program
   itself carries no instrumentation.

   Set-up: a single-domain engine with the cache off whose dispatcher is
   a transport of our own — one host, window 1, one engine unit (a job,
   or a whole fault cell) per chunk, no hedging.  The engine keeps its
   real batching, deduplication and cell partitioning; every chunk it
   scatters is executed by [exec_chunk] on one long-lived executor
   domain (so per-domain experiment contexts persist across batches, as
   they do in [report all --jobs 1]), and the verdicts go back to the
   engine.  The figures therefore render from the benchmark's own
   execution, and their bytes are checked against the untraced CLI.

   Probe passes run after the campaign, outside its wall: they re-time
   injection, transformation, lowering and preparation on every
   dispatched variant, and the cache's hash/add/flush/load/find calls on
   the executed specs. *)

module Engine = Dpmr_engine.Engine
module Dispatch = Dpmr_engine.Dispatch
module Job = Dpmr_engine.Job
module Cache = Dpmr_engine.Cache
module Experiment = Dpmr_fi.Experiment
module Inject = Dpmr_fi.Inject
module Figures = Dpmr_harness.Figures
module Dpmr = Dpmr_core.Dpmr
module Lower = Dpmr_vm.Lower
module Prog = Dpmr_ir.Prog
module Func = Dpmr_ir.Func

(* ---------------- spans ---------------- *)

type layer =
  | Campaign
  | Contexts
  | Planner
  | Runs
  | Injection
  | Transform
  | Lowering
  | Preparation
  | Hashing
  | Cache_io

(** Each layer is one trace-event thread, named after its module. *)
let layers =
  [
    (Campaign, "harness.Figures");
    (Contexts, "engine.experiment_for");
    (Planner, "faultinject.plan_group");
    (Runs, "vm.run");
    (Injection, "faultinject.Inject");
    (Transform, "core.Dpmr.transform");
    (Lowering, "vm.Lower");
    (Preparation, "faultinject.prepare");
    (Hashing, "engine.Job");
    (Cache_io, "engine.Cache");
  ]

let tid layer =
  let rec go i = function
    | [] -> invalid_arg "Traced.tid"
    | (l, _) :: rest -> if l = layer then i else go (i + 1) rest
  in
  go 1 layers

type span = { layer : layer; name : string; t0 : float; t1 : float; job : string }

type state = {
  mutable spans : span list;
  seen : (string * int * int64, unit) Hashtbl.t;  (** experiment contexts built *)
  mutable executed : (string * Job.spec * Experiment.classification) list;
  mutable cells : Job.spec array list;
  mutable make_s : float;
  mutable make_calls : int;
  mutable plan_s : float;
  mutable members : int;
  mutable forked : int;
  mutable inherited : int;
  mutable planned_zero : int;
  mutable vm_s : float;  (** every run span, inherited members included *)
  mutable resume_s : float;
  mutable resume_calls : int;
  mutable zero_s : float;
  mutable zero_calls : int;
  mutable zero_units : int64;
  mutable inherit_calls : int;
  mutable units : int64;
}

let create_state () =
  {
    spans = [];
    seen = Hashtbl.create 16;
    executed = [];
    cells = [];
    make_s = 0.;
    make_calls = 0;
    plan_s = 0.;
    members = 0;
    forked = 0;
    inherited = 0;
    planned_zero = 0;
    vm_s = 0.;
    resume_s = 0.;
    resume_calls = 0;
    zero_s = 0.;
    zero_calls = 0;
    zero_units = 0L;
    inherit_calls = 0;
    units = 0L;
  }

let span st layer name job f =
  let t0 = Env.now () in
  let r = f () in
  let t1 = Env.now () in
  st.spans <- { layer; name; t0; t1; job } :: st.spans;
  (r, t1 -. t0)

(* ---------------- executing one chunk ---------------- *)

let experiment st (key, (spec : Job.spec)) =
  let k = (spec.Job.workload, spec.Job.scale, spec.Job.exp_seed) in
  if Hashtbl.mem st.seen k then Engine.experiment_for spec
  else begin
    Hashtbl.replace st.seen k ();
    let e, dt = span st Contexts "Engine.experiment_for" key (fun () -> Engine.experiment_for spec) in
    st.make_s <- st.make_s +. dt;
    st.make_calls <- st.make_calls + 1;
    e
  end

(* the engine runs every job under its spec's budget *)
let adjusted (e : Experiment.t) (spec : Job.spec) =
  if Int64.equal e.Experiment.budget spec.Job.budget then e
  else { e with Experiment.budget = spec.Job.budget }

let record st key spec (cls : Experiment.classification) dt =
  st.vm_s <- st.vm_s +. dt;
  st.units <- Int64.add st.units cls.Experiment.cost;
  st.executed <- (key, spec, cls) :: st.executed

let run_zero st e (key, (spec : Job.spec)) =
  let cls, dt =
    span st Runs "Experiment.run_variant" key (fun () ->
        Experiment.run_variant ~seed:spec.Job.run_seed e spec.Job.variant)
  in
  st.zero_s <- st.zero_s +. dt;
  st.zero_calls <- st.zero_calls + 1;
  st.zero_units <- Int64.add st.zero_units cls.Experiment.cost;
  record st key spec cls dt;
  cls

let exec_chunk st (items : Dispatch.item array) =
  let key0, spec0 = items.(0) in
  let e = adjusted (experiment st items.(0)) spec0 in
  if Array.length items = 1 then [| run_zero st e items.(0) |]
  else
    let variants = Array.map (fun (_, (s : Job.spec)) -> s.Job.variant) items in
    match
      span st Planner "Experiment.plan_group" key0 (fun () ->
          Experiment.plan_group ~seed:spec0.Job.run_seed e variants)
    with
    | exception _ ->
        (* as in the engine: a cell that cannot be planned runs from zero *)
        Array.map (run_zero st e) items
    | g, dt ->
        st.plan_s <- st.plan_s +. dt;
        st.cells <- Array.map snd items :: st.cells;
        Array.mapi
          (fun i (key, (spec : Job.spec)) ->
            let plan = g.Experiment.g_plans.(i) in
            let cls, dt =
              span st Runs "Experiment.run_member" key (fun () ->
                  Experiment.run_member ~seed:spec.Job.run_seed e g i)
            in
            st.members <- st.members + 1;
            (match plan with
            | Experiment.Zero ->
                st.planned_zero <- st.planned_zero + 1;
                st.zero_s <- st.zero_s +. dt;
                st.zero_calls <- st.zero_calls + 1;
                st.zero_units <- Int64.add st.zero_units cls.Experiment.cost
            | Experiment.Inherit _ ->
                st.inherited <- st.inherited + 1;
                st.inherit_calls <- st.inherit_calls + 1
            | Experiment.Fork _ ->
                st.forked <- st.forked + 1;
                st.resume_s <- st.resume_s +. dt;
                st.resume_calls <- st.resume_calls + 1);
            record st key spec cls dt;
            cls)
          items

(* ---------------- the executor domain behind the transport ---------------- *)

type request = { items : Dispatch.item array; mutable reply : Dispatch.remote_result array option }

type mailbox = { mu : Mutex.t; cv : Condition.t; queue : request Queue.t; mutable stop : bool }

let executor st mb =
  let rec loop () =
    let next =
      Mutex.protect mb.mu (fun () ->
          while Queue.is_empty mb.queue && not mb.stop do
            Condition.wait mb.cv mb.mu
          done;
          Queue.take_opt mb.queue)
    in
    match next with
    | None -> ()
    | Some r ->
        let reply =
          try Array.map (fun c -> Dispatch.R_verdict c) (exec_chunk st r.items)
          with e -> Array.map (fun _ -> Dispatch.R_failed (Printexc.to_string e)) r.items
        in
        Mutex.protect mb.mu (fun () ->
            r.reply <- Some reply;
            Condition.broadcast mb.cv);
        loop ()
  in
  loop ()

(* The transport's heartbeat blocks until the dispatcher aborts the
   batch's connections at its end, so the prober is not asleep in one of
   its 50 ms slices when the batch is over, and joining it costs nothing;
   every engine batch would otherwise pay that wait.  The timeout only
   guards against a batch that ended before its prober started. *)
let transport mb =
  let aborts = Atomic.make 0 in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let byte = Bytes.create 64 in
  let ping () =
    let seen = Atomic.get aborts and deadline = Env.now () +. 10. in
    let rec wait () =
      let left = deadline -. Env.now () in
      if Atomic.get aborts = seen && left > 0. then
        match Unix.select [ wake_r ] [] [] left with
        | [], _, _ -> ()
        | _ ->
            ignore (Unix.read wake_r byte 0 (Bytes.length byte));
            wait ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ();
    true
  in
  let abort () =
    Atomic.incr aborts;
    ignore (Unix.single_write wake_w byte 0 1)
  in
  let run_batch items =
    let r = { items; reply = None } in
    Mutex.protect mb.mu (fun () ->
        Queue.push r mb.queue;
        Condition.broadcast mb.cv;
        while Option.is_none r.reply do
          Condition.wait mb.cv mb.mu
        done;
        Option.get r.reply)
  in
  let conn = { Dispatch.c_run_batch = run_batch; c_ping = ping; c_abort = abort; c_close = ignore } in
  ({ Dispatch.connect = (fun _ -> conn) }, fun () -> List.iter Unix.close [ wake_r; wake_w ])

let policy =
  {
    Dispatch.default_policy with
    Dispatch.window = 1;
    chunk_jobs = 1;
    hedge_after = 0.;
    min_workers = 0;
  }

(** Run the figures [ids] (all of [report all] when [None]) through the
    traced executor, their stdout going to [out].  Returns the recorded
    state and the campaign's wall time. *)
let campaign ~seed ?ids out =
  let st = create_state () in
  let mb = { mu = Mutex.create (); cv = Condition.create (); queue = Queue.create (); stop = false } in
  (* a new domain starts with the default minor heap: give the executor
     the calling domain's, which is where [report --jobs 1] executes *)
  let minor = (Gc.get ()).Gc.minor_heap_size in
  let exec =
    Domain.spawn (fun () ->
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor };
        executor st mb)
  in
  let saved = Unix.dup ~cloexec:true Unix.stdout in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  flush stdout;
  Unix.dup2 ~cloexec:false fd Unix.stdout;
  Unix.close fd;
  let t0 = Env.now () in
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 ~cloexec:false saved Unix.stdout;
      Unix.close saved;
      Mutex.protect mb.mu (fun () ->
          mb.stop <- true;
          Condition.broadcast mb.cv);
      Domain.join exec)
    (fun () ->
      let transport, release = transport mb in
      Fun.protect ~finally:release (fun () ->
          let dispatcher = Dispatch.create ~policy transport ~hosts:[ "bench" ] in
          let engine = Engine.create ~jobs:1 ~use_cache:false ~progress:false ~dispatcher () in
          let ctx = Figures.create ~seed:(Int64.of_int seed) ~engine () in
          (match ids with None -> Figures.run_all ctx | Some ids -> List.iter (Figures.run ctx) ids);
          Engine.close engine));
  let t1 = Env.now () in
  st.spans <- { layer = Campaign; name = "Figures"; t0; t1; job = "" } :: st.spans;
  (st, t1 -. t0)

(* ---------------- probe passes ---------------- *)

type probes = {
  mutable inject_s : float;
  mutable inject_calls : int;
  mutable transform_s : float;
  mutable transform_calls : int;
  mutable insts_in : int;
  mutable insts_out : int;
  mutable lower_s : float;
  mutable lower_calls : int;
  mutable cell_prepare_s : float;  (** member + baseline preparations of planned cells *)
  mutable hash_s : float;
  mutable add_s : float;
  mutable flush_s : float;
  mutable load_s : float;
  mutable find_s : float;
  mutable hit_ratio : float;
}

let create_probes () =
  {
    inject_s = 0.;
    inject_calls = 0;
    transform_s = 0.;
    transform_calls = 0;
    insts_in = 0;
    insts_out = 0;
    lower_s = 0.;
    lower_calls = 0;
    cell_prepare_s = 0.;
    hash_s = 0.;
    add_s = 0.;
    flush_s = 0.;
    load_s = 0.;
    find_s = 0.;
    hit_ratio = 0.;
  }

let insts prog =
  let n = ref 0 in
  Prog.iter_funcs prog (fun f -> Func.iter_insts f (fun _ _ -> incr n));
  !n

(* The variant class's uninjected program: the planner's watched
   baseline of a cell. *)
let baseline_of = function
  | Experiment.Golden | Experiment.Fi_stdapp _ -> Experiment.Golden
  | Experiment.Nofi_dpmr cfg | Experiment.Fi_dpmr (cfg, _, _) -> Experiment.Nofi_dpmr cfg

let variant_probes st p =
  let prepare_s = Hashtbl.create 2048 in
  List.iter
    (fun (key, (spec : Job.spec), _) ->
      let e = Engine.experiment_for spec in
      let inject kind site =
        let prog, dt = span st Injection "Inject.apply" key (fun () -> Inject.apply e.Experiment.base kind site) in
        p.inject_s <- p.inject_s +. dt;
        p.inject_calls <- p.inject_calls + 1;
        prog
      in
      let transform cfg prog =
        let out, dt = span st Transform "Dpmr.transform" key (fun () -> Dpmr.transform cfg prog) in
        p.transform_s <- p.transform_s +. dt;
        p.transform_calls <- p.transform_calls + 1;
        p.insts_in <- p.insts_in + insts prog;
        p.insts_out <- p.insts_out + insts out;
        out
      in
      let prog =
        match spec.Job.variant with
        | Experiment.Golden -> e.Experiment.base
        | Experiment.Fi_stdapp (kind, site) -> inject kind site
        | Experiment.Nofi_dpmr cfg -> transform cfg e.Experiment.base
        | Experiment.Fi_dpmr (cfg, kind, site) -> transform cfg (inject kind site)
      in
      let _, dt = span st Lowering "Lower.lower_prog" key (fun () -> Lower.lower_prog prog) in
      p.lower_s <- p.lower_s +. dt;
      p.lower_calls <- p.lower_calls + 1;
      let _, dt = span st Preparation "Experiment.prepare" key (fun () -> Experiment.prepare e spec.Job.variant) in
      Hashtbl.replace prepare_s (Job.repr spec) dt)
    st.executed;
  (* plan.self_s subtracts what [plan_group] spends preparing each
     member and the cell's baseline *)
  List.iter
    (fun cell ->
      let spec0 = cell.(0) in
      let e = Engine.experiment_for spec0 in
      let _, dt =
        span st Preparation "Experiment.prepare" "" (fun () ->
            Experiment.prepare e (baseline_of spec0.Job.variant))
      in
      p.cell_prepare_s <- p.cell_prepare_s +. dt;
      Array.iter
        (fun s ->
          p.cell_prepare_s <-
            p.cell_prepare_s +. Option.value ~default:0. (Hashtbl.find_opt prepare_s (Job.repr s)))
        cell)
    st.cells

(** Writes go to a fresh cache in [scratch]; reads load [real], the cache
    an untraced cold [report all] wrote, and look every executed job up. *)
let cache_probes st p ~scratch ~real =
  let salt = Job.default_salt in
  let c = Cache.load ~dir:scratch ~salt () in
  let keys =
    List.map
      (fun (dispatched, spec, cls) ->
        let key, dt = span st Hashing "Job.hash" dispatched (fun () -> Job.hash ~salt spec) in
        p.hash_s <- p.hash_s +. dt;
        let (), dt =
          span st Cache_io "Cache.add" key (fun () -> Cache.add c ~key ~spec_repr:(Job.repr spec) cls)
        in
        p.add_s <- p.add_s +. dt;
        key)
      st.executed
  in
  let (), dt = span st Cache_io "Cache.flush" "" (fun () -> Cache.flush c) in
  p.flush_s <- dt;
  Cache.close c;
  let c, dt = span st Cache_io "Cache.load" "" (fun () -> Cache.load ~dir:real ~salt ()) in
  p.load_s <- dt;
  let hits = ref 0 in
  List.iter
    (fun key ->
      let found, dt = span st Cache_io "Cache.find" key (fun () -> Cache.find c key) in
      p.find_s <- p.find_s +. dt;
      if found <> None then incr hits)
    keys;
  Cache.close c;
  p.hit_ratio <- float_of_int !hits /. float_of_int (max 1 (List.length keys))

(* ---------------- Chrome trace events ---------------- *)

let trace_json st =
  let t0 = List.fold_left (fun a s -> Float.min a s.t0) infinity st.spans in
  let us t = Float.round ((t -. t0) *. 1e6) in
  let meta =
    List.map
      (fun (layer, name) ->
        Stats.obj
          [
            ("name", Stats.str "thread_name");
            ("ph", Stats.str "M");
            ("ts", "0");
            ("pid", "1");
            ("tid", string_of_int (tid layer));
            ("args", Stats.obj [ ("name", Stats.str name) ]);
          ])
      layers
  in
  let events =
    List.rev_map
      (fun s ->
        Stats.obj
          [
            ("name", Stats.str s.name);
            ("cat", Stats.str "layer");
            ("ph", Stats.str "X");
            ("ts", Stats.num (us s.t0));
            ("dur", Stats.num (us s.t1 -. us s.t0));
            ("pid", "1");
            ("tid", string_of_int (tid s.layer));
            ("args", Stats.obj [ ("job", Stats.str s.job) ]);
          ])
      st.spans
  in
  "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
  ^ String.concat ",\n" (meta @ events)
  ^ "\n]}\n"

(** Write the spans as a Chrome trace and check it the way
    [dpmr trace validate] does; the number of events on success. *)
let write_trace st file =
  Proc.write_file file (trace_json st);
  Dpmr_trace.Json_check.validate_trace (Proc.read_file file)
