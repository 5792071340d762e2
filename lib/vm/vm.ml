(** The interpreter: executes an IR program against the simulated memory
    subsystem, charging the {!Cost} model, dispatching external functions,
    and classifying the run per {!Outcome}.

    Two engines share all VM state and must agree bit-for-bit:

    - the {b compiled} tier (default, used by {!run}) executes the
      pre-resolved form produced by {!Lower} — block ids instead of
      label lookups, baked layouts and cast widths, pre-bound callees —
      as the closures {!Compile} builds.  An unwatched call runs fused
      blocks; a watched baseline ({!run_watched}) runs every block step
      by step under the frontier hook, and a resumed activation
      ({!resume}) its partial block;
    - the {b reference} engine ({!run_reference}) is the original
      tree-walking interpreter over {!Func.t}, kept as the executable
      specification the differential tests compare against.  It is also
      the one engine that emits trace events: {!run} takes it whenever a
      trace sink is installed.

    The [use_lowered] flag routes {!call_function}, so externs that
    re-enter the interpreter (e.g. the qsort comparator callback) stay on
    whichever engine started the run. *)

open Dpmr_ir
open Dpmr_memsim
open Types
open Inst
open Machine
module L = Lower
module Trace = Dpmr_trace.Trace

type value = Lower.value = I of int64 | F of float

(* The classification exceptions, the step-poll hook, the register file
   and the scalar-op semantics live in {!Machine}, shared with the
   compiled tier ({!Compile}, instantiated below the recursive execution
   knot).  Rebinding keeps the constructors physically identical, so a
   [Machine.Vm_error] raised from compiled code is caught by
   [classify_run] below. *)
exception Exit_program = Machine.Exit_program
exception Dpmr_detected = Machine.Dpmr_detected
exception Timeout_exceeded = Machine.Timeout_exceeded
exception Vm_error = Machine.Vm_error
exception Cancelled = Machine.Cancelled

let set_poll_hook = Machine.set_poll_hook

(* [DPMR_TIER=ref] runs {!run} on the reference tree-walker and makes
   every watch infeasible, so a whole report runs on the executable
   specification.  Read once, at module initialization. *)
let force_reference =
  match Sys.getenv_opt "DPMR_TIER" with
  | None | Some "" -> false
  | Some "ref" -> true
  | Some s -> invalid_arg (Printf.sprintf "DPMR_TIER: unknown tier %S" s)

(* ------------------------------------------------------------------ *)
(* Copy-on-write snapshots: types and watched-execution state          *)
(* ------------------------------------------------------------------ *)

(* One captured activation record: where the frame stood (function,
   block, instruction) and a private copy of its register file.  For the
   innermost frame [sf_inst] is the next instruction to execute; for
   every outer frame it indexes the in-flight [Lcall]. *)
type snap_frame = {
  sf_fname : string;
  sf_bidx : int;
  sf_inst : int;
  sf_bits : Bytes.t;
  sf_tags : Bytes.t;
  sf_entry_sp : int64;
}

type snapshot = {
  sn_mem : Mem.frozen;
  sn_alloc : Allocator.frozen;
  sn_rng : int64;
  sn_sp : int64;
  sn_cost : int;
  sn_out : string;
  sn_funaddr : (string * int64) list;  (* first-use address assignments, by name *)
  sn_next_fun_addr : int64;
  sn_frames : snap_frame list;  (* outermost first *)
  sn_hash : int64;
}

(* Live shadow of one activation during a watched run, updated as
   execution moves so a fire can capture the whole stack. *)
type wframe = {
  wf_fname : string;
  mutable wf_bidx : int;
  mutable wf_inst : int;
  wf_frame : lframe;
  mutable wf_lim : int array;
      (** this function's row of the merged frontier ([[||]] when it has
          none): fetched at activation entry and refreshed by every fire *)
}

(* One watched group member: its divergence frontier
   ({!Lower.diff_limits} against the baseline) and how it resolved.
   Exactly one of the three outcomes holds when the watch ends:
   captured ([wm_snap]), unsharable ([wm_unsharable] — the frontier was
   reached where a fork cannot resume), or still active (the baseline
   never reached the frontier, so the member inherits the baseline's
   whole run). *)
type wmember = {
  wm_limits : (string, int array) Hashtbl.t;
  mutable wm_snap : snapshot option;
  mutable wm_unsharable : bool;
}

type watch = {
  w_members : wmember array;
  mutable w_merged : (string, int array) Hashtbl.t;
      (** elementwise-min frontier over the still-active members: fire
          before executing instruction [merged.(blk)] of a listed
          function's block; rebuilt after every fire *)
  mutable w_active : int;
  mutable w_stack : wframe list;  (** innermost first *)
  mutable w_extern : int;
      (** extern re-entries ({!call_function}) currently on the stack *)
}

type t = {
  prog : Prog.t;
  lprog : Lower.prog;
  mutable mem : Mem.t;  (** mutable only for {!resume}: forks swap in a thawed space *)
  mutable alloc : Allocator.t;
  mutable sp : int;
  fun_addr : (string, int64) Hashtbl.t;
  addr_fun : (int64, string) Hashtbl.t;
  mutable next_fun_addr : int64;
  out : Buffer.t;
  cost : int ref;
      (** a [ref] rather than a mutable field so the compiled tier can
          capture it once per entry and charge without touching [t] *)
  mutable budget : int;  (** raise {!Timeout_exceeded} when cost exceeds *)
  rng : Rng.t;
  externs : (string, extern) Hashtbl.t;
  extern_slots : extern option array;
      (** per-VM resolution of the {!Lower.Lextern} call slots *)
  mutable fi_first_cost : int option;
  mutable call_depth : int;
  mutable use_lowered : bool;  (** engine selector for {!call_function} *)
  trace : Trace.t option;
      (** the domain's trace sink, captured once at {!create} — a [t]
          field rather than a per-event DLS read so the disabled case
          costs one immediate pointer test on each would-be event *)
  mutable watched : watch option;
      (** the watched-baseline state while {!run_watched} runs; [None]
          otherwise — one pointer test per call *)
}

and extern = t -> value list -> value option

let add_cost t c = t.cost := !(t.cost) + c

let check_budget t =
  if !(t.cost) > t.budget then raise Timeout_exceeded;
  match Domain.DLS.get poll_key with None -> () | Some f -> f ()

let as_int = function I v -> v | F _ -> raise (Vm_error "expected int/pointer value")
let as_float = function F v -> v | I _ -> raise (Vm_error "expected float value")

(* eta-expanded so the calls inline: a bare closure alias would route
   every ALU instruction through a generic (boxing) application *)
let[@inline] truncate_to w v = Lower.truncate_to w v
let[@inline] sign_extend w v = Lower.sign_extend w v

(* ------------------------------------------------------------------ *)
(* Construction and program loading                                    *)
(* ------------------------------------------------------------------ *)

let fun_address t name =
  match Hashtbl.find_opt t.fun_addr name with
  | Some a -> a
  | None ->
      let a = t.next_fun_addr in
      t.next_fun_addr <- Int64.add a 16L;
      Hashtbl.replace t.fun_addr name a;
      Hashtbl.replace t.addr_fun a name;
      a

(* The lowering's table: a declared global's operand is already its
   address, so only initializers, the reference engine and an
   undeclared name come here. *)
let global_address t name =
  match Hashtbl.find t.lprog.L.global_addr name with
  | a -> a
  | exception Not_found ->
      raise (Vm_error (Printf.sprintf "no address for global %S" name))

(* Write a structural initializer at [addr]. *)
let rec write_ginit t addr ty (g : Prog.ginit) =
  let tenv = t.prog.tenv in
  match (g, ty) with
  | Prog.Gzero, _ -> Mem.fill t.mem addr (Layout.size_of tenv ty) 0
  | Prog.Gint v, Int w -> Mem.write_int t.mem addr (bytes_of_width w) v
  | Prog.Gfloat x, Float -> Mem.write_f64 t.mem addr x
  | Prog.Gptr_null, Ptr _ -> Mem.write_int t.mem addr 8 0L
  | Prog.Gptr_global gname, Ptr _ -> Mem.write_int t.mem addr 8 (global_address t gname)
  | Prog.Gptr_fun fname, Ptr _ -> Mem.write_int t.mem addr 8 (fun_address t fname)
  | Prog.Gstring s, Arr (Int W8, n) ->
      let len = min (String.length s) (n - 1) in
      for i = 0 to len - 1 do
        Mem.write_u8 t.mem (Int64.add addr (Int64.of_int i)) (Char.code s.[i])
      done;
      Mem.fill t.mem (Int64.add addr (Int64.of_int len)) (n - len) 0
  | Prog.Gagg gs, Arr (e, n) ->
      let esz = Layout.size_of tenv e in
      List.iteri
        (fun i gi ->
          if i < n then write_ginit t (Int64.add addr (Int64.of_int (i * esz))) e gi)
        gs
  | Prog.Gagg gs, Struct sname ->
      (* walk initializers, field types and offsets together — indexing
         the lists per element made large struct initializers quadratic *)
      let rec go gs fields offs =
        match (gs, fields, offs) with
        | [], _, _ -> ()
        | gi :: gs', fty :: fields', off :: offs' ->
            write_ginit t (Int64.add addr (Int64.of_int off)) fty gi;
            go gs' fields' offs'
        | _ :: _, _, _ ->
            (* more initializers than fields: fail as [List.nth] did *)
            raise (Failure "nth")
      in
      go gs (Tenv.fields tenv sname) (Layout.field_offsets tenv sname)
  | _ ->
      raise
        (Vm_error
           (Fmt.str "bad global initializer for type %a" Types.pp ty))

(* Map and initialize every global at the address the lowering gave
   it.  One pass suffices: an initializer reads other globals' addresses
   from the lowering, never their memory. *)
let layout_globals t =
  let tenv = t.prog.tenv in
  Prog.iter_globals t.prog (fun g ->
      let addr = global_address t g.gname in
      Mem.map_range t.mem addr (max 1 (Layout.size_of tenv g.gty)) Mem.Fill_zero;
      write_ginit t addr g.gty g.ginit)

let create ?(seed = 42L) ?(budget = 2_000_000_000L) ?lowered prog =
  let lprog =
    match lowered with
    | Some lp when lp.L.src == prog -> lp
    | Some _ | None -> Lower.lower_prog prog
  in
  let mem = Mem.create ~seed () in
  let t =
    {
      prog;
      lprog;
      mem;
      alloc = Allocator.create mem;
      sp = Int64.to_int Mem.stack_base;
      fun_addr = Hashtbl.create 32;
      addr_fun = Hashtbl.create 32;
      next_fun_addr = 0x2000_0000L;
      out = Buffer.create 256;
      cost = ref 0;
      budget = Int64.to_int budget;
      rng = Rng.create seed;
      externs = Hashtbl.create 64;
      extern_slots = Array.make lprog.L.n_slots None;
      fi_first_cost = None;
      call_depth = 0;
      use_lowered = true;
      trace = Trace.current ();
      watched = None;
    }
  in
  (* the allocator and phase markers timestamp events through the sink's
     clock; point it at this VM's cost counter *)
  (match t.trace with
  | Some s -> Trace.set_clock s (fun () -> !(t.cost))
  | None -> ());
  layout_globals t;
  t

let register_extern t name fn =
  Hashtbl.replace t.externs name fn;
  (* keep any already-bound call slot in sync with the re-registration *)
  match Hashtbl.find_opt t.lprog.L.slot_of_name name with
  | Some i -> t.extern_slots.(i) <- Some fn
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Shared execution helpers                                            *)
(* ------------------------------------------------------------------ *)

type frame = { regs : value array; entry_sp : int }

let max_call_depth = 10_000

(* Reference-engine scalar moves (the lowering bakes the kind). *)

let load_scalar t ty addr =
  match ty with
  | Float -> F (Mem.read_f64 t.mem addr)
  | Int w -> I (Mem.read_int t.mem addr (bytes_of_width w))
  | Ptr _ -> I (Mem.read_int t.mem addr 8)
  | _ -> raise (Vm_error "load of non-scalar")

let store_scalar t ty addr v =
  match (ty, v) with
  | Float, F x -> Mem.write_f64 t.mem addr x
  | Float, I bits -> Mem.write_f64 t.mem addr (Int64.float_of_bits bits)
  | Int w, I x -> Mem.write_int t.mem addr (bytes_of_width w) x
  | Ptr _, I x -> Mem.write_int t.mem addr 8 x
  | Int _, F _ | Ptr _, F _ -> raise (Vm_error "store: float value into int slot")
  | _ -> raise (Vm_error "store of non-scalar")

(* A detection block starts by calling [__dpmr_detect]: the target the
   diversity transform gives each inline replica load-check.  A label
   the function lacks names no detection block. *)
let is_detect_block f label =
  match Func.find_block f label with
  | { Func.insts = Call (_, Direct "__dpmr_detect", _) :: _; _ } -> true
  | _ -> false
  | exception Invalid_argument _ -> false

(* How a lowered activation runs: on the compiled tier, fused or, while
   a baseline is watched, step by step under the frontier hook.  Tied
   after the recursive execution knot below ({!Compile} needs the knot's
   call helpers, the knot needs this to run a call).  Never read before
   the initializer below [Tier] runs. *)
let tier_enter : (t -> L.lfunc -> lframe -> value option) ref =
  ref (fun _ _ _ -> assert false)

exception Watch_done
(** Internal: every member is resolved — the rest of the baseline run
    serves nobody, so unwind it. *)

exception Watch_infeasible
(** The whole watch is impossible on this VM (tracing active).  Callers
    fall back to from-zero execution. *)

let merged_row merged fname =
  match Hashtbl.find_opt merged fname with Some a -> a | None -> [||]

(* the watch limit of block [idx] in the activation [wf] *)
let[@inline] block_limit wf idx =
  let a = wf.wf_lim in
  if idx < Array.length a then Array.unsafe_get a idx else max_int

let indirect_name t addr =
  match Hashtbl.find_opt t.addr_fun addr with
  | Some name -> name
  | None -> raise (Mem.Fault (Mem.Unmapped addr))

(* Capture everything a fork needs.  All copies are O(tables + frames):
   page contents stay shared copy-on-write. *)
let capture t w =
  let frames =
    List.rev_map
      (fun wf ->
        {
          sf_fname = wf.wf_fname;
          sf_bidx = wf.wf_bidx;
          sf_inst = wf.wf_inst;
          sf_bits = Bytes.copy wf.wf_frame.bits;
          sf_tags = Bytes.copy wf.wf_frame.tags;
          sf_entry_sp = Int64.of_int wf.wf_frame.lentry_sp;
        })
      w.w_stack
  in
  let funaddr =
    Hashtbl.fold (fun name a acc -> (name, a) :: acc) t.fun_addr []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let mem_f = Mem.freeze t.mem in
  let alloc_f = Allocator.freeze t.alloc in
  let out = Buffer.contents t.out in
  (* combined content hash: equal hashes imply forks resume from equal
     states; deterministic across processes for cache federation *)
  let h = ref (Mem.frozen_hash mem_f) in
  let word x = h := Int64.mul (Int64.logxor !h x) 0x100000001B3L in
  let str s = String.iter (fun c -> word (Int64.of_int (Char.code c))) s in
  word (Allocator.frozen_hash alloc_f);
  word (Rng.state t.rng);
  word (Int64.of_int t.sp);
  word (Int64.of_int !(t.cost));
  word t.next_fun_addr;
  str out;
  List.iter
    (fun (n, a) ->
      str n;
      word a)
    funaddr;
  List.iter
    (fun sf ->
      str sf.sf_fname;
      word (Int64.of_int sf.sf_bidx);
      word (Int64.of_int sf.sf_inst);
      str (Bytes.to_string sf.sf_bits);
      str (Bytes.to_string sf.sf_tags);
      word sf.sf_entry_sp)
    frames;
  {
    sn_mem = mem_f;
    sn_alloc = alloc_f;
    sn_rng = Rng.state t.rng;
    sn_sp = Int64.of_int t.sp;
    sn_cost = !(t.cost);
    sn_out = out;
    sn_funaddr = funaddr;
    sn_next_fun_addr = t.next_fun_addr;
    sn_frames = frames;
    sn_hash = !h;
  }

(* Execution is about to reach position [pos] of [wf]'s block — the
   divergence frontier of at least one active member.  Resolve exactly
   the members whose frontier is here: capture one shared snapshot for
   them (or mark them unsharable when the position is unreachable for a
   fork — inside an extern callback such as the qsort comparator), then
   rebuild the merged frontier so the baseline keeps running for the
   members that still need it.  Raises {!Watch_done} once nobody does. *)
let fire t w wf pos =
  let fname = wf.wf_fname and bidx = wf.wf_bidx in
  let active m = m.wm_snap = None && not m.wm_unsharable in
  let here m =
    active m
    && (match Hashtbl.find_opt m.wm_limits fname with
       | Some a when bidx < Array.length a -> a.(bidx) = pos
       | _ -> false)
  in
  let snap =
    if w.w_extern > 0 || t.fi_first_cost <> None then None
    else Some (capture t w)
  in
  Array.iter
    (fun m ->
      if here m then begin
        (match snap with
        | Some sn -> m.wm_snap <- Some sn
        | None -> m.wm_unsharable <- true);
        w.w_active <- w.w_active - 1
      end)
    w.w_members;
  if w.w_active <= 0 then raise Watch_done;
  let merged = Hashtbl.create 16 in
  Array.iter (fun m -> if active m then L.merge_limits merged m.wm_limits) w.w_members;
  w.w_merged <- merged;
  List.iter (fun wf -> wf.wf_lim <- merged_row merged wf.wf_fname) w.w_stack

(* ------------------------------------------------------------------ *)
(* Execution: both engines in one recursive knot (externs re-enter via  *)
(* [call_function], which routes on [use_lowered])                      *)
(* ------------------------------------------------------------------ *)

let rec call_function t name args =
  if t.use_lowered then
    match t.watched with
    | None -> call_named t name (Array.of_list args)
    | Some w ->
        (* the only way back in from an extern (e.g. a qsort
           comparator): the callback stays watched, but a frontier
           reached inside it cannot be resumed by a fork, so [fire]
           refuses while the count is non-zero.  No unwinding guard: an
           exception out of the callback ends the whole run. *)
        w.w_extern <- w.w_extern + 1;
        let r = call_named t name (Array.of_list args) in
        w.w_extern <- w.w_extern - 1;
        r
  else
    match Hashtbl.find_opt t.prog.funcs name with
    | Some f -> exec_func t f args
    | None -> (
        match Hashtbl.find_opt t.externs name with
        | Some fn -> fn t args
        | None -> unknown_function name)

(* ---- lowered form: calls and the call protocol ---- *)

and exec_lfunc t (lf : L.lfunc) (args : value array) =
  if t.call_depth >= max_call_depth then raise (Vm_error "stack overflow");
  t.call_depth <- t.call_depth + 1;
  let nparams = Array.length lf.L.lparams in
  if Array.length args < nparams then
    raise
      (Vm_error
         (Printf.sprintf "%s: missing argument %d" lf.L.lname
            (Array.length args)));
  let frame = make_lframe lf.L.lnregs t.sp in
  for i = 0 to nparams - 1 do
    set_value frame lf.L.lparams.(i) args.(i)
  done;
  if Array.length lf.L.lblocks = 0 then
    invalid_arg (Printf.sprintf "Func.entry: %s has no blocks" lf.L.lname);
  let result = !tier_enter t lf frame in
  t.sp <- frame.lentry_sp;
  t.call_depth <- t.call_depth - 1;
  result

(* The call protocol shared with the compiled tier ({!Tier_rt}): an
   [Lextern] slot resolves through the per-VM slot cache, then the extern
   table (filling the cache), then fails; an indirect or named callee is
   a lowered function, else an extern, else an unknown-function error. *)
and call_extern_slot t slot name argv =
  match t.extern_slots.(slot) with
  | Some fn -> fn t (Array.to_list argv)
  | None -> (
      match Hashtbl.find_opt t.externs name with
      | Some fn ->
          t.extern_slots.(slot) <- Some fn;
          fn t (Array.to_list argv)
      | None -> unknown_function name)

and call_named t name argv =
  match Hashtbl.find_opt t.lprog.L.funcs name with
  | Some lf -> exec_lfunc t lf argv
  | None -> (
      match Hashtbl.find_opt t.externs name with
      | Some fn -> fn t (Array.to_list argv)
      | None -> unknown_function name)

(* ---- reference engine: the original tree-walking interpreter ---- *)

and exec_func t (f : Func.t) args =
  if t.call_depth >= max_call_depth then raise (Vm_error "stack overflow");
  t.call_depth <- t.call_depth + 1;
  let frame = { regs = Array.make f.next_reg (I 0xDEADBEEFL); entry_sp = t.sp } in
  (* bind arguments by walking params and args together (indexing the
     argument list per param was quadratic in arity); a short argument
     list fails at the first missing index, as before *)
  let rec bind i params args =
    match (params, args) with
    | [], _ -> ()
    | (r, _) :: params', v :: args' ->
        frame.regs.(r) <- v;
        bind (i + 1) params' args'
    | _ :: _, [] ->
        raise (Vm_error (Printf.sprintf "%s: missing argument %d" f.name i))
  in
  bind 0 f.params args;
  (match t.trace with
  | Some s -> Trace.emit_call_enter s ~cost:(!(t.cost)) ~fname:f.name
  | None -> ());
  let result = exec_blocks t f frame in
  (match t.trace with
  | Some s -> Trace.emit_call_exit s ~cost:(!(t.cost)) ~fname:f.name
  | None -> ());
  t.sp <- frame.entry_sp;
  t.call_depth <- t.call_depth - 1;
  result

and exec_blocks t f frame =
  let rec run (b : Func.block) =
    check_budget t;
    (match t.trace with
    | Some s ->
        Trace.sample_block s ~cost:(!(t.cost)) ~fname:f.Func.name
          ~blk:(Func.block_index f b.label)
    | None -> ());
    List.iter (exec_inst t f frame) b.insts;
    match b.term with
    | Br l ->
        add_cost t Cost.branch;
        run (Func.find_block f l)
    | Cbr (c, l1, l2) ->
        add_cost t Cost.cond_branch;
        let v = as_int (eval t frame c) in
        let taken, other = if not (Int64.equal v 0L) then (l1, l2) else (l2, l1) in
        (* a branch away from a detection block is an inline replica
           load-check that passed *)
        (match t.trace with
        | Some s when is_detect_block f other && not (is_detect_block f taken) ->
            Trace.emit_compare s ~cost:(!(t.cost)) ~app:(-1L) ~rep:(-1L) ~len:0
        | _ -> ());
        run (Func.find_block f taken)
    | Ret o ->
        add_cost t Cost.ret;
        Option.map (eval t frame) o
    | Unreachable -> raise (Vm_error (f.name ^ ": executed unreachable"))
  in
  run (Func.entry f)

and eval t frame = function
  | Reg r -> frame.regs.(r)
  | Cint (w, v) -> I (truncate_to w v)
  | Cfloat x -> F x
  | Null _ -> I 0L
  | Global g -> I (global_address t g)
  | Fun_addr f -> I (fun_address t f)

and exec_inst t f frame inst =
  let ev o = eval t frame o in
  let set r v = frame.regs.(r) <- v in
  match inst with
  | Malloc (r, ty, n) ->
      let count = Int64.to_int (as_int (ev n)) in
      if count < 0 then raise (Vm_error "malloc: negative count");
      let bytes = count * Layout.size_of t.prog.tenv ty in
      add_cost t (Cost.malloc_cost bytes);
      set r (I (Allocator.malloc t.alloc bytes))
  | Alloca (r, ty, n) ->
      let count = Int64.to_int (as_int (ev n)) in
      let bytes = max 1 (count * Layout.size_of t.prog.tenv ty) in
      add_cost t (Cost.alloca_cost bytes);
      let algn = Layout.align_of t.prog.tenv ty in
      let addr = Layout.round_up t.sp (max 8 algn) in
      Mem.map_range t.mem (Int64.of_int addr) bytes Mem.Fill_garbage;
      t.sp <- addr + bytes;
      set r (I (Int64.of_int addr))
  | Free p ->
      add_cost t Cost.free_cost;
      let addr = as_int (ev p) in
      if not (Int64.equal addr 0L) then Allocator.free t.alloc addr
  | Load (r, ty, p) ->
      add_cost t (Cost.load + Cost.heap_pressure (Allocator.live_bytes t.alloc));
      let addr = as_int (ev p) in
      set r (load_scalar t ty addr)
  | Store (ty, v, p) ->
      add_cost t (Cost.store + Cost.heap_pressure (Allocator.live_bytes t.alloc));
      let addr = as_int (ev p) in
      (match t.trace with
      | Some s ->
          Trace.emit_store s ~cost:(!(t.cost)) ~addr
            ~bytes:(Layout.size_of t.prog.tenv ty)
      | None -> ());
      store_scalar t ty addr (ev v)
  | Gep_field (r, sname, p, i) ->
      add_cost t Cost.gep;
      let base = as_int (ev p) in
      let off = Layout.field_offset t.prog.tenv sname i in
      set r (I (Int64.add base (Int64.of_int off)))
  | Gep_index (r, ety, p, i) ->
      add_cost t Cost.gep;
      let base = as_int (ev p) in
      let idx = sign_extend W64 (as_int (ev i)) in
      let esz = Int64.of_int (Layout.size_of t.prog.tenv ety) in
      set r (I (Int64.add base (Int64.mul idx esz)))
  | Bitcast (r, _, p) ->
      add_cost t Cost.cast;
      set r (ev p)
  | Ptr_to_int (r, p) ->
      add_cost t Cost.cast;
      set r (ev p)
  | Int_to_ptr (r, _, v) ->
      add_cost t Cost.cast;
      set r (ev v)
  | Binop (r, op, w, a, b) ->
      add_cost t Cost.alu;
      set r (I (exec_binop op w (as_int (ev a)) (as_int (ev b))))
  | Fbinop (r, op, a, b) ->
      add_cost t Cost.falu;
      let x = as_float (ev a) and y = as_float (ev b) in
      let v =
        match op with
        | Fadd -> x +. y
        | Fsub -> x -. y
        | Fmul -> x *. y
        | Fdiv -> x /. y
      in
      set r (F v)
  | Icmp (r, c, w, a, b) ->
      add_cost t Cost.cmp;
      set r (I (exec_icmp c w (as_int (ev a)) (as_int (ev b))))
  | Fcmp (r, c, a, b) ->
      add_cost t Cost.cmp;
      set r (I (exec_fcmp c (as_float (ev a)) (as_float (ev b))))
  | Int_cast (r, w, signed, v) ->
      add_cost t Cost.cast;
      let x = as_int (ev v) in
      (* source width unknown here; values are kept zero-extended to their
         own width, so sign extension needs the source width — recover it
         from the operand's static type. *)
      let src_w =
        match Prog.operand_ty t.prog f v with
        | Int w -> w
        | _ -> W64
      in
      let x = if signed then sign_extend src_w x else x in
      set r (I (truncate_to w x))
  | F_to_i (r, w, v) ->
      add_cost t Cost.cast;
      let x = as_float (ev v) in
      set r (I (truncate_to w (Int64.of_float x)))
  | I_to_f (r, _, v) ->
      add_cost t Cost.cast;
      let x = as_int (ev v) in
      let src_w =
        match Prog.operand_ty t.prog f v with Int w -> w | _ -> W64
      in
      set r (F (Int64.to_float (sign_extend src_w x)))
  | Select (r, _, c, a, b) ->
      add_cost t Cost.select;
      let cv = as_int (ev c) in
      set r (if not (Int64.equal cv 0L) then ev a else ev b)
  | Call (r, callee, args) ->
      add_cost t (Cost.call_base + (Cost.call_per_arg * List.length args));
      let name =
        match callee with
        | Direct n -> n
        | Indirect o -> (
            let addr = as_int (ev o) in
            match Hashtbl.find_opt t.addr_fun addr with
            | Some n -> n
            | None -> raise (Mem.Fault (Mem.Unmapped addr)))
      in
      let result = call_function t name (List.map ev args) in
      (match (r, result) with
      | Some r, Some v -> set r v
      | Some _, None ->
          raise (Vm_error (Printf.sprintf "%s returned void, result expected" name))
      | None, _ -> ())

(* ------------------------------------------------------------------ *)
(* Compiled-tier instantiation and the frontier hook                  *)
(* ------------------------------------------------------------------ *)

(* The runtime view {!Compile} programs against.  Sits below the
   recursive knot because compiled calls re-enter it ([exec_lfunc]), and
   above [tier_enter] because the knot runs every call through that
   ref — the assignment below [Tier] ties the cycle. *)
module Tier_rt = struct
  type nonrec t = t

  let cost t = t.cost
  let budget t = t.budget
  let mem t = t.mem
  let alloc t = t.alloc
  let sp t = t.sp
  let set_sp t v = t.sp <- v
  let global_address = global_address
  let fun_address = fun_address
  let call_lfun t lf args = exec_lfunc t lf args

  let call_extern_slot = call_extern_slot
  let indirect_name = indirect_name
  let call_named = call_named
end

module Tier = Compile.Make (Tier_rt)

(* The frontier hook of a watched baseline.  [wf] shadows the
   activation, and its blocks run step by step: before each step — and
   before the terminator — the position is compared with the
   activation's frontier limit; on arrival [fire] captures the whole VM
   state for the members whose frontier this is.  [fire] guarantees the
   refreshed limit at this block exceeds the fire position, so execution
   always progresses. *)
let exec_watched t w (lf : L.lfunc) frame =
  let wf =
    {
      wf_fname = lf.L.lname;
      wf_bidx = 0;
      wf_inst = 0;
      wf_frame = frame;
      wf_lim = merged_row w.w_merged lf.L.lname;
    }
  in
  w.w_stack <- wf :: w.w_stack;
  let r =
    Tier.watch t lf frame (fun bidx i ->
        wf.wf_bidx <- bidx;
        wf.wf_inst <- i;
        if i = block_limit wf bidx then fire t w wf i)
  in
  w.w_stack <- List.tl w.w_stack;
  r

let () =
  tier_enter :=
    fun t lf frame ->
      match t.watched with
      | None -> Tier.enter t lf frame
      | Some w -> exec_watched t w lf frame

(** Cumulative (process-wide) count of functions compiled. *)
let tier_stats () = Compile.n_promotions ()

(* ------------------------------------------------------------------ *)
(* Top-level driver                                                    *)
(* ------------------------------------------------------------------ *)

(** Set up argv strings in simulated memory; returns (argc, argv). *)
let setup_argv t args =
  let n = List.length args in
  let argv = Allocator.malloc t.alloc (max 8 (8 * n)) in
  List.iteri
    (fun i s ->
      let a = Allocator.malloc t.alloc (String.length s + 1) in
      String.iteri
        (fun j c -> Mem.write_u8 t.mem (Int64.add a (Int64.of_int j)) (Char.code c))
        s;
      Mem.write_u8 t.mem (Int64.add a (Int64.of_int (String.length s))) 0;
      Mem.write_int t.mem (Int64.add argv (Int64.of_int (8 * i))) 8 a)
    args;
  (I (Int64.of_int n), I argv)

let finish_run t outcome =
  {
    Outcome.outcome;
    cost = Int64.of_int !(t.cost);
    output = Buffer.contents t.out;
    peak_heap_bytes = (Allocator.stats t.alloc).peak_bytes;
    mapped_pages = t.mem.mapped_pages;
    fi_first_cost = Option.map Int64.of_int t.fi_first_cost;
  }

let classify_run t body =
  try finish_run t (body ()) with
  | Exit_program 0 -> finish_run t Outcome.Normal
  | Exit_program n -> finish_run t (Outcome.App_exit n)
  | Dpmr_detected msg -> finish_run t (Outcome.Dpmr_detect msg)
  | Timeout_exceeded -> finish_run t Outcome.Timeout
  | Mem.Fault flt -> finish_run t (Outcome.Crash (Mem.fault_to_string flt))
  | Vm_error msg -> finish_run t (Outcome.Crash msg)
  | Stack_overflow -> finish_run t (Outcome.Crash "host stack overflow")

let classify_exit r =
  let code = match r with Some (I v) -> Int64.to_int v | _ -> 0 in
  if code = 0 then Outcome.Normal else Outcome.App_exit code

(** [run]'s entry protocol on the lowered form, which the compiled tier
    runs: fused, or step by step while a baseline is watched;
    {!run_watched} enters through it too. *)
let run_lowered ?(entry = "main") ?(args = [ "prog" ]) t =
  t.use_lowered <- true;
  classify_run t (fun () ->
      let lf =
        match Hashtbl.find_opt t.lprog.L.funcs entry with
        | Some lf -> lf
        | None -> invalid_arg (Printf.sprintf "Prog.func: undefined %S" entry)
      in
      let argv_vals =
        match Array.length lf.L.lparams with
        | 0 -> [||]
        | 2 ->
            let argc, argv = setup_argv t args in
            [| argc; argv |]
        | _ -> raise (Vm_error (entry ^ ": entry point must take () or (argc, argv)"))
      in
      classify_exit (exec_lfunc t lf argv_vals))

(** Same entry protocol on the reference tree-walking engine. *)
let run_reference ?(entry = "main") ?(args = [ "prog" ]) t =
  t.use_lowered <- false;
  classify_run t (fun () ->
      let f = Prog.func t.prog entry in
      let argv_vals =
        match f.params with
        | [] -> []
        | [ _; _ ] ->
            let argc, argv = setup_argv t args in
            [ argc; argv ]
        | _ -> raise (Vm_error (entry ^ ": entry point must take () or (argc, argv)"))
      in
      classify_exit (exec_func t f argv_vals))

(** Run [main] (or a named entry point) to completion and classify:
    compiled from entry by default, on the tree-walker while a trace
    sink is installed (the one engine that emits events) or under
    [DPMR_TIER=ref]. *)
let run ?(entry = "main") ?(args = [ "prog" ]) t =
  if force_reference || t.trace <> None then run_reference ~entry ~args t
  else run_lowered ~entry ~args t

(* ------------------------------------------------------------------ *)
(* Snapshot / fork drivers                                             *)
(* ------------------------------------------------------------------ *)

let snapshot_hash s = s.sn_hash
let snapshot_cost s = Int64.of_int s.sn_cost

(** Per-member resolution of a watched baseline run. *)
type watch_result =
  | Wsnap of snapshot
      (** state captured copy-on-write at the member's divergence
          frontier; {!resume} from it *)
  | Wshared of Outcome.run
      (** the baseline ended (normally, by trap, or on budget) without
          ever reaching this member's frontier, so its whole run — and
          this outcome — is bit-identical to the member's own *)
  | Wzero
      (** frontier reached where a fork cannot resume (extern callback
          nesting): run this member from zero *)

(** Run the entry point watched for a whole group: bit-identical to
    {!run}, except that on the first arrival at each member's divergence
    frontier (its {!Lower.diff_limits} table) the VM state is captured
    copy-on-write for that member.  The run ends early once every member
    is resolved.  Raises {!Watch_infeasible} when watching is impossible
    on this VM (tracing active). *)
let run_watched ?(entry = "main") ?(args = [ "prog" ]) t limitss =
  (* infeasible under tracing and under a forced reference tier: both
     run on the reference engine, and watch limits are lowered-block
     positions *)
  if t.trace <> None || force_reference then raise Watch_infeasible;
  let members =
    Array.map
      (fun lims -> { wm_limits = lims; wm_snap = None; wm_unsharable = false })
      limitss
  in
  let merged = Hashtbl.create 16 in
  Array.iter (fun m -> L.merge_limits merged m.wm_limits) members;
  let finish shared =
    Array.map
      (fun m ->
        match m.wm_snap with
        | Some sn -> Wsnap sn
        | None -> (
            if m.wm_unsharable then Wzero
            else match shared with Some r -> Wshared r | None -> Wzero))
      members
  in
  t.watched <-
    Some
      {
        w_members = members;
        w_merged = merged;
        w_active = Array.length members;
        w_stack = [];
        w_extern = 0;
      };
  match
    Fun.protect
      ~finally:(fun () -> t.watched <- None)
      (fun () -> run_lowered ~entry ~args t)
  with
  | r -> finish (Some r)
  | exception Watch_done -> finish None

(* Rebuild one activation record from its capture.  The fork's function
   may have more registers than the baseline's (the fault's own, which
   the transform numbers last); the extra registers were untouched at the
   capture point, so [make_lframe]'s poison is exactly their from-zero
   contents. *)
let remake_lframe nregs (sf : snap_frame) =
  let frame = make_lframe nregs (Int64.to_int sf.sf_entry_sp) in
  let nb = min (Bytes.length sf.sf_bits) (Bytes.length frame.bits) in
  Bytes.blit sf.sf_bits 0 frame.bits 0 nb;
  let nt = min (Bytes.length sf.sf_tags) (Bytes.length frame.tags) in
  Bytes.blit sf.sf_tags 0 frame.tags 0 nt;
  frame

let rec resume_frames t frames =
  match frames with
  | [] -> raise (Vm_error "snapshot resume: empty frame stack")
  | sf :: rest -> (
      let lf =
        match Hashtbl.find_opt t.lprog.L.funcs sf.sf_fname with
        | Some lf -> lf
        | None -> raise (Vm_error (Printf.sprintf "snapshot resume: no function %S" sf.sf_fname))
      in
      if t.call_depth >= max_call_depth then raise (Vm_error "stack overflow");
      t.call_depth <- t.call_depth + 1;
      let frame = remake_lframe lf.L.lnregs sf in
      let result =
        match rest with
        | [] ->
            (* innermost activation: continue at the captured position *)
            Tier.resume t lf frame sf.sf_bidx sf.sf_inst
        | _ :: _ ->
            (* an [Lcall] was in flight at the captured position: finish
               it from the inner frames, then continue after it *)
            let b = lf.L.lblocks.(sf.sf_bidx) in
            if sf.sf_inst >= Array.length b.L.linsts then
              raise (Vm_error "snapshot resume: frame mismatch");
            (match b.L.linsts.(sf.sf_inst) with
            | L.Lcall (r, callee, _, _) ->
                let name =
                  match callee with
                  | L.Lfun f -> f.L.lname
                  | L.Lextern (_, n) -> n
                  | L.Lindirect _ -> (List.hd rest).sf_fname
                in
                finish_call frame r name (resume_frames t rest)
            | _ -> raise (Vm_error "snapshot resume: frame mismatch"));
            Tier.resume t lf frame sf.sf_bidx (sf.sf_inst + 1)
      in
      t.sp <- frame.lentry_sp;
      t.call_depth <- t.call_depth - 1;
      result)

(** Fork: replace [t]'s state (a freshly created VM for the fork's
    program, externs already registered) with the snapshot's, then run to
    completion.  Bit-identical to running the fork's program from zero
    with the same seed — the prefix up to the capture point executed the
    same instruction stream, register for register, on the same state. *)
let resume t snapshot =
  if t.trace <> None then raise Watch_infeasible;
  t.use_lowered <- true;
  t.mem <- Mem.thaw snapshot.sn_mem;
  t.alloc <- Allocator.thaw t.mem snapshot.sn_alloc;
  Rng.set_state t.rng snapshot.sn_rng;
  t.sp <- Int64.to_int snapshot.sn_sp;
  t.cost := snapshot.sn_cost;
  Buffer.clear t.out;
  Buffer.add_string t.out snapshot.sn_out;
  Hashtbl.reset t.fun_addr;
  Hashtbl.reset t.addr_fun;
  List.iter
    (fun (name, a) ->
      Hashtbl.replace t.fun_addr name a;
      Hashtbl.replace t.addr_fun a name)
    snapshot.sn_funaddr;
  t.next_fun_addr <- snapshot.sn_next_fun_addr;
  t.fi_first_cost <- None;
  t.call_depth <- 0;
  classify_run t (fun () -> classify_exit (resume_frames t snapshot.sn_frames))
