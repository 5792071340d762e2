(** The compiled tier: closure compilation of lowered functions.

    Each {!Lower.lfunc} compiles, block by block at each block's first
    entry, into pre-bound OCaml closures: one step per lowered
    instruction, with its operand shapes ([Lreg]/[Lconst]) burned into
    the step's body, and one closure per terminator.  A global operand
    is an [Lconst] already: the lowering bound each declared global's
    address, so a global read costs no lookup.  A block keeps its steps
    and its terminator beside the fused chain built from them, and three
    drivers run them:

    - {!enter} runs a fresh activation on fused chains, straight-line
      runs of steps fused into superinstruction chains;
    - {!resume} runs a resumed activation's partial block step by step
      from the captured position, then fused chains from the next block;
    - {!watch} runs a watched baseline's activation step by step, with
      {!Vm}'s frontier hook before each step and each terminator.

    So every lowered instruction's semantics lives here once, in [cinst]
    and [cterm], and the reference tree-walker ({!Vm.run_reference}) is
    the only other engine.  No compiled code emits trace events: {!Vm}
    runs a traced run on the reference engine.

    Fidelity contract: the compiled tier charges the {!Cost} model at the
    same program points as the reference engine, evaluates operands in
    the same order and raises the same exceptions from the same states —
    the same outcome, output, cost, memory footprint and detection
    point, enforced by the differential suites.  One deliberate
    structural deviation, invisible to behaviour: the step-poll hook is
    captured once per activation instead of read per block — the hook is
    installed by a supervisor before the run and cannot change
    underneath a running domain.

    A compiled activation runs until it returns or raises; there is no
    exit to another engine.  The compiled code operates directly on
    {!Machine}'s unboxed frame and calls externs through {!Vm}'s call
    protocol, so nothing a run can do demands one — fault activation
    included, whose only VM-visible effect is an extern recording its
    cost.

    Boxing discipline (the whole point of the exercise): a closure that
    {e returns} an [int64] or [float], or passes one to another closure,
    boxes it — so every hot instruction shape compiles to a {e single}
    closure whose body reads operands inline through {!Machine}'s
    [\[@inline\]] register primitives and feeds them straight into the
    consuming primitive.  The generic arms serve every other shape
    through [cstate -> int64] evaluator closures and address-taking
    write and access closures, which box: besides the cold shapes
    ([Lfun_name], whose address is assigned per VM on first use, and
    [Lglobal], a name the program does not declare), that is every fused
    indexed access whose base or index is not a register, such as any
    index into a global array (ROADMAP item 5). *)

open Dpmr_ir
open Dpmr_memsim
module L = Lower

(* Process-wide tier telemetry: compilations, each counted at a
   function's first entry by any driver, watched baselines included.
   An atomic, not a per-VM field, so [cstate] stays free of accounting.
   No [lfunc] crosses domains (a lowering is built and run on one), so
   [code_for]'s unsynchronized check-then-set compiles each lowered
   function once; the count follows the number of lowerings, which
   grows with the engine's per-domain experiment contexts. *)
let promotions = Atomic.make 0
let n_promotions () = Atomic.get promotions

(** Everything the compiled code needs from the VM.  A functor parameter
    rather than a direct [Vm] dependency because [Vm] sits {e above}
    this module: it instantiates {!Make} after its recursive execution
    knot and ties the result into [Vm.tier_enter]. *)
module type RUNTIME = sig
  type t

  val cost : t -> int ref
  val budget : t -> int
  val mem : t -> Mem.t
  val alloc : t -> Allocator.t
  val sp : t -> int64
  val set_sp : t -> int64 -> unit
  val global_address : t -> string -> int64
  val fun_address : t -> string -> int64

  val call_lfun : t -> L.lfunc -> L.value array -> L.value option
  (** call a lowered function (the callee enters the compiled tier at its
      first block) *)

  val call_extern_slot : t -> int -> string -> L.value array -> L.value option
  (** direct extern call through the per-VM slot cache, resolved in
      {!Vm}'s order (slot, extern table, unknown) *)

  val indirect_name : t -> int64 -> string
  (** reverse function-address lookup; faults on unmapped addresses
      {e before} argument evaluation, like the reference engine *)

  val call_named : t -> string -> L.value array -> L.value option
  (** indirect-call completion: defined function, extern, or unknown *)
end

module Make (R : RUNTIME) = struct
  (* Per-activation execution state: one record allocated per driver
     call, threading everything hot through a single immediate argument.
     [mem]/[alloc]/[budget] are stable for the duration of a run (only
     [Vm.resume] swaps spaces, never mid-run), so they are hoisted out
     of the VM record once here. *)
  type cstate = {
    rt : R.t;
    cost : int ref;  (* the VM's own counter, captured once *)
    budget : int;
    poll : (unit -> unit) option;
    mem : Mem.t;
    alloc : Allocator.t;
    fr : Machine.lframe;
    mutable cret : L.value option;  (* return value, set by [Lret] steps *)
  }

  type step = cstate -> unit

  (* ---- generic operand evaluators (the generic arms' fallback) ----- *)

  (* The reference engine's [as_int (eval o)], [as_float (eval o)] and
     [eval o], with the same error texts; notably [Lfun_name] assigns
     the function its address {e before} a type-mismatch error
     surfaces. *)

  let op_int (o : L.lop) : cstate -> int64 =
    match o with
    | L.Lreg r -> fun st -> Machine.reg_int st.fr r
    | L.Lconst (L.I x) -> fun _ -> x
    | L.Lconst (L.F _) ->
        fun _ -> raise (Machine.Vm_error "expected int/pointer value")
    | L.Lglobal g -> fun st -> R.global_address st.rt g
    | L.Lfun_name f -> fun st -> R.fun_address st.rt f

  let op_float (o : L.lop) : cstate -> float =
    match o with
    | L.Lreg r -> fun st -> Machine.reg_float st.fr r
    | L.Lconst (L.F x) -> fun _ -> x
    | L.Lconst (L.I _) -> fun _ -> raise (Machine.Vm_error "expected float value")
    | L.Lglobal g ->
        fun st ->
          ignore (R.global_address st.rt g);
          raise (Machine.Vm_error "expected float value")
    | L.Lfun_name f ->
        fun st ->
          ignore (R.fun_address st.rt f);
          raise (Machine.Vm_error "expected float value")

  let op_val (o : L.lop) : cstate -> L.value =
    match o with
    | L.Lreg r ->
        fun st ->
          let fr = st.fr in
          if Bytes.unsafe_get fr.Machine.tags r = '\000' then
            L.I (Machine.reg_get fr.Machine.bits (r lsl 3))
          else L.F (Int64.float_of_bits (Machine.reg_get fr.Machine.bits (r lsl 3)))
    | L.Lconst v -> fun _ -> v
    | L.Lglobal g -> fun st -> L.I (R.global_address st.rt g)
    | L.Lfun_name f -> fun st -> L.I (R.fun_address st.rt f)

  (* A copy into register [r] (moves and selects): register sources move
     bits and tag without boxing; everything else goes through boxed
     evaluation. *)
  let cop_copy (r : int) (o : L.lop) : step =
    match o with
    | L.Lreg s ->
        fun st ->
          let fr = st.fr in
          Bytes.unsafe_set fr.Machine.tags r (Bytes.unsafe_get fr.Machine.tags s);
          Machine.reg_set fr.Machine.bits (r lsl 3)
            (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lconst v -> fun st -> Machine.set_value st.fr r v
    | L.Lglobal g -> fun st -> Machine.set_int st.fr r (R.global_address st.rt g)
    | L.Lfun_name f -> fun st -> Machine.set_int st.fr r (R.fun_address st.rt f)

  (* The write half of a store whose address is already known — the
     generic fallback shared by [Lstore]/[Lstore_idx]/[Lstore_fld].
     Hot shapes are specialized in [cinst] to keep the address unboxed. *)
  let gwrite k (v : L.lop) : cstate -> int64 -> unit =
    match k with
    | L.Kint n -> (
        match v with
        | L.Lreg s ->
            fun st addr ->
              let fr = st.fr in
              if Bytes.unsafe_get fr.Machine.tags s <> '\000' then
                raise (Machine.Vm_error "store: float value into int slot");
              Mem.write_int st.mem addr n
                (Machine.reg_get fr.Machine.bits (s lsl 3))
        | L.Lconst (L.I y) -> fun st addr -> Mem.write_int st.mem addr n y
        | L.Lconst (L.F _) ->
            fun _ _ ->
              raise (Machine.Vm_error "store: float value into int slot")
        | L.Lglobal g ->
            fun st addr -> Mem.write_int st.mem addr n (R.global_address st.rt g)
        | L.Lfun_name f ->
            fun st addr -> Mem.write_int st.mem addr n (R.fun_address st.rt f))
    | L.Kfloat ->
        (* a float slot takes any value's bits verbatim: the reference
           engine writes [F f] as [bits_of_float f] and [I y] as [y]
           reinterpreted, exactly the operand's 64 bits either way *)
        let bits : cstate -> int64 =
          match v with
          | L.Lreg s -> fun st -> Machine.reg_get st.fr.Machine.bits (s lsl 3)
          | L.Lconst (L.I y) -> fun _ -> y
          | L.Lconst (L.F x) ->
              let b = Int64.bits_of_float x in
              fun _ -> b
          | L.Lglobal g -> fun st -> R.global_address st.rt g
          | L.Lfun_name f -> fun st -> R.fun_address st.rt f
        in
        fun st addr -> Mem.write_int st.mem addr 8 (bits st)
    | L.Kbad ->
        let ev = op_val v in
        fun st _ ->
          ignore (ev st);
          raise (Machine.Vm_error "store of non-scalar")

  (* ---- per-instruction compilation --------------------------------- *)

  (* Each arm executes one lowered instruction as the reference engine
     executes its source: same charge points, and the same
     right-to-left operand order for binary ops (the reference engine's
     curried application evaluates its arguments right-to-left); fused
     accesses evaluate base, then index.  The first arms of each
     group are the hot operand shapes, compiled to a single closure with
     all reads inline; the last is the generic fallback. *)
  let cinst (inst : L.linst) : step =
    match inst with
    | L.Lmalloc (r, esz, n) ->
        let en = op_int n in
        fun st ->
          let count = Int64.to_int (en st) in
          if count < 0 then raise (Machine.Vm_error "malloc: negative count");
          let bytes = count * esz in
          st.cost := !(st.cost) + Cost.malloc_cost bytes;
          Machine.set_int st.fr r (Allocator.malloc st.alloc bytes)
    | L.Lalloca (r, esz, algn, n) ->
        let en = op_int n in
        fun st ->
          let count = Int64.to_int (en st) in
          let bytes = max 1 (count * esz) in
          st.cost := !(st.cost) + Cost.alloca_cost bytes;
          let addr =
            Int64.of_int (Layout.round_up (Int64.to_int (R.sp st.rt)) algn)
          in
          Mem.map_range st.mem addr bytes Mem.Fill_garbage;
          R.set_sp st.rt (Int64.add addr (Int64.of_int bytes));
          Machine.set_int st.fr r addr
    | L.Lfree p ->
        let ep = op_int p in
        fun st ->
          st.cost := !(st.cost) + Cost.free_cost;
          let addr = ep st in
          if not (Int64.equal addr 0L) then Allocator.free st.alloc addr
    (* loads *)
    | L.Lload (r, L.Kint n, L.Lreg p) ->
        fun st ->
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          let fr = st.fr in
          Machine.set_int fr r (Mem.read_int st.mem (Machine.reg_int fr p) n)
    | L.Lload (r, L.Kfloat, L.Lreg p) ->
        (* the reference engine's [F (read_f64 addr)], held as bits: the
           raw 8 loaded bytes *)
        fun st ->
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          let fr = st.fr in
          let addr = Machine.reg_int fr p in
          Bytes.unsafe_set fr.Machine.tags r '\001';
          Machine.reg_set fr.Machine.bits (r lsl 3) (Mem.read_int st.mem addr 8)
    | L.Lload (r, k, p) -> (
        let ep = op_int p in
        match k with
        | L.Kint n ->
            fun st ->
              st.cost :=
                !(st.cost) + Cost.load
                + Cost.heap_pressure (Allocator.live_bytes st.alloc);
              Machine.set_int st.fr r (Mem.read_int st.mem (ep st) n)
        | L.Kfloat ->
            fun st ->
              st.cost :=
                !(st.cost) + Cost.load
                + Cost.heap_pressure (Allocator.live_bytes st.alloc);
              let addr = ep st in
              let fr = st.fr in
              Bytes.unsafe_set fr.Machine.tags r '\001';
              Machine.reg_set fr.Machine.bits (r lsl 3)
                (Mem.read_int st.mem addr 8)
        | L.Kbad ->
            fun st ->
              st.cost :=
                !(st.cost) + Cost.load
                + Cost.heap_pressure (Allocator.live_bytes st.alloc);
              ignore (ep st);
              raise (Machine.Vm_error "load of non-scalar"))
    (* stores *)
    | L.Lstore (L.Kint n, L.Lreg s, L.Lreg p) ->
        fun st ->
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          let fr = st.fr in
          let addr = Machine.reg_int fr p in
          if Bytes.unsafe_get fr.Machine.tags s <> '\000' then
            raise (Machine.Vm_error "store: float value into int slot");
          Mem.write_int st.mem addr n (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lstore (L.Kint n, L.Lconst (L.I y), L.Lreg p) ->
        fun st ->
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Mem.write_int st.mem (Machine.reg_int st.fr p) n y
    | L.Lstore (L.Kfloat, L.Lreg s, L.Lreg p) ->
        fun st ->
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          let fr = st.fr in
          let addr = Machine.reg_int fr p in
          Mem.write_int st.mem addr 8 (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lstore (k, v, p) ->
        let ep = op_int p in
        let wr = gwrite k v in
        fun st ->
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          wr st (ep st)
    (* address computation *)
    | L.Lgep_field (r, off, L.Lreg p) ->
        let o64 = Int64.of_int off in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          Machine.set_int fr r (Int64.add (Machine.reg_int fr p) o64)
    | L.Lgep_field (r, off, p) ->
        let ep = op_int p in
        let o64 = Int64.of_int off in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          Machine.set_int st.fr r (Int64.add (ep st) o64)
    | L.Lgep_index (r, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          Machine.set_int fr r (Int64.add base (Int64.mul idx e64))
    | L.Lgep_index (r, esz, L.Lreg p, L.Lconst (L.I idx)) ->
        let off = Int64.mul idx (Int64.of_int esz) in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          Machine.set_int fr r (Int64.add (Machine.reg_int fr p) off)
    | L.Lgep_index (r, esz, p, i) ->
        let ep = op_int p and ei = op_int i in
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let base = ep st in
          let idx = ei st in
          Machine.set_int st.fr r (Int64.add base (Int64.mul idx e64))
    | L.Lmov (r, L.Lreg s) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let fr = st.fr in
          Bytes.unsafe_set fr.Machine.tags r (Bytes.unsafe_get fr.Machine.tags s);
          Machine.reg_set fr.Machine.bits (r lsl 3)
            (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lmov (r, p) ->
        let cp = cop_copy r p in
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          cp st
    (* integer ALU: right-to-left operand order, like the reference engine *)
    | L.Lbinop (r, op, w, L.Lreg ra, L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.alu;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          let va = Machine.reg_int fr ra in
          Machine.set_int fr r (Machine.exec_binop op w va vb)
    | L.Lbinop (r, op, w, L.Lreg ra, L.Lconst (L.I kb)) ->
        fun st ->
          st.cost := !(st.cost) + Cost.alu;
          let fr = st.fr in
          let va = Machine.reg_int fr ra in
          Machine.set_int fr r (Machine.exec_binop op w va kb)
    | L.Lbinop (r, op, w, L.Lconst (L.I ka), L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.alu;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          Machine.set_int fr r (Machine.exec_binop op w ka vb)
    | L.Lbinop (r, op, w, a, b) ->
        let eb = op_int b and ea = op_int a in
        fun st ->
          st.cost := !(st.cost) + Cost.alu;
          let vb = eb st in
          let va = ea st in
          Machine.set_int st.fr r (Machine.exec_binop op w va vb)
    | L.Lfbinop (r, op, L.Lreg ra, L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.falu;
          let fr = st.fr in
          let y = Machine.reg_float fr rb in
          let x = Machine.reg_float fr ra in
          let v =
            match op with
            | Inst.Fadd -> x +. y
            | Inst.Fsub -> x -. y
            | Inst.Fmul -> x *. y
            | Inst.Fdiv -> x /. y
          in
          Machine.set_float fr r v
    | L.Lfbinop (r, op, L.Lreg ra, L.Lconst (L.F y)) ->
        fun st ->
          st.cost := !(st.cost) + Cost.falu;
          let fr = st.fr in
          let x = Machine.reg_float fr ra in
          let v =
            match op with
            | Inst.Fadd -> x +. y
            | Inst.Fsub -> x -. y
            | Inst.Fmul -> x *. y
            | Inst.Fdiv -> x /. y
          in
          Machine.set_float fr r v
    | L.Lfbinop (r, op, a, b) ->
        let eb = op_float b and ea = op_float a in
        fun st ->
          st.cost := !(st.cost) + Cost.falu;
          let y = eb st in
          let x = ea st in
          let v =
            match op with
            | Inst.Fadd -> x +. y
            | Inst.Fsub -> x -. y
            | Inst.Fmul -> x *. y
            | Inst.Fdiv -> x /. y
          in
          Machine.set_float st.fr r v
    | L.Licmp (r, c, w, L.Lreg ra, L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          let va = Machine.reg_int fr ra in
          Machine.set_int fr r (Machine.exec_icmp c w va vb)
    | L.Licmp (r, c, w, L.Lreg ra, L.Lconst (L.I kb)) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let va = Machine.reg_int fr ra in
          Machine.set_int fr r (Machine.exec_icmp c w va kb)
    | L.Licmp (r, c, w, L.Lconst (L.I ka), L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          Machine.set_int fr r (Machine.exec_icmp c w ka vb)
    | L.Licmp (r, c, w, a, b) ->
        let eb = op_int b and ea = op_int a in
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let vb = eb st in
          let va = ea st in
          Machine.set_int st.fr r (Machine.exec_icmp c w va vb)
    | L.Lfcmp (r, c, L.Lreg ra, L.Lreg rb) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_float fr rb in
          let va = Machine.reg_float fr ra in
          Machine.set_int fr r (Machine.exec_fcmp c va vb)
    | L.Lfcmp (r, c, a, b) ->
        let eb = op_float b and ea = op_float a in
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let vb = eb st in
          let va = ea st in
          Machine.set_int st.fr r (Machine.exec_fcmp c va vb)
    (* casts *)
    | L.Lint_cast (r, w, signed, src_w, L.Lreg s) ->
        if signed then fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let fr = st.fr in
          Machine.set_int fr r
            (Lower.truncate_to w (Lower.sign_extend src_w (Machine.reg_int fr s)))
        else fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let fr = st.fr in
          Machine.set_int fr r (Lower.truncate_to w (Machine.reg_int fr s))
    | L.Lint_cast (r, w, signed, src_w, v) ->
        let ev = op_int v in
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let x = ev st in
          let x = if signed then Lower.sign_extend src_w x else x in
          Machine.set_int st.fr r (Lower.truncate_to w x)
    | L.Lf_to_i (r, w, L.Lreg s) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let fr = st.fr in
          Machine.set_int fr r
            (Lower.truncate_to w (Int64.of_float (Machine.reg_float fr s)))
    | L.Lf_to_i (r, w, v) ->
        let ev = op_float v in
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          Machine.set_int st.fr r (Lower.truncate_to w (Int64.of_float (ev st)))
    | L.Li_to_f (r, src_w, L.Lreg s) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          let fr = st.fr in
          Machine.set_float fr r
            (Int64.to_float (Lower.sign_extend src_w (Machine.reg_int fr s)))
    | L.Li_to_f (r, src_w, v) ->
        let ev = op_int v in
        fun st ->
          st.cost := !(st.cost) + Cost.cast;
          Machine.set_float st.fr r (Int64.to_float (Lower.sign_extend src_w (ev st)))
    | L.Lselect (r, c, a, b) -> (
        let ca = cop_copy r a and cb = cop_copy r b in
        match c with
        | L.Lreg rc ->
            fun st ->
              st.cost := !(st.cost) + Cost.select;
              if Int64.equal (Machine.reg_int st.fr rc) 0L then cb st else ca st
        | _ ->
            let ec = op_int c in
            fun st ->
              st.cost := !(st.cost) + Cost.select;
              if Int64.equal (ec st) 0L then cb st else ca st)
    (* calls *)
    | L.Lcall (r, callee, args, cost) -> (
        let eas = Array.map op_val args in
        let nargs = Array.length eas in
        let eval_args st =
          let argv = Array.make nargs (L.I 0L) in
          for i = 0 to nargs - 1 do
            argv.(i) <- (Array.unsafe_get eas i) st
          done;
          argv
        in
        match callee with
        | L.Lfun lf ->
            fun st ->
              st.cost := !(st.cost) + cost;
              let argv = eval_args st in
              Machine.finish_call st.fr r lf.L.lname (R.call_lfun st.rt lf argv)
        | L.Lextern (slot, name) ->
            fun st ->
              st.cost := !(st.cost) + cost;
              let argv = eval_args st in
              Machine.finish_call st.fr r name (R.call_extern_slot st.rt slot name argv)
        | L.Lindirect o ->
            let eo = op_int o in
            fun st ->
              st.cost := !(st.cost) + cost;
              let addr = eo st in
              let name = R.indirect_name st.rt addr in
              let argv = eval_args st in
              Machine.finish_call st.fr r name (R.call_named st.rt name argv))
    | L.Lpoison e -> fun _ -> raise e
    (* fused superinstructions: gep charge, address compute, address-
       register write, access charge, access — the order of the
       two-instruction originals *)
    | L.Lload_idx (r, L.Kint n, rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Machine.set_int fr r (Mem.read_int st.mem addr n)
    | L.Lload_idx (r, L.Kfloat, rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Bytes.unsafe_set fr.Machine.tags r '\001';
          Machine.reg_set fr.Machine.bits (r lsl 3) (Mem.read_int st.mem addr 8)
    | L.Lload_idx (r, k, rp, esz, p, i) -> (
        let ep = op_int p and ei = op_int i in
        let e64 = Int64.of_int esz in
        let access : cstate -> int64 -> unit =
          match k with
          | L.Kint n ->
              fun st addr -> Machine.set_int st.fr r (Mem.read_int st.mem addr n)
          | L.Kfloat ->
              fun st addr ->
                let fr = st.fr in
                Bytes.unsafe_set fr.Machine.tags r '\001';
                Machine.reg_set fr.Machine.bits (r lsl 3)
                  (Mem.read_int st.mem addr 8)
          | L.Kbad ->
              fun _ _ -> raise (Machine.Vm_error "load of non-scalar")
        in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let base = ep st in
          let idx = ei st in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int st.fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          access st addr)
    | L.Lload_fld (r, L.Kint n, rp, off, L.Lreg p) ->
        let o64 = Int64.of_int off in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let addr = Int64.add (Machine.reg_int fr p) o64 in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Machine.set_int fr r (Mem.read_int st.mem addr n)
    | L.Lload_fld (r, L.Kfloat, rp, off, L.Lreg p) ->
        let o64 = Int64.of_int off in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let addr = Int64.add (Machine.reg_int fr p) o64 in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Bytes.unsafe_set fr.Machine.tags r '\001';
          Machine.reg_set fr.Machine.bits (r lsl 3) (Mem.read_int st.mem addr 8)
    | L.Lload_fld (r, k, rp, off, p) -> (
        let ep = op_int p in
        let o64 = Int64.of_int off in
        let access : cstate -> int64 -> unit =
          match k with
          | L.Kint n ->
              fun st addr -> Machine.set_int st.fr r (Mem.read_int st.mem addr n)
          | L.Kfloat ->
              fun st addr ->
                let fr = st.fr in
                Bytes.unsafe_set fr.Machine.tags r '\001';
                Machine.reg_set fr.Machine.bits (r lsl 3)
                  (Mem.read_int st.mem addr 8)
          | L.Kbad ->
              fun _ _ -> raise (Machine.Vm_error "load of non-scalar")
        in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let addr = Int64.add (ep st) o64 in
          Machine.set_int st.fr rp addr;
          st.cost :=
            !(st.cost) + Cost.load
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          access st addr)
    | L.Lstore_idx (L.Kint n, L.Lreg s, rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          if Bytes.unsafe_get fr.Machine.tags s <> '\000' then
            raise (Machine.Vm_error "store: float value into int slot");
          Mem.write_int st.mem addr n (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lstore_idx (L.Kint n, L.Lconst (L.I y), rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          Mem.write_int st.mem addr n y
    | L.Lstore_idx (k, v, rp, esz, p, i) ->
        let ep = op_int p and ei = op_int i in
        let e64 = Int64.of_int esz in
        let wr = gwrite k v in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let base = ep st in
          let idx = ei st in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int st.fr rp addr;
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          wr st addr
    | L.Lstore_fld (L.Kint n, L.Lreg s, rp, off, L.Lreg p) ->
        let o64 = Int64.of_int off in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let fr = st.fr in
          let addr = Int64.add (Machine.reg_int fr p) o64 in
          Machine.set_int fr rp addr;
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          if Bytes.unsafe_get fr.Machine.tags s <> '\000' then
            raise (Machine.Vm_error "store: float value into int slot");
          Mem.write_int st.mem addr n (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lstore_fld (k, v, rp, off, p) ->
        let ep = op_int p in
        let o64 = Int64.of_int off in
        let wr = gwrite k v in
        fun st ->
          st.cost := !(st.cost) + Cost.gep;
          let addr = Int64.add (ep st) o64 in
          Machine.set_int st.fr rp addr;
          st.cost :=
            !(st.cost) + Cost.store
            + Cost.heap_pressure (Allocator.live_bytes st.alloc);
          wr st addr

  (* ---- terminators ------------------------------------------------- *)

  let resolve = function L.Bidx i -> i | L.Braise e -> raise e

  (* A terminator closure returns the next block index, or -1 for return
     (value parked in [cret]).  An [int] return stays immediate — the one
     closure-to-closure value the hot path is allowed to pass. *)
  let cterm (term : L.lterm) : cstate -> int =
    match term with
    | L.Lbr (L.Bidx i) ->
        fun st ->
          st.cost := !(st.cost) + Cost.branch;
          i
    | L.Lbr (L.Braise e) ->
        fun st ->
          st.cost := !(st.cost) + Cost.branch;
          raise e
    | L.Lcbr (L.Lreg r, L.Bidx i1, L.Bidx i2) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cond_branch;
          if Int64.equal (Machine.reg_int st.fr r) 0L then i2 else i1
    | L.Lcbr (c, t1, t2) ->
        let ec = op_int c in
        fun st ->
          st.cost := !(st.cost) + Cost.cond_branch;
          resolve (if Int64.equal (ec st) 0L then t2 else t1)
    | L.Lcmpbr (r, c, w, L.Lreg ra, L.Lreg rb, L.Bidx i1, L.Bidx i2) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          let va = Machine.reg_int fr ra in
          let v = Machine.exec_icmp c w va vb in
          Machine.set_int fr r v;
          st.cost := !(st.cost) + Cost.cond_branch;
          if Int64.equal v 0L then i2 else i1
    | L.Lcmpbr (r, c, w, L.Lreg ra, L.Lconst (L.I kb), L.Bidx i1, L.Bidx i2) ->
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let fr = st.fr in
          let va = Machine.reg_int fr ra in
          let v = Machine.exec_icmp c w va kb in
          Machine.set_int fr r v;
          st.cost := !(st.cost) + Cost.cond_branch;
          if Int64.equal v 0L then i2 else i1
    | L.Lcmpbr (r, c, w, a, b, t1, t2) ->
        let eb = op_int b and ea = op_int a in
        fun st ->
          st.cost := !(st.cost) + Cost.cmp;
          let vb = eb st in
          let va = ea st in
          let v = Machine.exec_icmp c w va vb in
          Machine.set_int st.fr r v;
          st.cost := !(st.cost) + Cost.cond_branch;
          resolve (if Int64.equal v 0L then t2 else t1)
    | L.Lret None ->
        fun st ->
          st.cost := !(st.cost) + Cost.ret;
          st.cret <- None;
          -1
    | L.Lret (Some o) ->
        let eo = op_val o in
        fun st ->
          st.cost := !(st.cost) + Cost.ret;
          st.cret <- Some (eo st);
          -1
    | L.Lunreachable msg -> fun _ -> raise (Machine.Vm_error msg)

  (* ---- superinstruction fusion ------------------------------------ *)

  (* Fuse a straight-line run of steps into a right-leaning chain, up to
     three steps per node: each node is one closure invocation for three
     instructions, and the tail call into the next node keeps the chain
     allocation-free at run time. *)
  let rec fuse (steps : step array) i (term : cstate -> int) : cstate -> int =
    let n = Array.length steps in
    if i >= n then term
    else if n - i >= 3 then begin
      let a = steps.(i) and b = steps.(i + 1) and c = steps.(i + 2) in
      let rest = fuse steps (i + 3) term in
      fun st ->
        a st;
        b st;
        c st;
        rest st
    end
    else if n - i = 2 then begin
      let a = steps.(i) and b = steps.(i + 1) in
      fun st ->
        a st;
        b st;
        term st
    end
    else begin
      let a = steps.(i) in
      fun st ->
        a st;
        term st
    end

  (* ---- blocks: steps, terminator and fused chain ------------------- *)

  (* Every block entry runs this first, fused or step by step.  It
     replicates the reference engine's [Vm.check_budget] exactly — budget
     test, then the captured step-poll hook — so timeouts and cooperative
     cancellation fire at the same block boundaries on both engines
     (cancellation leaves compiled code by unwinding: there is no state
     to save). *)
  let[@inline] prologue st =
    if !(st.cost) > st.budget then raise Machine.Timeout_exceeded;
    match st.poll with None -> () | Some f -> f ()

  (* A block's steps, one per lowered instruction (so a step index is a
     {!Lower.diff_limits} position), and its terminator.  The fused
     chain is built from these very closures. *)
  type block = { steps : step array; term : cstate -> int }

  (* A function's code, indexed like [lf.lblocks] and filled per block at
     that block's first entry: [parts] holds [unbuilt] until then, and
     each [fused] slot a stub that builds the block's chain, stores it
     over itself and runs it, so the drive loop pays nothing after a
     block's first entry.  Both fills are unsynchronized check-then-sets:
     a block built twice builds alike, and either copy serves. *)
  type code = {
    lf : L.lfunc;
    parts : block array;
    fused : (cstate -> int) array;
  }

  let unbuilt = { steps = [||]; term = (fun _ -> assert false) }

  let part c idx =
    let p = c.parts.(idx) in
    if p != unbuilt then p
    else begin
      let b = c.lf.L.lblocks.(idx) in
      let p = { steps = Array.map cinst b.L.linsts; term = cterm b.L.lterm } in
      c.parts.(idx) <- p;
      p
    end

  let stub c idx st =
    let p = part c idx in
    let body = fuse p.steps 0 p.term in
    let f st =
      prologue st;
      body st
    in
    c.fused.(idx) <- f;
    f st

  (* The code hangs off the shared [lfunc] through [Lower]'s extensible
     attachment slot, so the lowering stays compiler-agnostic and
     recompilation after [Make] is re-applied (it never is in
     production: [Vm] applies it once) would just shadow the
     constructor.  Created at the function's first entry by any driver,
     which counts one promotion. *)
  type L.tier3 += Compiled of code

  let code_for (lf : L.lfunc) =
    match lf.L.ltier3 with
    | Compiled c -> c
    | _ ->
        let n = Array.length lf.L.lblocks in
        let c =
          { lf; parts = Array.make n unbuilt; fused = Array.make n (fun _ -> -1) }
        in
        for idx = 0 to n - 1 do
          c.fused.(idx) <- stub c idx
        done;
        lf.L.ltier3 <- Compiled c;
        Atomic.incr promotions;
        c

  (* ---- drivers ----------------------------------------------------- *)

  let state rt fr =
    {
      rt;
      cost = R.cost rt;
      budget = R.budget rt;
      poll = Machine.poll_hook ();
      mem = R.mem rt;
      alloc = R.alloc rt;
      fr;
      cret = None;
    }

  (* Run fused blocks from block [idx] until one returns. *)
  let rec drive fused st idx =
    let n = (Array.unsafe_get fused idx) st in
    if n < 0 then st.cret else drive fused st n

  (* Block [idx] step by step from step [i0], with [hook idx i] before
     step [i] and before the terminator ([i] = the step count).  Returns
     the terminator's successor. *)
  let step_block c st idx i0 hook =
    let p = part c idx in
    let steps = p.steps in
    let n = Array.length steps in
    for i = i0 to n - 1 do
      hook idx i;
      (Array.unsafe_get steps i) st
    done;
    hook idx n;
    p.term st

  (** A fresh activation: fused from its entry block until it returns. *)
  let enter (rt : R.t) (lf : L.lfunc) (fr : Machine.lframe) : L.value option =
    let c = code_for lf in
    drive c.fused (state rt fr) 0

  (** A resumed activation: block [idx] step by step from step [i0], then
      fused from the next block on.  The partial block runs no prologue:
      its capture lies past it, so the from-zero run tests the budget
      next at the following block boundary. *)
  let resume (rt : R.t) (lf : L.lfunc) (fr : Machine.lframe) idx i0 :
      L.value option =
    let c = code_for lf in
    let st = state rt fr in
    let n = step_block c st idx i0 (fun _ _ -> ()) in
    if n < 0 then st.cret else drive c.fused st n

  (** A watched activation: every block step by step from the entry
      block, with [hook] run before each step and each terminator. *)
  let watch (rt : R.t) (lf : L.lfunc) (fr : Machine.lframe) hook :
      L.value option =
    let c = code_for lf in
    let st = state rt fr in
    let rec go idx =
      prologue st;
      let n = step_block c st idx 0 hook in
      if n < 0 then st.cret else go n
    in
    go 0
end
