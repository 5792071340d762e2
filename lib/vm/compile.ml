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
    boxes it — so every step is a {e single} closure whose body reads
    its operands inline through {!Machine}'s [\[@inline\]] register
    primitives and feeds them straight into the consuming primitive,
    boxing nothing.  The shapes the workloads run bind their
    instruction's static fields when the step is built: the operator,
    the compare relation, a width as a shift and a mask (a load's byte
    mask; a store gets a step per width it runs at), and any constant
    operand or address.  Every other shape reads its operands through
    [ival], [fval], [copy], [get] and [put], inlined matches on the
    operand's shape whose arms all stay unboxed, so a cold shape costs
    a match at run time, never an allocation.  A step allocates only
    in four places: a call (the argument array, the boxed values and
    the result option), [Allocator]'s bookkeeping in [malloc] and
    [free], a page mapped or copied on write (the page itself), and an
    access that straddles a page boundary ([Mem]'s byte-at-a-time
    path). *)

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

(* ---- widths and compare relations, bound when a step is built ---- *)

(* A width as a captured shift and mask: [sx (shift w) v] is
   [Lower.sign_extend w v] and [Int64.logand v (mask w)] is
   [Lower.truncate_to w v]. *)
let shift w = 64 - Types.bits_of_width w
let mask w = Lower.truncate_to w (-1L)
let[@inline] sx sh v = Int64.shift_right (Int64.shift_left v sh) sh

(* the mask of an [n]-byte access *)
let byte_mask n = if n >= 8 then -1L else Int64.pred (Int64.shift_left 1L (8 * n))

(* [i * esz] fits an int, so a constant index is a field offset *)
let fits_int i esz =
  let o = Int64.mul i (Int64.of_int esz) in
  Int64.equal (Int64.of_int (Int64.to_int o)) o

(* An integer compare is one of three relations or its negation: ne, ge
   and gt negate eq, lt and le.  [relation c] is (relation, signed,
   negated).  Eq compares the raw operands, lt and le their keys. *)
type rel = Eq | Lt | Le

let relation : Inst.icond -> rel * bool * bool = function
  | Inst.Ieq -> (Eq, false, false)
  | Inst.Ine -> (Eq, false, true)
  | Inst.Islt -> (Lt, true, false)
  | Inst.Isge -> (Lt, true, true)
  | Inst.Isle -> (Le, true, false)
  | Inst.Isgt -> (Le, true, true)
  | Inst.Iult -> (Lt, false, false)
  | Inst.Iuge -> (Lt, false, true)
  | Inst.Iule -> (Le, false, false)
  | Inst.Iugt -> (Le, false, true)

(* [a c b] holds iff [b (mirror c) a] does *)
let mirror : Inst.icond -> Inst.icond = function
  | Inst.Islt -> Inst.Isgt
  | Inst.Isgt -> Inst.Islt
  | Inst.Isle -> Inst.Isge
  | Inst.Isge -> Inst.Isle
  | Inst.Iult -> Inst.Iugt
  | Inst.Iugt -> Inst.Iult
  | Inst.Iule -> Inst.Iuge
  | Inst.Iuge -> Inst.Iule
  | (Inst.Ieq | Inst.Ine) as c -> c

(* A key turns a signed compare at width [w], or an unsigned one, into a
   signed 64-bit compare: [key ksh bias v] sign-extends by [ksh] and
   flips the top bit by [bias], which maps unsigned order onto signed
   order. *)
let keying signed w = if signed then (shift w, 0L) else (0, Int64.min_int)
let[@inline] key ksh bias v = Int64.logxor (sx ksh v) bias

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
  val sp : t -> int
  val set_sp : t -> int -> unit
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

  let[@inline] charge st c = st.cost := !(st.cost) + c

  (* loads and stores also pay the heap-pressure surcharge *)
  let[@inline] charge_mem st c =
    st.cost := !(st.cost) + c + Cost.heap_pressure (Allocator.live_bytes st.alloc)

  (* ---- operands decoded at run time (the cold shapes) -------------- *)

  (* The reference engine's [as_int (eval o)] and [as_float (eval o)],
     with the same error texts; notably [Lfun_name] assigns
     the function its address {e before} a type-mismatch error
     surfaces.  They match on the operand's shape at run time, so they
     serve only the shapes no arm binds.  Inlined, with every arm
     arithmetic (hence [Int64.add _ 0L]) or raising, their result stays
     unboxed: a cold shape costs a match, never an allocation. *)

  let[@inline] ival st (o : L.lop) =
    match o with
    | L.Lreg r -> Machine.reg_int st.fr r
    | L.Lconst (L.I x) -> Int64.add x 0L
    | L.Lconst (L.F _) -> raise (Machine.Vm_error "expected int/pointer value")
    | L.Lglobal g -> Int64.add (R.global_address st.rt g) 0L
    | L.Lfun_name f -> Int64.add (R.fun_address st.rt f) 0L

  let[@inline] fval st (o : L.lop) =
    match o with
    | L.Lreg r -> Machine.reg_float st.fr r
    | L.Lconst (L.F x) -> Int64.float_of_bits (Int64.bits_of_float x)
    | L.Lconst (L.I _) -> raise (Machine.Vm_error "expected float value")
    | L.Lglobal g ->
        ignore (R.global_address st.rt g);
        raise (Machine.Vm_error "expected float value")
    | L.Lfun_name f ->
        ignore (R.fun_address st.rt f);
        raise (Machine.Vm_error "expected float value")

  (* A call argument or return value: the call protocol takes boxed
     [L.value]s, so this evaluator closure boxes anyway. *)
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

  (* A copy of [o] into register [r] (moves and selects), bits and tag. *)
  let[@inline] copy st r (o : L.lop) =
    let fr = st.fr in
    match o with
    | L.Lreg s ->
        Bytes.unsafe_set fr.Machine.tags r (Bytes.unsafe_get fr.Machine.tags s);
        Machine.reg_set fr.Machine.bits (r lsl 3)
          (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lconst v -> Machine.set_value fr r v
    | L.Lglobal g -> Machine.set_int fr r (R.global_address st.rt g)
    | L.Lfun_name f -> Machine.set_int fr r (R.fun_address st.rt f)

  (* register [s] as the value of a store into an int slot *)
  let[@inline] int_src fr s =
    if Bytes.unsafe_get fr.Machine.tags s <> '\000' then
      raise (Machine.Vm_error "store: float value into int slot");
    Machine.reg_get fr.Machine.bits (s lsl 3)

  (* The read half of a load of kind [k] into register [r]: a float is
     the reference engine's [F (read_f64 addr)] held as bits, the raw 8
     loaded bytes. *)
  let[@inline] get st r (k : L.lkind) addr =
    match k with
    | L.Kint n -> Machine.set_int st.fr r (Mem.read_int st.mem addr n)
    | L.Kfloat ->
        let fr = st.fr in
        let x = Mem.read_int st.mem addr 8 in
        Bytes.unsafe_set fr.Machine.tags r '\001';
        Machine.reg_set fr.Machine.bits (r lsl 3) x
    | L.Kbad -> raise (Machine.Vm_error "load of non-scalar")

  (* The write half of a store of kind [k] and value [v].  A float slot
     takes any value's bits verbatim: the reference engine writes [F f]
     as [bits_of_float f] and [I y] as [y] reinterpreted, exactly the
     operand's 64 bits either way. *)
  let[@inline] put st (k : L.lkind) (v : L.lop) addr =
    match k with
    | L.Kint n ->
        let x =
          match v with
          | L.Lreg s -> int_src st.fr s
          | L.Lconst (L.I y) -> Int64.add y 0L
          | L.Lconst (L.F _) ->
              raise (Machine.Vm_error "store: float value into int slot")
          | L.Lglobal g -> Int64.add (R.global_address st.rt g) 0L
          | L.Lfun_name f -> Int64.add (R.fun_address st.rt f) 0L
        in
        Mem.write_int st.mem addr n x
    | L.Kfloat ->
        let x =
          match v with
          | L.Lreg s -> Machine.reg_get st.fr.Machine.bits (s lsl 3)
          | L.Lconst (L.I y) -> Int64.add y 0L
          | L.Lconst (L.F f) -> Int64.bits_of_float f
          | L.Lglobal g -> Int64.add (R.global_address st.rt g) 0L
          | L.Lfun_name f -> Int64.add (R.fun_address st.rt f) 0L
        in
        Mem.write_int st.mem addr 8 x
    | L.Kbad ->
        (match v with
        | L.Lglobal g -> ignore (R.global_address st.rt g)
        | L.Lfun_name f -> ignore (R.fun_address st.rt f)
        | L.Lreg _ | L.Lconst _ -> ());
        raise (Machine.Vm_error "store of non-scalar")

  (* Integer stores bind their width as one step per width the
     workloads store at each shape: 8 and 1 through a register address,
     4 at a constant address, 8 into a field.  These kernels are inlined
     into each step with a literal [n], which folds [Mem.write_int]'s
     width tests away; any other width is a step that tests it at run
     time. *)

  let[@inline] store_rr st n s p =
    charge_mem st Cost.store;
    let fr = st.fr in
    let addr = Machine.reg_int fr p in
    Mem.write_int st.mem addr n (int_src fr s)

  let[@inline] store_rk st n s addr =
    charge_mem st Cost.store;
    Mem.write_int st.mem addr n (int_src st.fr s)

  let[@inline] store_fld st n s rp o64 p =
    charge st Cost.gep;
    let fr = st.fr in
    let addr = Int64.add (Machine.reg_int fr p) o64 in
    Machine.set_int fr rp addr;
    charge_mem st Cost.store;
    Mem.write_int st.mem addr n (int_src fr s)

  (* ---- per-instruction compilation --------------------------------- *)

  (* Each arm executes one lowered instruction as the reference engine
     executes its source: same charge points, and the same
     right-to-left operand order for binary ops (the reference engine's
     curried application evaluates its arguments right-to-left); fused
     accesses evaluate base, then index.  The first arms of each group
     bind the hot shapes, with the instruction's operator, condition
     and width, into one closure whose reads are inline; the last
     decodes every other shape at run time. *)

  (* Integer ALU: one step per operator and operand shape the workloads
     run, the width bound as a shift and a mask.  A constant cannot
     raise, so a commutative operator's constant moves right.  A
     constant zero divisor takes the decoded arm, which raises after
     reading both operands, like the reference engine. *)
  let cbinop r op w (a : L.lop) (b : L.lop) : step =
    let a, b =
      match (op, a) with
      | (Inst.Add | Inst.Mul | Inst.And | Inst.Or | Inst.Xor), L.Lconst (L.I _) -> (b, a)
      | _ -> (a, b)
    in
    let sh = shift w and m = mask w in
    match (op, a, b) with
    | Inst.Add, L.Lreg ra, L.Lreg rb ->
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          Machine.set_int fr r (Int64.logand (Int64.add (Machine.reg_int fr ra) vb) m)
    | Inst.Add, L.Lreg ra, L.Lconst (L.I kb) ->
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          Machine.set_int fr r (Int64.logand (Int64.add (Machine.reg_int fr ra) kb) m)
    | Inst.Sub, L.Lreg ra, L.Lreg rb ->
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          Machine.set_int fr r (Int64.logand (Int64.sub (Machine.reg_int fr ra) vb) m)
    | Inst.Sub, L.Lreg ra, L.Lconst (L.I kb) ->
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          Machine.set_int fr r (Int64.logand (Int64.sub (Machine.reg_int fr ra) kb) m)
    | Inst.Sub, L.Lconst (L.I ka), L.Lreg rb ->
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          Machine.set_int fr r (Int64.logand (Int64.sub ka (Machine.reg_int fr rb)) m)
    | Inst.Mul, L.Lreg ra, L.Lconst (L.I kb) ->
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          Machine.set_int fr r (Int64.logand (Int64.mul (Machine.reg_int fr ra) kb) m)
    | Inst.And, L.Lreg ra, L.Lreg rb ->
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          Machine.set_int fr r (Int64.logand (Machine.reg_int fr ra) (Int64.logand vb m))
    | Inst.Shl, L.Lconst (L.I ka), L.Lreg rb ->
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          let s = Int64.to_int (Int64.logand (Machine.reg_int fr rb) 63L) in
          Machine.set_int fr r (Int64.logand (Int64.shift_left ka s) m)
    | Inst.Lshr, L.Lreg ra, L.Lconst (L.I kb) ->
        let s = Int64.to_int (Int64.logand kb 63L) in
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          Machine.set_int fr r
            (Int64.logand (Int64.shift_right_logical (Machine.reg_int fr ra) s) m)
    | Inst.Srem, L.Lreg ra, L.Lconst (L.I kb) when not (Int64.equal (sx sh kb) 0L) ->
        let sb = sx sh kb in
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          Machine.set_int fr r
            (Int64.logand (Int64.rem (sx sh (Machine.reg_int fr ra)) sb) m)
    | Inst.Urem, L.Lreg ra, L.Lconst (L.I kb) when not (Int64.equal kb 0L) ->
        fun st ->
          charge st Cost.alu;
          let fr = st.fr in
          Machine.set_int fr r
            (Int64.logand (Machine.unsigned_rem (Machine.reg_int fr ra) kb) m)
    | _ ->
        fun st ->
          charge st Cost.alu;
          let vb = ival st b in
          let va = ival st a in
          Machine.set_int st.fr r (Machine.exec_binop op w va vb)

  (* An integer compare binds its relation, keys and results (see
     {!relation}); a constant on the left mirrors to the right. *)
  let rec cicmp r c w (a : L.lop) (b : L.lop) : step =
    let rel, signed, neg = relation c in
    let t1, t0 = if neg then (0L, 1L) else (1L, 0L) in
    match (rel, a, b) with
    | _, L.Lconst (L.I _), L.Lreg _ -> cicmp r (mirror c) w b a
    | Eq, L.Lreg ra, L.Lreg rb ->
        fun st ->
          charge st Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          Machine.set_int fr r (if Int64.equal (Machine.reg_int fr ra) vb then t1 else t0)
    | Lt, L.Lreg ra, L.Lconst (L.I kb) ->
        let ksh, bias = keying signed w in
        let y = key ksh bias kb in
        fun st ->
          charge st Cost.cmp;
          let fr = st.fr in
          Machine.set_int fr r (if key ksh bias (Machine.reg_int fr ra) < y then t1 else t0)
    | _ ->
        fun st ->
          charge st Cost.cmp;
          let vb = ival st b in
          let va = ival st a in
          Machine.set_int st.fr r (Machine.exec_icmp c w va vb)

  let cfbinop r op (a : L.lop) (b : L.lop) : step =
    match (op, a, b) with
    | Inst.Fadd, L.Lreg ra, L.Lreg rb ->
        fun st ->
          charge st Cost.falu;
          let fr = st.fr in
          let y = Machine.reg_float fr rb in
          Machine.set_float fr r (Machine.reg_float fr ra +. y)
    | Inst.Fsub, L.Lreg ra, L.Lreg rb ->
        fun st ->
          charge st Cost.falu;
          let fr = st.fr in
          let y = Machine.reg_float fr rb in
          Machine.set_float fr r (Machine.reg_float fr ra -. y)
    | Inst.Fmul, L.Lreg ra, L.Lreg rb ->
        fun st ->
          charge st Cost.falu;
          let fr = st.fr in
          let y = Machine.reg_float fr rb in
          Machine.set_float fr r (Machine.reg_float fr ra *. y)
    | Inst.Fmul, L.Lreg ra, L.Lconst (L.F y) ->
        fun st ->
          charge st Cost.falu;
          let fr = st.fr in
          Machine.set_float fr r (Machine.reg_float fr ra *. y)
    | Inst.Fdiv, L.Lreg ra, L.Lconst (L.F y) ->
        fun st ->
          charge st Cost.falu;
          let fr = st.fr in
          Machine.set_float fr r (Machine.reg_float fr ra /. y)
    | _ ->
        fun st ->
          charge st Cost.falu;
          let y = fval st b in
          let x = fval st a in
          let v =
            match op with
            | Inst.Fadd -> x +. y
            | Inst.Fsub -> x -. y
            | Inst.Fmul -> x *. y
            | Inst.Fdiv -> x /. y
          in
          Machine.set_float st.fr r v

  let rec cinst (inst : L.linst) : step =
    match inst with
    | L.Lmalloc (r, esz, n) ->
        fun st ->
          let count = Int64.to_int (ival st n) in
          if count < 0 then raise (Machine.Vm_error "malloc: negative count");
          let bytes = count * esz in
          charge st (Cost.malloc_cost bytes);
          Machine.set_int st.fr r (Allocator.malloc st.alloc bytes)
    | L.Lalloca (r, esz, algn, n) ->
        fun st ->
          let count = Int64.to_int (ival st n) in
          let bytes = max 1 (count * esz) in
          charge st (Cost.alloca_cost bytes);
          let addr = Layout.round_up (R.sp st.rt) algn in
          Mem.map_range st.mem (Int64.of_int addr) bytes Mem.Fill_garbage;
          R.set_sp st.rt (addr + bytes);
          Machine.set_int st.fr r (Int64.of_int addr)
    | L.Lfree p ->
        fun st ->
          charge st Cost.free_cost;
          let addr = ival st p in
          if not (Int64.equal addr 0L) then Allocator.free st.alloc addr
    (* loads: an integer width binds as a mask *)
    | L.Lload (r, L.Kint n, L.Lreg p) ->
        let m = byte_mask n in
        fun st ->
          charge_mem st Cost.load;
          let fr = st.fr in
          Machine.set_int fr r (Mem.read_masked st.mem (Machine.reg_int fr p) n m)
    | L.Lload (r, L.Kint n, L.Lconst (L.I addr)) ->
        let m = byte_mask n in
        fun st ->
          charge_mem st Cost.load;
          Machine.set_int st.fr r (Mem.read_masked st.mem addr n m)
    | L.Lload (r, L.Kfloat, L.Lreg p) ->
        fun st ->
          charge_mem st Cost.load;
          let fr = st.fr in
          let addr = Machine.reg_int fr p in
          Bytes.unsafe_set fr.Machine.tags r '\001';
          Machine.reg_set fr.Machine.bits (r lsl 3) (Mem.read_int st.mem addr 8)
    | L.Lload (r, k, p) ->
        fun st ->
          charge_mem st Cost.load;
          get st r k (ival st p)
    (* stores: each width the workloads store binds a step *)
    | L.Lstore (L.Kint n, L.Lreg s, L.Lreg p) -> (
        match n with
        | 8 -> fun st -> store_rr st 8 s p
        | 1 -> fun st -> store_rr st 1 s p
        | n -> fun st -> store_rr st n s p)
    | L.Lstore (L.Kint n, L.Lreg s, L.Lconst (L.I addr)) -> (
        match n with
        | 4 -> fun st -> store_rk st 4 s addr
        | n -> fun st -> store_rk st n s addr)
    | L.Lstore (L.Kint n, L.Lconst (L.I y), L.Lreg p) ->
        fun st ->
          charge_mem st Cost.store;
          Mem.write_int st.mem (Machine.reg_int st.fr p) n y
    | L.Lstore (L.Kfloat, L.Lreg s, L.Lreg p) ->
        fun st ->
          charge_mem st Cost.store;
          let fr = st.fr in
          let addr = Machine.reg_int fr p in
          Mem.write_int st.mem addr 8 (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lstore (k, v, p) ->
        fun st ->
          charge_mem st Cost.store;
          put st k v (ival st p)
    (* address computation *)
    | L.Lgep_field (r, off, L.Lreg p) ->
        let o64 = Int64.of_int off in
        fun st ->
          charge st Cost.gep;
          let fr = st.fr in
          Machine.set_int fr r (Int64.add (Machine.reg_int fr p) o64)
    | L.Lgep_field (r, off, p) ->
        let o64 = Int64.of_int off in
        fun st ->
          charge st Cost.gep;
          Machine.set_int st.fr r (Int64.add (ival st p) o64)
    | L.Lgep_index (r, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          charge st Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          Machine.set_int fr r (Int64.add base (Int64.mul idx e64))
    | L.Lgep_index (r, esz, L.Lreg p, L.Lconst (L.I idx)) ->
        let off = Int64.mul idx (Int64.of_int esz) in
        fun st ->
          charge st Cost.gep;
          let fr = st.fr in
          Machine.set_int fr r (Int64.add (Machine.reg_int fr p) off)
    | L.Lgep_index (r, esz, p, i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          charge st Cost.gep;
          let base = ival st p in
          let idx = ival st i in
          Machine.set_int st.fr r (Int64.add base (Int64.mul idx e64))
    | L.Lmov (r, L.Lreg s) ->
        fun st ->
          charge st Cost.cast;
          let fr = st.fr in
          Bytes.unsafe_set fr.Machine.tags r (Bytes.unsafe_get fr.Machine.tags s);
          Machine.reg_set fr.Machine.bits (r lsl 3)
            (Machine.reg_get fr.Machine.bits (s lsl 3))
    | L.Lmov (r, L.Lconst v) ->
        let tag, bits =
          match v with L.I x -> ('\000', x) | L.F x -> ('\001', Int64.bits_of_float x)
        in
        fun st ->
          charge st Cost.cast;
          let fr = st.fr in
          Bytes.unsafe_set fr.Machine.tags r tag;
          Machine.reg_set fr.Machine.bits (r lsl 3) bits
    | L.Lmov (r, p) ->
        fun st ->
          charge st Cost.cast;
          copy st r p
    | L.Lbinop (r, op, w, a, b) -> cbinop r op w a b
    | L.Lfbinop (r, op, a, b) -> cfbinop r op a b
    | L.Licmp (r, c, w, a, b) -> cicmp r c w a b
    | L.Lfcmp (r, Inst.Foeq, L.Lreg ra, L.Lreg rb) ->
        fun st ->
          charge st Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_float fr rb in
          Machine.set_int fr r (if Machine.reg_float fr ra = vb then 1L else 0L)
    | L.Lfcmp (r, c, a, b) ->
        fun st ->
          charge st Cost.cmp;
          let vb = fval st b in
          let va = fval st a in
          Machine.set_int st.fr r (Machine.exec_fcmp c va vb)
    (* casts: widths bind as shifts and masks; an unsigned cast
       sign-extends by nothing *)
    | L.Lint_cast (r, w, signed, src_w, L.Lreg s) ->
        let sh = if signed then shift src_w else 0 and m = mask w in
        fun st ->
          charge st Cost.cast;
          let fr = st.fr in
          Machine.set_int fr r (Int64.logand (sx sh (Machine.reg_int fr s)) m)
    | L.Lint_cast (r, w, signed, src_w, v) ->
        let sh = if signed then shift src_w else 0 and m = mask w in
        fun st ->
          charge st Cost.cast;
          Machine.set_int st.fr r (Int64.logand (sx sh (ival st v)) m)
    | L.Lf_to_i (r, w, v) ->
        let m = mask w in
        fun st ->
          charge st Cost.cast;
          Machine.set_int st.fr r (Int64.logand (Int64.of_float (fval st v)) m)
    | L.Li_to_f (r, src_w, v) ->
        let sh = shift src_w in
        fun st ->
          charge st Cost.cast;
          Machine.set_float st.fr r (Int64.to_float (sx sh (ival st v)))
    | L.Lselect (r, c, a, b) ->
        fun st ->
          charge st Cost.select;
          if Int64.equal (ival st c) 0L then copy st r b else copy st r a
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
              charge st cost;
              let argv = eval_args st in
              Machine.finish_call st.fr r lf.L.lname (R.call_lfun st.rt lf argv)
        | L.Lextern (slot, name) ->
            fun st ->
              charge st cost;
              let argv = eval_args st in
              Machine.finish_call st.fr r name (R.call_extern_slot st.rt slot name argv)
        | L.Lindirect o ->
            fun st ->
              charge st cost;
              let addr = ival st o in
              let name = R.indirect_name st.rt addr in
              let argv = eval_args st in
              Machine.finish_call st.fr r name (R.call_named st.rt name argv))
    | L.Lpoison e -> fun _ -> raise e
    (* fused superinstructions: gep charge, address compute, address-
       register write, access charge, access — the order of the
       two-instruction originals.  A constant index into a register base
       is a field access. *)
    | L.Lload_idx (r, L.Kint n, rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz and m = byte_mask n in
        fun st ->
          charge st Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          charge_mem st Cost.load;
          Machine.set_int fr r (Mem.read_masked st.mem addr n m)
    | L.Lload_idx (r, L.Kfloat, rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          charge st Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          charge_mem st Cost.load;
          Bytes.unsafe_set fr.Machine.tags r '\001';
          Machine.reg_set fr.Machine.bits (r lsl 3) (Mem.read_int st.mem addr 8)
    | L.Lload_idx (r, k, rp, esz, (L.Lreg _ as p), L.Lconst (L.I i)) when fits_int i esz ->
        cinst (L.Lload_fld (r, k, rp, Int64.to_int (Int64.mul i (Int64.of_int esz)), p))
    | L.Lload_idx (r, k, rp, esz, p, i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          charge st Cost.gep;
          let base = ival st p in
          let idx = ival st i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int st.fr rp addr;
          charge_mem st Cost.load;
          get st r k addr
    | L.Lload_fld (r, L.Kint n, rp, off, L.Lreg p) ->
        let o64 = Int64.of_int off and m = byte_mask n in
        fun st ->
          charge st Cost.gep;
          let fr = st.fr in
          let addr = Int64.add (Machine.reg_int fr p) o64 in
          Machine.set_int fr rp addr;
          charge_mem st Cost.load;
          Machine.set_int fr r (Mem.read_masked st.mem addr n m)
    | L.Lload_fld (r, L.Kfloat, rp, off, L.Lreg p) ->
        let o64 = Int64.of_int off in
        fun st ->
          charge st Cost.gep;
          let fr = st.fr in
          let addr = Int64.add (Machine.reg_int fr p) o64 in
          Machine.set_int fr rp addr;
          charge_mem st Cost.load;
          Bytes.unsafe_set fr.Machine.tags r '\001';
          Machine.reg_set fr.Machine.bits (r lsl 3) (Mem.read_int st.mem addr 8)
    | L.Lload_fld (r, k, rp, off, p) ->
        let o64 = Int64.of_int off in
        fun st ->
          charge st Cost.gep;
          let addr = Int64.add (ival st p) o64 in
          Machine.set_int st.fr rp addr;
          charge_mem st Cost.load;
          get st r k addr
    | L.Lstore_idx (L.Kint n, L.Lreg s, rp, esz, L.Lreg p, L.Lreg i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          charge st Cost.gep;
          let fr = st.fr in
          let base = Machine.reg_int fr p in
          let idx = Machine.reg_int fr i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int fr rp addr;
          charge_mem st Cost.store;
          Mem.write_int st.mem addr n (int_src fr s)
    | L.Lstore_idx (k, v, rp, esz, (L.Lreg _ as p), L.Lconst (L.I i)) when fits_int i esz ->
        cinst (L.Lstore_fld (k, v, rp, Int64.to_int (Int64.mul i (Int64.of_int esz)), p))
    | L.Lstore_idx (k, v, rp, esz, p, i) ->
        let e64 = Int64.of_int esz in
        fun st ->
          charge st Cost.gep;
          let base = ival st p in
          let idx = ival st i in
          let addr = Int64.add base (Int64.mul idx e64) in
          Machine.set_int st.fr rp addr;
          charge_mem st Cost.store;
          put st k v addr
    | L.Lstore_fld (L.Kint n, L.Lreg s, rp, off, L.Lreg p) -> (
        let o64 = Int64.of_int off in
        match n with
        | 8 -> fun st -> store_fld st 8 s rp o64 p
        | n -> fun st -> store_fld st n s rp o64 p)
    | L.Lstore_fld (k, v, rp, off, p) ->
        let o64 = Int64.of_int off in
        fun st ->
          charge st Cost.gep;
          let addr = Int64.add (ival st p) o64 in
          Machine.set_int st.fr rp addr;
          charge_mem st Cost.store;
          put st k v addr

  (* ---- terminators ------------------------------------------------- *)

  let resolve = function L.Bidx i -> i | L.Braise e -> raise e

  (* the compare's value [v] into [r], then the branch to [j] *)
  let[@inline] branch st r v j =
    Machine.set_int st.fr r v;
    charge st Cost.cond_branch;
    j

  (* A fused compare-and-branch binds its relation like {!cicmp}, and
     the value and successor of each outcome: [(v1, j1)] when the
     relation holds, [(v0, j0)] when it does not. *)
  let rec ccmpbr r c w (a : L.lop) (b : L.lop) t1 t2 : cstate -> int =
    let rel, signed, neg = relation c in
    let ksh, bias = keying signed w in
    let outcomes i1 i2 = if neg then (0L, i2, 1L, i1) else (1L, i1, 0L, i2) in
    match (rel, a, b, t1, t2) with
    | _, L.Lconst (L.I _), L.Lreg _, _, _ -> ccmpbr r (mirror c) w b a t1 t2
    | Eq, L.Lreg ra, L.Lreg rb, L.Bidx i1, L.Bidx i2 ->
        let v1, j1, v0, j0 = outcomes i1 i2 in
        fun st ->
          charge st Cost.cmp;
          let fr = st.fr in
          let vb = Machine.reg_int fr rb in
          if Int64.equal (Machine.reg_int fr ra) vb then branch st r v1 j1
          else branch st r v0 j0
    | Eq, L.Lreg ra, L.Lconst (L.I kb), L.Bidx i1, L.Bidx i2 ->
        let v1, j1, v0, j0 = outcomes i1 i2 in
        fun st ->
          charge st Cost.cmp;
          if Int64.equal (Machine.reg_int st.fr ra) kb then branch st r v1 j1
          else branch st r v0 j0
    | Lt, L.Lreg ra, L.Lreg rb, L.Bidx i1, L.Bidx i2 ->
        let v1, j1, v0, j0 = outcomes i1 i2 in
        fun st ->
          charge st Cost.cmp;
          let fr = st.fr in
          let y = key ksh bias (Machine.reg_int fr rb) in
          if key ksh bias (Machine.reg_int fr ra) < y then branch st r v1 j1
          else branch st r v0 j0
    | Lt, L.Lreg ra, L.Lconst (L.I kb), L.Bidx i1, L.Bidx i2 ->
        let v1, j1, v0, j0 = outcomes i1 i2 in
        let y = key ksh bias kb in
        fun st ->
          charge st Cost.cmp;
          if key ksh bias (Machine.reg_int st.fr ra) < y then branch st r v1 j1
          else branch st r v0 j0
    | Le, L.Lreg ra, L.Lconst (L.I kb), L.Bidx i1, L.Bidx i2 ->
        let v1, j1, v0, j0 = outcomes i1 i2 in
        let y = key ksh bias kb in
        fun st ->
          charge st Cost.cmp;
          if key ksh bias (Machine.reg_int st.fr ra) <= y then branch st r v1 j1
          else branch st r v0 j0
    | _ ->
        fun st ->
          charge st Cost.cmp;
          let vb = ival st b in
          let va = ival st a in
          let v = Machine.exec_icmp c w va vb in
          Machine.set_int st.fr r v;
          charge st Cost.cond_branch;
          resolve (if Int64.equal v 0L then t2 else t1)

  (* A terminator closure returns the next block index, or -1 for return
     (value parked in [cret]).  An [int] return stays immediate — the one
     closure-to-closure value the hot path is allowed to pass. *)
  let cterm (term : L.lterm) : cstate -> int =
    match term with
    | L.Lbr (L.Bidx i) ->
        fun st ->
          charge st Cost.branch;
          i
    | L.Lbr (L.Braise e) ->
        fun st ->
          charge st Cost.branch;
          raise e
    | L.Lcbr (L.Lreg r, L.Bidx i1, L.Bidx i2) ->
        fun st ->
          charge st Cost.cond_branch;
          if Int64.equal (Machine.reg_int st.fr r) 0L then i2 else i1
    | L.Lcbr (c, t1, t2) ->
        fun st ->
          charge st Cost.cond_branch;
          resolve (if Int64.equal (ival st c) 0L then t2 else t1)
    | L.Lcmpbr (r, c, w, a, b, t1, t2) -> ccmpbr r c w a b t1 t2
    | L.Lret None ->
        fun st ->
          charge st Cost.ret;
          st.cret <- None;
          -1
    | L.Lret (Some o) ->
        let eo = op_val o in
        fun st ->
          charge st Cost.ret;
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
