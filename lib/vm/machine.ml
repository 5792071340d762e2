(** Execution substrate shared by the VM's two engines.

    The run-classification exceptions, the cooperative step-poll hook,
    the register file of a lowered activation and the scalar-op
    semantics serve both {!Vm} (the reference engine, the call protocol,
    snapshots) and the compiled tier ({!Compile}), which must sit
    {e below} {!Vm} in the module graph — [Vm] instantiates the
    compiler's runtime functor after its recursive execution knot.  So
    they live here, once; [Vm] opens this module and re-exports the
    exceptions so its public interface is unchanged. *)

open Dpmr_ir
open Types
open Inst

exception Exit_program of int
exception Dpmr_detected of string
exception Timeout_exceeded
exception Vm_error of string
exception Cancelled of string

(* Cooperative cancellation: a per-domain hook polled once per basic
   block by every engine (at the same point the cost budget is checked).
   A supervisor installs a closure that raises {!Cancelled} when its
   wall-clock deadline passes; [None] — the common case — costs one
   domain-local load and a branch per block.  Deliberately domain-local
   rather than a VM field: the hook must reach VMs created arbitrarily
   deep inside a job (transform → run), which the wrapping supervisor
   never sees. *)
let poll_key : (unit -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_poll_hook f = Domain.DLS.set poll_key f
let poll_hook () = Domain.DLS.get poll_key

(* The register file of a lowered activation: a flat byte buffer, 8
   bytes per register, plus one tag byte per register ('\000' int, '\001' float).
   Keeping scalars out of [value] boxes is the difference between ~5
   words of allocation per executed ALU instruction and none: results
   flow between [Bytes] 64-bit primitives unboxed, and [I]/[F] boxes are
   built only at call, return and extern boundaries.  Register indices
   come from {!Lower} and are always < [lnregs], so the unchecked
   accessors are in range. *)

external reg_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external reg_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type lframe = { bits : Bytes.t; tags : Bytes.t; lentry_sp : int }

(* same poison as the boxed register file had: an uninitialized register
   reads back as the int 0xDEADBEEF *)
let make_lframe nregs sp =
  let bits = Bytes.create (nregs lsl 3) in
  let tags = Bytes.make nregs '\000' in
  for r = 0 to nregs - 1 do
    reg_set bits (r lsl 3) 0xDEADBEEFL
  done;
  { bits; tags; lentry_sp = sp }

let[@inline] reg_int fr r =
  if Bytes.unsafe_get fr.tags r <> '\000' then
    raise (Vm_error "expected int/pointer value");
  reg_get fr.bits (r lsl 3)

let[@inline] reg_float fr r =
  if Bytes.unsafe_get fr.tags r = '\000' then
    raise (Vm_error "expected float value");
  Int64.float_of_bits (reg_get fr.bits (r lsl 3))

let[@inline] set_int fr r x =
  Bytes.unsafe_set fr.tags r '\000';
  reg_set fr.bits (r lsl 3) x

let[@inline] set_float fr r x =
  Bytes.unsafe_set fr.tags r '\001';
  reg_set fr.bits (r lsl 3) (Int64.bits_of_float x)

let[@inline] set_value fr r = function
  | Lower.I x -> set_int fr r x
  | Lower.F x -> set_float fr r x

(* A call's result into its destination register, if it has one. *)
let finish_call fr r name (res : Lower.value option) =
  match (r, res) with
  | Some r, Some v -> set_value fr r v
  | Some _, None ->
      raise (Vm_error (Printf.sprintf "%s returned void, result expected" name))
  | None, _ -> ()

(* Scalar operation semantics, shared verbatim by the reference engine
   and the compiled tier (division by zero, shift masking, signedness
   handling must agree bit-for-bit). *)

(* [Int64.unsigned_div] and [unsigned_rem], inlined: the stdlib's are
   calls, which box their result *)
let[@inline] unsigned_div n d =
  if d < 0L then if Int64.sub n Int64.min_int < Int64.sub d Int64.min_int then 0L else 1L
  else
    let q = Int64.shift_left (Int64.div (Int64.shift_right_logical n 1) d) 1 in
    let r = Int64.sub n (Int64.mul q d) in
    if Int64.sub r Int64.min_int >= Int64.sub d Int64.min_int then Int64.succ q else q

let[@inline] unsigned_rem n d = Int64.sub n (Int64.mul (unsigned_div n d) d)

let[@inline] exec_binop op w a b =
  let sa = Lower.sign_extend w a and sb = Lower.sign_extend w b in
  let r =
    match op with
    | Add -> Int64.add a b
    | Sub -> Int64.sub a b
    | Mul -> Int64.mul a b
    | Sdiv ->
        if Int64.equal sb 0L then raise (Vm_error "division by zero")
        else Int64.div sa sb
    | Srem ->
        if Int64.equal sb 0L then raise (Vm_error "division by zero")
        else Int64.rem sa sb
    | Udiv ->
        if Int64.equal b 0L then raise (Vm_error "division by zero")
        else unsigned_div a b
    | Urem ->
        if Int64.equal b 0L then raise (Vm_error "division by zero")
        else unsigned_rem a b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
    | Shl -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
    | Lshr -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))
    | Ashr -> Int64.shift_right sa (Int64.to_int (Int64.logand b 63L))
  in
  Lower.truncate_to w r

let[@inline] exec_icmp c w a b =
  let sa = Lower.sign_extend w a and sb = Lower.sign_extend w b in
  let r =
    match c with
    | Ieq -> Int64.equal a b
    | Ine -> not (Int64.equal a b)
    | Islt -> Int64.compare sa sb < 0
    | Isle -> Int64.compare sa sb <= 0
    | Isgt -> Int64.compare sa sb > 0
    | Isge -> Int64.compare sa sb >= 0
    | Iult -> Int64.unsigned_compare a b < 0
    | Iule -> Int64.unsigned_compare a b <= 0
    | Iugt -> Int64.unsigned_compare a b > 0
    | Iuge -> Int64.unsigned_compare a b >= 0
  in
  if r then 1L else 0L

(* float-typed, so the comparisons compile to float compares, not
   boxed polymorphic ones *)
let[@inline] exec_fcmp c (a : float) (b : float) =
  let r =
    match c with
    | Foeq -> a = b
    | Fone -> a <> b
    | Folt -> a < b
    | Fole -> a <= b
    | Fogt -> a > b
    | Foge -> a >= b
  in
  if r then 1L else 0L

let unknown_function name =
  raise (Vm_error (Printf.sprintf "call to unknown function %S" name))
