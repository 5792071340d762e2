(** External function wrappers (§2.8, §3.1, §4.3).

    For every external function [e] the transformed program calls
    [e_efw], whose responsibilities are (1) the original behaviour, and
    (2) the application-visible DPMR behaviour a transformed [e] would
    have: replica (and shadow) allocation, mimicked stores, load checks,
    and the rvSop/rvRopPtr return channel.  The wrappers are the
    "external code support library" of §2.8, implemented as runtime
    (OCaml) functions — exactly the role libDpmrSupport plays for the C
    tool. *)

open Dpmr_memsim
module Vm = Dpmr_vm.Vm
module Extern = Dpmr_vm.Extern

module Trace = Dpmr_trace.Trace

let detect what = raise (Vm.Dpmr_detected ("efw:" ^ what))

(* A wrapper detection knows the exact divergent byte; hand it to any
   installed trace sink before raising. *)
let detect_at vm what ~app ~off =
  (match vm.Vm.trace with
  | Some s ->
      Trace.emit_detect s ~cost:!(vm.Vm.cost) ~what:("efw:" ^ what) ~addr:app ~off
  | None -> ());
  detect what

(* --- argument stream: wrappers consume the γ()-expanded argument list --- *)

type stream = { mutable rest : Vm.value list; mode : Config.mode }

let mk mode args = { rest = args; mode }

let next s =
  match s.rest with
  | [] -> raise (Vm.Vm_error "wrapper: missing argument")
  | x :: xs ->
      s.rest <- xs;
      x

let scalar s = Vm.as_int (next s)

(** Consume a pointer parameter group: (app, rop[, nsop]). *)
let pointer s =
  let app = Vm.as_int (next s) in
  let rop = Vm.as_int (next s) in
  let nsop = match s.mode with Config.Sds -> Vm.as_int (next s) | Config.Mds -> 0L in
  (app, rop, nsop)

(** Consume the return-value channel parameter (π()). *)
let rv_channel s = Vm.as_int (next s)

(** Store the return ROP and, under SDS, the NSOP through the channel. *)
let set_rv vm s chan ~rop ~nsop =
  Mem.write_int vm.Vm.mem chan 8 rop;
  match s.mode with
  | Config.Sds -> Mem.write_int vm.Vm.mem (Int64.add chan 8L) 8 nsop
  | Config.Mds -> ()

(* --- load-check helpers --- *)

(** Compare [n] bytes of application memory at [a] with replica memory at
    [b]; a mismatch is a DPMR detection. *)
let check_bytes vm what a b n =
  Vm.add_cost vm ((n / 4) + 2);
  let rec go i =
    if i < n then
      let x = Mem.read_u8 vm.Vm.mem (Int64.add a (Int64.of_int i)) in
      let y = Mem.read_u8 vm.Vm.mem (Int64.add b (Int64.of_int i)) in
      if x <> y then detect_at vm what ~app:a ~off:i else go (i + 1)
  in
  go 0;
  match vm.Vm.trace with
  | Some s -> Trace.emit_compare s ~cost:!(vm.Vm.cost) ~app:a ~rep:b ~len:n
  | None -> ()

(** Check the NUL-terminated string at [a] against its replica (the
    Figure 2.11 [assert(strcmp(src, src_r) == 0)]). *)
let check_cstr vm what a a_r =
  let n = Extern.cstring_len vm a in
  check_bytes vm what a a_r (n + 1)

(** Copy [n] application bytes to replica memory (a mimicked store: under
    both designs non-pointer bytes are stored identically; under SDS even
    pointer bytes are identical). *)
let mirror vm ~app ~rep n =
  Vm.add_cost vm ((n / 4) + 2);
  (match vm.Vm.trace with
  | Some s -> Trace.emit_mirror s ~cost:!(vm.Vm.cost) ~app ~rep ~len:n
  | None -> ());
  Mem.move vm.Vm.mem ~dst:rep ~src:app n

(* ------------------------------------------------------------------ *)
(* Individual wrappers                                                 *)
(* ------------------------------------------------------------------ *)

let w_print_int _mode vm args =
  Extern.out vm (Int64.to_string (Vm.as_int (List.hd args)));
  None

let w_print_float _mode vm args =
  Extern.out vm (Printf.sprintf "%.6g" (Vm.as_float (List.hd args)));
  None

let w_putchar _mode vm args =
  Extern.out vm (String.make 1 (Char.chr (Int64.to_int (Vm.as_int (List.hd args)) land 0xFF)));
  None

let w_print_newline _mode vm _args =
  Extern.out vm "\n";
  None

let w_exit _mode _vm args = raise (Vm.Exit_program (Int64.to_int (Vm.as_int (List.hd args))))
let w_abort _mode _vm _args = raise (Vm.Exit_program 134)

let w_print_str mode vm args =
  let s = mk mode args in
  let p, p_r, _ = pointer s in
  check_cstr vm "print_str" p p_r;
  Extern.out vm (Extern.read_cstring vm p);
  None

let w_strlen mode vm args =
  let s = mk mode args in
  let p, p_r, _ = pointer s in
  check_cstr vm "strlen" p p_r;
  Some (Vm.I (Int64.of_int (Extern.cstring_len vm p)))

(* Figure 2.11's wrapper, faithfully: check src, run strcpy, mimic the
   write to dest_r, return the ROP/NSOP of dest through rvSop. *)
let w_strcpy mode vm args =
  let s = mk mode args in
  let chan = rv_channel s in
  let dest, dest_r, dest_s = pointer s in
  let src, src_r, _src_s = pointer s in
  check_cstr vm "strcpy:src" src src_r;
  let len = Extern.impl_strcpy vm ~dst:dest ~src in
  mirror vm ~app:dest ~rep:dest_r (len + 1);
  set_rv vm s chan ~rop:dest_r ~nsop:dest_s;
  Some (Vm.I dest)

(* strcmp emulates the comparison itself so it knows exactly how many
   bytes of each input were read (§3.1.5) — there is no guarantee the
   strings are NUL-terminated past the first difference. *)
let w_strcmp mode vm args =
  let s = mk mode args in
  let a, a_r, _ = pointer s in
  let b, b_r, _ = pointer s in
  let r, read = Extern.impl_strcmp vm a b in
  check_bytes vm "strcmp:a" a a_r read;
  check_bytes vm "strcmp:b" b b_r read;
  Some (Vm.I (Int64.logand (Int64.of_int r) 0xFFFFFFFFL))

(* atoi compares only as much of the input string as its parse consumed
   (§3.1.5's atof discussion). *)
let w_atoi mode vm args =
  let s = mk mode args in
  let p, p_r, _ = pointer s in
  let v, consumed = Extern.impl_atoi vm p in
  check_bytes vm "atoi" p p_r consumed;
  Some (Vm.I (Int64.logand v 0xFFFFFFFFL))

(** Unpack the memcpy/memmove sdwSize parameter: (shadow elem size << 16)
    | elem size, or 0 when the copied data has no shadow. *)
let sdw_scale packed n =
  if Int64.equal packed 0L then 0
  else
    let ssz = Int64.to_int (Int64.shift_right_logical packed 16) in
    let esz = Int64.to_int (Int64.logand packed 0xFFFFL) in
    if esz = 0 then 0 else n / esz * ssz

let w_memcpy mode vm args =
  let s = mk mode args in
  let packed = match mode with Config.Sds -> scalar s | Config.Mds -> 0L in
  let chan = rv_channel s in
  let dest, dest_r, dest_s = pointer s in
  let src, src_r, src_s = pointer s in
  let n = Int64.to_int (scalar s) in
  (match mode with
  | Config.Sds ->
      (* under SDS all bytes are comparable, pointers included *)
      check_bytes vm "memcpy:src" src src_r n;
      Extern.impl_memcpy vm ~dst:dest ~src n;
      mirror vm ~app:dest ~rep:dest_r n;
      let sn = sdw_scale packed n in
      if sn > 0 then Mem.move vm.Vm.mem ~dst:dest_s ~src:src_s sn
  | Config.Mds ->
      (* replica mirrors replica: pointer cells hold ROPs there (§4.3) *)
      Extern.impl_memcpy vm ~dst:dest ~src n;
      Extern.impl_memcpy vm ~dst:dest_r ~src:src_r n);
  set_rv vm s chan ~rop:dest_r ~nsop:dest_s;
  Some (Vm.I dest)

let w_memset mode vm args =
  let s = mk mode args in
  let chan = rv_channel s in
  let dest, dest_r, dest_s = pointer s in
  let byte = Int64.to_int (scalar s) in
  let n = Int64.to_int (scalar s) in
  Extern.impl_memset vm dest byte n;
  Extern.impl_memset vm dest_r byte n;
  set_rv vm s chan ~rop:dest_r ~nsop:dest_s;
  Some (Vm.I dest)

(* qsort: sort application, replica and shadow regions with the same
   permutation; the comparator is the *transformed* comparison function,
   so it is called with the augmented (a, a_r[, a_s], b, b_r[, b_s])
   argument list of Figure 3.3, and its own load checks fire on the
   scratch copies we pass it. *)
let w_qsort mode vm args =
  let s = mk mode args in
  let sdw_elem = match mode with Config.Sds -> Int64.to_int (scalar s) | Config.Mds -> 0 in
  let base, base_r, base_s = pointer s in
  let nmemb = Int64.to_int (scalar s) in
  let size = Int64.to_int (scalar s) in
  let cmp, _cmp_r, _cmp_s = pointer s in
  let cmp_name =
    match Hashtbl.find_opt vm.Vm.addr_fun cmp with
    | Some n -> n
    | None -> raise (Mem.Fault (Mem.Unmapped cmp))
  in
  let read_at region i sz = Mem.read_bytes vm.Vm.mem (Int64.add region (Int64.of_int (i * sz))) sz in
  let app = Array.init nmemb (fun i -> read_at base i size) in
  let rep = Array.init nmemb (fun i -> read_at base_r i size) in
  let shd =
    if sdw_elem > 0 then Some (Array.init nmemb (fun i -> read_at base_s i sdw_elem))
    else None
  in
  (* scratch element copies the comparator dereferences *)
  let sa = Allocator.malloc vm.Vm.alloc size and sb = Allocator.malloc vm.Vm.alloc size in
  let ra = Allocator.malloc vm.Vm.alloc size in
  let rb = Allocator.malloc vm.Vm.alloc size in
  let ha, hb =
    if sdw_elem > 0 then
      (Allocator.malloc vm.Vm.alloc sdw_elem, Allocator.malloc vm.Vm.alloc sdw_elem)
    else (0L, 0L)
  in
  let idx = Array.init nmemb (fun i -> i) |> Array.to_list in
  let compare_idx i j =
    Vm.add_cost vm 10;
    Mem.write_bytes vm.Vm.mem sa app.(i) 0 size;
    Mem.write_bytes vm.Vm.mem sb app.(j) 0 size;
    Mem.write_bytes vm.Vm.mem ra rep.(i) 0 size;
    Mem.write_bytes vm.Vm.mem rb rep.(j) 0 size;
    (match shd with
    | Some sh ->
        Mem.write_bytes vm.Vm.mem ha sh.(i) 0 sdw_elem;
        Mem.write_bytes vm.Vm.mem hb sh.(j) 0 sdw_elem
    | None -> ());
    let cargs =
      match mode with
      | Config.Sds -> [ Vm.I sa; Vm.I ra; Vm.I ha; Vm.I sb; Vm.I rb; Vm.I hb ]
      | Config.Mds -> [ Vm.I sa; Vm.I ra; Vm.I sb; Vm.I rb ]
    in
    match Vm.call_function vm cmp_name cargs with
    | Some (Vm.I r) -> Int64.to_int (Vm.sign_extend Dpmr_ir.Types.W32 r)
    | _ -> raise (Vm.Vm_error "qsort comparator did not return an int")
  in
  let sorted = List.stable_sort compare_idx idx in
  List.iteri
    (fun newpos oldpos ->
      Mem.write_bytes vm.Vm.mem (Int64.add base (Int64.of_int (newpos * size))) app.(oldpos) 0 size;
      Mem.write_bytes vm.Vm.mem (Int64.add base_r (Int64.of_int (newpos * size))) rep.(oldpos) 0 size;
      match shd with
      | Some sh ->
          Mem.write_bytes vm.Vm.mem
            (Int64.add base_s (Int64.of_int (newpos * sdw_elem)))
            sh.(oldpos) 0 sdw_elem
      | None -> ())
    sorted;
  List.iter (Allocator.free vm.Vm.alloc)
    (List.filter (fun a -> not (Int64.equal a 0L)) [ sa; sb; ra; rb; ha; hb ]);
  Vm.add_cost vm (nmemb * (size / 8) * 4);
  None

(* calloc/realloc: heap management through external code.  The wrappers
   allocate and maintain replica memory; the allocated memory is typed as
   bytes, so its shadow is null (storing pointers into it falls under the
   §2.9 typing restrictions, or the Chapter 5 scope expansion). *)
let w_calloc mode vm args =
  let s = mk mode args in
  let chan = rv_channel s in
  let n = Int64.to_int (scalar s) in
  let size = Int64.to_int (scalar s) in
  let bytes = max 1 (n * size) in
  Vm.add_cost vm (2 * Extern.dpmr_vm_cost_calloc bytes);
  let p = Allocator.malloc vm.Vm.alloc bytes in
  Mem.fill vm.Vm.mem p bytes 0;
  let p_r = Allocator.malloc vm.Vm.alloc bytes in
  Mem.fill vm.Vm.mem p_r bytes 0;
  set_rv vm s chan ~rop:p_r ~nsop:0L;
  Some (Vm.I p)

let w_realloc mode vm args =
  let s = mk mode args in
  let chan = rv_channel s in
  let p, p_r, _p_s = pointer s in
  let n = Int64.to_int (scalar s) in
  (* load check: the preserved prefix is read by realloc *)
  if not (Int64.equal p 0L) then begin
    let keep = min (Allocator.usable_size vm.Vm.alloc p) (max 1 n) in
    check_bytes vm "realloc:prefix" p p_r keep
  end;
  (* each copy preserves its own prefix — replica content mirrors by
     construction (and under MDS may legitimately differ at pointer
     cells, which byte-typed memory must not contain anyway) *)
  let q = Extern.impl_realloc vm p n in
  let q_r = Extern.impl_realloc vm p_r n in
  set_rv vm s chan ~rop:q_r ~nsop:0L;
  Some (Vm.I q)

(* printf: the variable-length argument list arrives with original values
   in place and (ROP[, NSOP]) groups appended at the end (§3.1.2).  The
   wrapper parses the format string to find which variadic arguments are
   dereferenced pointers, and load-checks exactly those (§3.1.5). *)
let w_printf mode vm args =
  let s = mk mode args in
  let fmt, fmt_r, _ = pointer s in
  check_cstr vm "printf:fmt" fmt fmt_r;
  let rest = Array.of_list s.rest in
  (* appended group width per variadic argument *)
  let g = match mode with Config.Sds -> 2 | Config.Mds -> 1 in
  let n_var = Array.length rest / (1 + g) in
  let vapp = Array.sub rest 0 n_var in
  let rendered, string_reads = Extern.impl_printf vm fmt vapp in
  List.iter
    (fun (idx, addr, len) ->
      let rop = Vm.as_int rest.(n_var + (idx * g)) in
      check_bytes vm "printf:%s-arg" addr rop len)
    string_reads;
  Extern.out vm rendered;
  Some (Vm.I (Int64.of_int (String.length rendered)))

(* ------------------------------------------------------------------ *)
(* argv replication (§3.1.1, Figure 3.1)                               *)
(* ------------------------------------------------------------------ *)

let read_argv vm argc argv =
  List.init argc (fun i -> Mem.read_int vm.Vm.mem (Int64.add argv (Int64.of_int (8 * i))) 8)

let replicate_string vm p =
  let n = Extern.cstring_len vm p + 1 in
  let r = Allocator.malloc vm.Vm.alloc n in
  Mem.move vm.Vm.mem ~dst:r ~src:p n;
  r

let w_argv_r mode vm args =
  let argc = Int64.to_int (Vm.as_int (List.hd args)) in
  let argv = Vm.as_int (List.nth args 1) in
  let ptrs = read_argv vm argc argv in
  let arr = Allocator.malloc vm.Vm.alloc (max 8 (8 * argc)) in
  List.iteri
    (fun i p ->
      let v =
        match mode with
        | Config.Sds -> p (* comparable pointers: identical values *)
        | Config.Mds -> replicate_string vm p
      in
      Mem.write_int vm.Vm.mem (Int64.add arr (Int64.of_int (8 * i))) 8 v)
    ptrs;
  Some (Vm.I arr)

let w_argv_s vm args =
  let argc = Int64.to_int (Vm.as_int (List.hd args)) in
  let argv = Vm.as_int (List.nth args 1) in
  let ptrs = read_argv vm argc argv in
  (* array of {ROP; NSOP} pairs: ROP -> a replica of the i-th argument,
     NSOP -> null (char data has no shadow) *)
  let arr = Allocator.malloc vm.Vm.alloc (max 16 (16 * argc)) in
  List.iteri
    (fun i p ->
      let rep = replicate_string vm p in
      Mem.write_int vm.Vm.mem (Int64.add arr (Int64.of_int (16 * i))) 8 rep;
      Mem.write_int vm.Vm.mem (Int64.add arr (Int64.of_int ((16 * i) + 8))) 8 0L)
    ptrs;
  Some (Vm.I arr)

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

(** Register every wrapper into [vm] for the given design. *)
let register ~mode vm =
  let reg name f = Vm.register_extern vm (name ^ "_efw") (f mode) in
  reg "print_int" w_print_int;
  reg "print_float" w_print_float;
  reg "putchar" w_putchar;
  reg "print_newline" w_print_newline;
  reg "exit" w_exit;
  reg "abort" w_abort;
  reg "print_str" w_print_str;
  reg "strlen" w_strlen;
  reg "strcpy" w_strcpy;
  reg "strcmp" w_strcmp;
  reg "atoi" w_atoi;
  reg "memcpy" w_memcpy;
  reg "memmove" w_memcpy;
  reg "memset" w_memset;
  reg "qsort" w_qsort;
  reg "printf" w_printf;
  reg "calloc" w_calloc;
  reg "realloc" w_realloc;
  Vm.register_extern vm "__dpmr_argv_r" (w_argv_r mode);
  Vm.register_extern vm "__dpmr_argv_s" w_argv_s
