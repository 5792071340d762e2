(** Compiler-based fault injection (§3.4).

    Faulty code is inserted into the input program *before* the DPMR
    transformation, exactly as a real software bug would be present, and
    executes every time the injected location executes (unlike one-shot
    runtime injectors, which the dissertation argues cannot model software
    memory faults).

    Two fault types are used for the evaluation:
    - {e heap array resize}: the request count at a heap array allocation
      site is reduced (by 50% in the experiments), leading to
      out-of-bounds accesses;
    - {e immediate free}: a heap buffer is deallocated immediately after
      allocation, leading to reads/writes/frees after free. *)

open Dpmr_ir
open Inst

type kind =
  | Heap_array_resize of int  (** percentage to *keep*, e.g. 50 *)
  | Immediate_free
  | Off_by_one
      (** request one element fewer — the classic fencepost under-allocation
          (an instance of §1.3's out-of-bounds class; extension beyond the
          two fault types of §3.4) *)
  | Wild_store of int
      (** displace one store site's address by a large byte offset — a wild
          pointer write (§1.3's wild-pointer class; extension) *)

let kind_name = function
  | Heap_array_resize p -> Printf.sprintf "heap-array-resize-%d%%" p
  | Immediate_free -> "immediate-free"
  | Off_by_one -> "off-by-one"
  | Wild_store off -> Printf.sprintf "wild-store+%d" off

(* the atom of the cache identity, the wire and [--kind] *)
let kind_repr = function
  | Heap_array_resize pct -> Printf.sprintf "resize-%d" pct
  | Immediate_free -> "free"
  | Off_by_one -> "off-by-one"
  | Wild_store off -> Printf.sprintf "wild-store-%d" off

let kind_of_string s =
  (* a sized kind parses only from its exact [kind_repr] *)
  let exact k = if kind_repr k = s then Some k else None in
  let sized prefix =
    let k = String.length prefix in
    if String.starts_with ~prefix s then int_of_string_opt (String.sub s k (String.length s - k))
    else None
  in
  match s with
  | "free" -> Some Immediate_free
  | "off-by-one" -> Some Off_by_one
  | "resize" -> Some (Heap_array_resize 50)
  | _ -> (
      match (sized "resize-", sized "wild-store-") with
      (* the share of the request kept: below 1 the count wraps to a huge
         unsigned allocation, from 100 up the array does not shrink *)
      | Some pct, _ when pct >= 1 && pct <= 99 -> exact (Heap_array_resize pct)
      | None, Some off -> exact (Wild_store off)
      | _ -> None)

type site = { func : string; block : string; index : int }
(** [index] = position of the malloc instruction within its block. *)

let site_name s = Printf.sprintf "%s/%s/%d" s.func s.block s.index

let is_array_malloc = function
  | Malloc (_, _, Cint (_, 1L)) -> false  (* single-object site *)
  | Malloc _ -> true
  | _ -> false

let is_malloc = function Malloc _ -> true | _ -> false

(** Enumerate injectable sites for a fault type: heap array resizes apply
    to heap *array* allocation sites, immediate frees to all heap
    allocation sites (§3.4). *)
(* Wild stores target non-pointer stores: displacing a *pointer* store
   would require shadow addressing for an i8-typed cell, which the §2.9
   typing restrictions forbid. *)
let is_store = function
  | Store (ty, _, _) -> not (Types.is_pointer ty)
  | _ -> false

let sites kind (p : Prog.t) =
  let pred =
    match kind with
    | Heap_array_resize _ | Off_by_one -> is_array_malloc
    | Immediate_free -> is_malloc
    | Wild_store _ -> is_store
  in
  let acc = ref [] in
  Prog.iter_funcs p (fun f ->
      List.iter
        (fun (b : Func.block) ->
          List.iteri
            (fun i inst ->
              if pred inst then
                acc := { func = f.Func.name; block = b.Func.label; index = i } :: !acc)
            b.Func.insts)
        f.Func.blocks);
  List.rev !acc

(** [locate p kind site] returns a clone of [p] with the fault enabled
    at [site], and the fault's extent: the positions of the instructions
    it added around the (possibly rewritten) site instruction.  The
    injected code calls [__fi_mark] so the harness can record the time of
    the first successful injection (Table 3.2's SF). *)
let locate (p : Prog.t) kind site =
  let q = Clone.prog p in
  let f = Prog.func q site.func in
  let b = Func.find_block f site.block in
  let mark = Call (None, Direct "__fi_mark", []) in
  (* the fault's code before and after the rewritten site instruction *)
  let rewrite inst =
    match (inst, kind) with
    | Malloc (r, ty, n), Heap_array_resize pct ->
        (* n' = n * pct / 100, computed at runtime like the tool's
           enabled-at-runtime faulty code path *)
        let t1 = Func.fresh_reg f ~name:"fi_n1" Types.i64 in
        let t2 = Func.fresh_reg f ~name:"fi_n2" Types.i64 in
        ( [
            mark;
            Binop (t1, Mul, Types.W64, n, Cint (Types.W64, Int64.of_int pct));
            Binop (t2, Udiv, Types.W64, Reg t1, Cint (Types.W64, 100L));
          ],
          Malloc (r, ty, Reg t2),
          [] )
    | Malloc (r, _, _), Immediate_free -> ([ mark ], inst, [ Free (Reg r) ])
    | Malloc (r, ty, n), Off_by_one ->
        let t = Func.fresh_reg f ~name:"fi_n" Types.i64 in
        ( [ mark; Binop (t, Sub, Types.W64, n, Cint (Types.W64, 1L)) ],
          Malloc (r, ty, Reg t),
          [] )
    | Store (ty, v, p), Wild_store off ->
        let t = Func.fresh_reg f ~name:"fi_wild" (Types.Ptr Types.i8) in
        ( [ mark; Gep_index (t, Types.i8, p, Cint (Types.W64, Int64.of_int off)) ],
          Store (ty, v, Reg t),
          [] )
    | _ ->
        invalid_arg
          (Printf.sprintf "Inject.apply: site %s does not match fault type %s"
             (site_name site) (kind_name kind))
  in
  let fault_insts = ref [] in
  b.Func.insts <-
    List.concat
      (List.mapi
         (fun i inst ->
           if i <> site.index then [ inst ]
           else begin
             let pre, inst', post = rewrite inst in
             let n = List.length pre in
             fault_insts :=
               List.init n (fun k -> i + k)
               @ List.init (List.length post) (fun k -> i + n + 1 + k);
             pre @ (inst' :: post)
           end)
         b.Func.insts);
  ( q,
    {
      Dpmr_core.Transform.fault_func = site.func;
      fault_block = site.block;
      fault_insts = !fault_insts;
    } )

(** [apply p kind site]: {!locate} without the extent. *)
let apply p kind site = fst (locate p kind site)
