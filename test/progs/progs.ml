(* Shared IR program builders used across the transformation tests. *)

open Dpmr_ir
open Types
open Inst

let fresh () =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  p

let main_b p = Builder.create p ~name:"main" ~params:[] ~ret:i32 ()

let finish b = Builder.ret b (Some (Builder.i32c 0))

(* The Figure 2.9/2.10 linked-list program: createNode + getSum, driven by
   a main that builds [1..n] and prints the sum. *)
let linked_list ?(n = 5) () =
  let p = fresh () in
  Tenv.define_struct p.Prog.tenv "LL" [ i32; Ptr (Struct "LL") ];
  let ll = Struct "LL" in
  let b =
    Builder.create p ~name:"createNode"
      ~params:[ ("data", i32); ("last", Ptr ll) ]
      ~ret:(Ptr ll) ()
  in
  let node = Builder.malloc b ~name:"n" ll in
  Builder.store b i32 (Builder.param b 0) (Builder.gep_field b node 0);
  Builder.store b (Ptr ll) (Builder.null ll) (Builder.gep_field b node 1);
  let last = Builder.param b 1 in
  let nz = Builder.icmp b Ine W64 (Builder.ptr_to_int b last) (Builder.i64c 0) in
  Builder.if_ b nz (fun () ->
      Builder.store b (Ptr ll) node (Builder.gep_field b last 1));
  Builder.ret b (Some node);
  let b = Builder.create p ~name:"getSum" ~params:[ ("n", Ptr ll) ] ~ret:i32 () in
  let sum = Builder.local b ~name:"sum" i32 (Builder.i32c 0) in
  let cur = Builder.local b ~name:"cur" (Ptr ll) (Builder.param b 0) in
  Builder.while_ b
    (fun () ->
      let c = Builder.get b (Ptr ll) cur in
      Builder.icmp b Ine W64 (Builder.ptr_to_int b c) (Builder.i64c 0))
    (fun () ->
      let c = Builder.get b (Ptr ll) cur in
      let v = Builder.load b i32 (Builder.gep_field b c 0) in
      let s = Builder.get b i32 sum in
      Builder.set b i32 sum (Builder.add b W32 s v);
      Builder.set b (Ptr ll) cur (Builder.load b (Ptr ll) (Builder.gep_field b c 1)));
  Builder.ret b (Some (Builder.get b i32 sum));
  let b = main_b p in
  let head = Builder.call1 b (Direct "createNode") [ Builder.i32c 1; Builder.null ll ] in
  let tail = Builder.local b (Ptr ll) head in
  Builder.for_ b ~from:(Builder.i64c 2) ~below:(Builder.i64c (n + 1)) (fun i ->
      let t = Builder.get b (Ptr ll) tail in
      let v = Builder.int_cast b W32 i in
      Builder.set b (Ptr ll) tail (Builder.call1 b (Direct "createNode") [ v; t ]));
  let s = Builder.call1 b (Direct "getSum") [ head ] in
  Builder.call0 b (Direct "print_int") [ Builder.int_cast b W64 s ];
  finish b;
  p

(* Buffer overflow: allocate 8 i32s, write [0, limit) through the buffer,
   then read back index 0 and print it.  With limit > 8 the writes run
   past the object; by limit = 16 the application-side overflow has
   clobbered the replica object, so a DPMR load check fires on the
   read-back (the Figure 1.1 scenario realized through implicit
   diversity). *)
let overflow ~limit () =
  let p = fresh () in
  let b = main_b p in
  let x = Builder.malloc b ~name:"x" ~count:(Builder.i64c 8) i32 in
  let y = Builder.malloc b ~name:"y" ~count:(Builder.i64c 8) i32 in
  Builder.for_ b ~from:(Builder.i64c 0) ~below:(Builder.i64c limit) (fun i ->
      let slot = Builder.gep_index b x i in
      Builder.store b i32 (Builder.int_cast b W32 i) slot);
  Builder.store b i32 (Builder.i32c 7) (Builder.gep_index b y (Builder.i64c 0));
  let v0 = Builder.load b i32 (Builder.gep_index b x (Builder.i64c 0)) in
  let vy = Builder.load b i32 (Builder.gep_index b y (Builder.i64c 0)) in
  Builder.call0 b (Direct "print_int") [ Builder.int_cast b W64 v0 ];
  Builder.call0 b (Direct "print_int") [ Builder.int_cast b W64 vy ];
  finish b;
  p

(* Read after free: store a value, free the buffer, read it back.  The
   stale read returns the old value in application memory; under
   zero-before-free the replica reads zero and the check fires. *)
let read_after_free () =
  let p = fresh () in
  let b = main_b p in
  let x = Builder.malloc b ~name:"x" ~count:(Builder.i64c 4) i64 in
  Builder.store b i64 (Builder.i64c 77) (Builder.gep_index b x (Builder.i64c 1));
  Builder.free b x;
  let v = Builder.load b i64 (Builder.gep_index b x (Builder.i64c 1)) in
  Builder.call0 b (Direct "print_int") [ v ];
  finish b;
  p

(* Globals with pointers: a global config struct holding a pointer to a
   global table; main reads table[2] through the config. *)
let global_pointers () =
  let p = fresh () in
  Tenv.define_struct p.Prog.tenv "cfg" [ Ptr i64; i32 ];
  Prog.add_global p
    {
      Prog.gname = "table";
      gty = arr i64 4;
      ginit = Prog.Gagg [ Prog.Gint 10L; Prog.Gint 20L; Prog.Gint 30L; Prog.Gint 40L ];
    };
  Prog.add_global p
    {
      Prog.gname = "config";
      gty = Struct "cfg";
      ginit = Prog.Gagg [ Prog.Gptr_global "table"; Prog.Gint 9L ];
    };
  let b = main_b p in
  let cfgp = Global "config" in
  let tptr = Builder.load b (Ptr i64) (Builder.gep_field b cfgp 0) in
  let v = Builder.load b i64 (Builder.gep_index b tptr (Builder.i64c 2)) in
  Builder.call0 b (Direct "print_int") [ v ];
  finish b;
  p

(* String/externs workout: strcpy, strlen, strcmp, printf with %s/%d. *)
let strings () =
  let p = fresh () in
  let b = main_b p in
  let buf = Builder.malloc b ~count:(Builder.i64c 32) i8 in
  let buf = Builder.bitcast b (Ptr (arr i8 0)) buf in
  let hello = Builder.global b ~name:"hello" (arr i8 8) (Prog.Gstring "hello") in
  let hello = Builder.bitcast b (Ptr (arr i8 0)) hello in
  ignore (Builder.call b (Direct "strcpy") [ buf; hello ]);
  let n = Builder.call1 b (Direct "strlen") [ buf ] in
  let c = Builder.call1 b (Direct "strcmp") [ buf; hello ] in
  let fmt = Builder.global b ~name:"fmt" (arr i8 16) (Prog.Gstring "%s:%d:%d\n") in
  let fmt = Builder.bitcast b (Ptr (arr i8 0)) fmt in
  ignore
    (Builder.call b (Direct "printf")
       [ fmt; buf; n; Builder.int_cast b W64 c ]);
  finish b;
  p

(* qsort through the wrapper, sorting an i64 array with an IR comparator. *)
let qsort_prog () =
  let p = fresh () in
  let b =
    Builder.create p ~name:"cmp"
      ~params:[ ("a", Ptr (arr i8 0)); ("b", Ptr (arr i8 0)) ]
      ~ret:i32 ()
  in
  let va = Builder.load b i64 (Builder.bitcast b (Ptr i64) (Builder.param b 0)) in
  let vb = Builder.load b i64 (Builder.bitcast b (Ptr i64) (Builder.param b 1)) in
  let lt = Builder.icmp b Islt W64 va vb in
  let gt = Builder.icmp b Isgt W64 va vb in
  let d = Builder.sub b W8 gt lt in
  Builder.ret b (Some (Builder.int_cast b W32 d));
  let b = main_b p in
  let a = Builder.malloc b ~count:(Builder.i64c 6) i64 in
  List.iteri
    (fun i v -> Builder.store b i64 (Builder.i64c v) (Builder.gep_index b a (Builder.i64c i)))
    [ 42; 7; 19; 3; 25; 11 ];
  Builder.call0 b (Direct "qsort")
    [ Builder.bitcast b (Ptr (arr i8 0)) a; Builder.i64c 6; Builder.i64c 8; Fun_addr "cmp" ];
  Builder.for_ b ~from:(Builder.i64c 0) ~below:(Builder.i64c 6) (fun i ->
      let v = Builder.load b i64 (Builder.gep_index b a i) in
      Builder.call0 b (Direct "print_int") [ v ];
      Builder.call0 b (Direct "putchar") [ Builder.i32c 32 ]);
  finish b;
  p

(* argv consumer: prints atoi(argv[1]) * 2. *)
let argv_prog () =
  let p = fresh () in
  let b =
    Builder.create p ~name:"main"
      ~params:[ ("argc", i32); ("argv", Ptr (Ptr (arr i8 0))) ]
      ~ret:i32 ()
  in
  let argv = Builder.param b 1 in
  let a1 = Builder.load b (Ptr (arr i8 0)) (Builder.gep_index b argv (Builder.i64c 1)) in
  let v = Builder.call1 b (Direct "atoi") [ a1 ] in
  let v2 = Builder.add b W32 v v in
  Builder.call0 b (Direct "print_int") [ Builder.int_cast b W64 v2 ];
  finish b;
  p

(* Pointer-returning helper across a call boundary (exercises the
   rvSop/rvRopPtr machinery): box(v) allocates a cell holding v. *)
let boxed () =
  let p = fresh () in
  let b = Builder.create p ~name:"box" ~params:[ ("v", i64) ] ~ret:(Ptr i64) () in
  let cell = Builder.malloc b i64 in
  Builder.store b i64 (Builder.param b 0) cell;
  Builder.ret b (Some cell);
  let b = main_b p in
  let acc = Builder.local b i64 (Builder.i64c 0) in
  Builder.for_ b ~from:(Builder.i64c 1) ~below:(Builder.i64c 4) (fun i ->
      let cell = Builder.call1 b (Direct "box") [ i ] in
      let v = Builder.load b i64 cell in
      let a = Builder.get b i64 acc in
      Builder.set b i64 acc (Builder.add b W64 a v);
      Builder.free b cell);
  Builder.call0 b (Direct "print_int") [ Builder.get b i64 acc ];
  finish b;
  p

(* Function-pointer dispatch table stored in memory. *)
let fun_table () =
  let p = fresh () in
  let fty = fun_ty i64 [ i64 ] in
  let mk name f =
    let b = Builder.create p ~name ~params:[ ("x", i64) ] ~ret:i64 () in
    Builder.ret b (Some (f b (Builder.param b 0)))
  in
  mk "twice" (fun b x -> Builder.add b W64 x x);
  mk "square" (fun b x -> Builder.mul b W64 x x);
  let b = main_b p in
  let tbl = Builder.malloc b ~count:(Builder.i64c 2) (Ptr fty) in
  Builder.store b (Ptr fty) (Fun_addr "twice") (Builder.gep_index b tbl (Builder.i64c 0));
  Builder.store b (Ptr fty) (Fun_addr "square") (Builder.gep_index b tbl (Builder.i64c 1));
  Builder.for_ b ~from:(Builder.i64c 0) ~below:(Builder.i64c 2) (fun i ->
      let fp = Builder.load b (Ptr fty) (Builder.gep_index b tbl i) in
      let v = Builder.call1 b (Indirect fp) [ Builder.i64c 5 ] in
      Builder.call0 b (Direct "print_int") [ v ]);
  finish b;
  p

(* Program containing an int-to-pointer cast (forbidden under SDS/MDS). *)
let int_to_ptr_prog () =
  let p = fresh () in
  let b = main_b p in
  let x = Builder.malloc b i64 in
  let addr = Builder.ptr_to_int b x in
  let x2 = Builder.int_to_ptr b (Ptr i64) addr in
  Builder.store b i64 (Builder.i64c 1) x2;
  finish b;
  p

(* One object accessed through a manufactured pointer (DSA excludes it:
   no checks) beside one replicated normally; prints 42. *)
let dsa_mixed () =
  let p = fresh () in
  let b = main_b p in
  let a = Builder.malloc b i64 in
  Builder.store b i64 (Builder.i64c 11) a;
  let addr = Builder.ptr_to_int b a in
  let a2 = Builder.int_to_ptr b (Ptr i64) addr in
  let v1 = Builder.load b i64 a2 in
  let c = Builder.malloc b i64 in
  Builder.store b i64 (Builder.i64c 31) c;
  let v2 = Builder.load b i64 c in
  Builder.call0 b (Direct "print_int") [ Builder.add b W64 v1 v2 ];
  finish b;
  p
