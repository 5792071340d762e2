(* Unit and property tests for the IR: type system, layout, builder,
   verifier. *)

open Dpmr_ir
open Types

let tenv_with_ll () =
  let tenv = Tenv.create () in
  Tenv.define_struct tenv "LinkedList" [ i32; Ptr (Struct "LinkedList") ];
  tenv

(* ---- layout ---- *)

let test_scalar_sizes () =
  let tenv = Tenv.create () in
  Alcotest.(check int) "i8" 1 (Layout.size_of tenv i8);
  Alcotest.(check int) "i16" 2 (Layout.size_of tenv i16);
  Alcotest.(check int) "i32" 4 (Layout.size_of tenv i32);
  Alcotest.(check int) "i64" 8 (Layout.size_of tenv i64);
  Alcotest.(check int) "f64" 8 (Layout.size_of tenv Float);
  Alcotest.(check int) "ptr" 8 (Layout.size_of tenv (Ptr i32))

let test_struct_padding () =
  let tenv = Tenv.create () in
  Tenv.define_struct tenv "S" [ i8; i32; i8 ];
  (* 1 + pad(3) + 4 + 1 + pad(3) = 12 *)
  Alcotest.(check int) "padded struct" 12 (Layout.size_of tenv (Struct "S"));
  Alcotest.(check int) "f0 offset" 0 (Layout.field_offset tenv "S" 0);
  Alcotest.(check int) "f1 offset" 4 (Layout.field_offset tenv "S" 1);
  Alcotest.(check int) "f2 offset" 8 (Layout.field_offset tenv "S" 2)

let test_linkedlist_layout () =
  let tenv = tenv_with_ll () in
  Alcotest.(check int) "LL size" 16 (Layout.size_of tenv (Struct "LinkedList"));
  Alcotest.(check int) "nxt offset" 8 (Layout.field_offset tenv "LinkedList" 1)

let test_array_equiv_struct () =
  (* Chapter 2: struct{int32;int32;int32;} is equivalent to int32[3] *)
  let tenv = Tenv.create () in
  Tenv.define_struct tenv "T3" [ i32; i32; i32 ];
  Alcotest.(check int) "sizes equal" (Layout.size_of tenv (arr i32 3))
    (Layout.size_of tenv (Struct "T3"))

let test_union_layout () =
  let tenv = Tenv.create () in
  Tenv.define_union tenv "U" [ i8; i64; i32 ];
  Alcotest.(check int) "union size = max" 8 (Layout.size_of tenv (Union "U"));
  Alcotest.(check int) "union field offsets are 0" 0 (Layout.field_offset tenv "U" 2)

let test_flatten_scalars () =
  let tenv = Tenv.create () in
  Tenv.define_struct tenv "P" [ i32; Ptr i8; arr Float 2 ];
  let fs = Layout.flatten_scalars tenv (Struct "P") in
  Alcotest.(check int) "flattened count" 4 (List.length fs);
  Alcotest.(check bool) "second is pointer" true (is_pointer (List.nth fs 1))

let test_contains_pointer () =
  let tenv = tenv_with_ll () in
  Alcotest.(check bool) "LL has ptr" true
    (contains_pointer_outside_fun_ty tenv (Struct "LinkedList"));
  Alcotest.(check bool) "i32 no ptr" false (contains_pointer_outside_fun_ty tenv i32);
  Alcotest.(check bool) "fun ptr inside fun type doesn't count" false
    (contains_pointer_outside_fun_ty tenv (Fun { ret = Ptr i8; params = [ Ptr i8 ]; vararg = false }))

let test_struct_eq_recursive () =
  let tenv = Tenv.create () in
  Tenv.define_struct tenv "A" [ i32; Ptr (Struct "A") ];
  Tenv.define_struct tenv "B" [ i32; Ptr (Struct "B") ];
  Alcotest.(check bool) "A ~ B" true (struct_eq tenv (Struct "A") (Struct "B"));
  Tenv.define_struct tenv "C" [ i64; Ptr (Struct "C") ];
  Alcotest.(check bool) "A !~ C" false (struct_eq tenv (Struct "A") (Struct "C"))

(* ---- qcheck: layout invariants ---- *)

let ty_gen =
  let open QCheck.Gen in
  let base = oneofl [ i8; i16; i32; i64; Float; Ptr i8; Ptr (Ptr i32) ] in
  let rec go n =
    if n = 0 then base
    else
      frequency
        [
          (3, base);
          (1, map (fun t -> Ptr t) (go (n - 1)));
          (1, map2 (fun t k -> arr t (1 + (k mod 4))) (go (n - 1)) nat);
        ]
  in
  go 3

let arb_ty = QCheck.make ~print:Types.to_string ty_gen

let prop_size_positive =
  QCheck.Test.make ~name:"sizeof is positive for sized types" ~count:200 arb_ty
    (fun t ->
      let tenv = Tenv.create () in
      Layout.size_of tenv t > 0)

let prop_size_multiple_of_align =
  QCheck.Test.make ~name:"sizeof is a multiple of alignment" ~count:200 arb_ty
    (fun t ->
      let tenv = Tenv.create () in
      Layout.size_of tenv t mod Layout.align_of tenv t = 0)

let prop_flatten_size =
  QCheck.Test.make ~name:"flatten covers at most sizeof bytes" ~count:200 arb_ty
    (fun t ->
      let tenv = Tenv.create () in
      let flat = Layout.flatten_scalars tenv t in
      let sum = List.fold_left (fun a s -> a + Layout.size_of tenv s) 0 flat in
      sum <= Layout.size_of tenv t)

(* ---- builder + verifier ---- *)

let build_sum_prog () =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  let b = Builder.create p ~name:"main" ~params:[] ~ret:i32 () in
  let acc = Builder.local b ~name:"acc" i64 (Builder.i64c 0) in
  Builder.for_ b ~from:(Builder.i64c 0) ~below:(Builder.i64c 10) (fun i ->
      let a = Builder.get b i64 acc in
      let s = Builder.add b W64 a i in
      Builder.set b i64 acc s);
  let final = Builder.get b i64 acc in
  Builder.call0 b (Inst.Direct "print_int") [ final ];
  Builder.ret b (Some (Builder.i32c 0));
  p

let test_builder_verifies () =
  let p = build_sum_prog () in
  Verifier.check_prog p

let test_verifier_catches_bad_label () =
  let p = Prog.create () in
  let b = Builder.create p ~name:"f" ~params:[] ~ret:Void () in
  Builder.br b "nonexistent";
  Alcotest.(check bool) "raises Ill_formed" true
    (try
       Verifier.check_prog p;
       false
     with Verifier.Ill_formed _ -> true)

let test_verifier_catches_unknown_callee () =
  let p = Prog.create () in
  let b = Builder.create p ~name:"f" ~params:[] ~ret:Void () in
  b.Builder.cur.insts <- [ Inst.Call (None, Inst.Direct "nope", []) ];
  Builder.ret0 b;
  Alcotest.(check bool) "raises" true
    (try
       Verifier.check_prog p;
       false
     with Verifier.Ill_formed _ -> true)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_size_positive; prop_size_multiple_of_align; prop_flatten_size ]

let suites =
  [
    ( "ir.layout",
      [
        Alcotest.test_case "scalar sizes" `Quick test_scalar_sizes;
        Alcotest.test_case "struct padding" `Quick test_struct_padding;
        Alcotest.test_case "linked list layout" `Quick test_linkedlist_layout;
        Alcotest.test_case "array/struct equivalence" `Quick test_array_equiv_struct;
        Alcotest.test_case "union layout" `Quick test_union_layout;
        Alcotest.test_case "flatten scalars" `Quick test_flatten_scalars;
        Alcotest.test_case "contains pointer" `Quick test_contains_pointer;
        Alcotest.test_case "recursive structural equality" `Quick test_struct_eq_recursive;
      ]
      @ qsuite );
    ( "ir.builder",
      [
        Alcotest.test_case "builder output verifies" `Quick test_builder_verifies;
        Alcotest.test_case "verifier: bad label" `Quick test_verifier_catches_bad_label;
        Alcotest.test_case "verifier: unknown callee" `Quick test_verifier_catches_unknown_callee;
      ] );
  ]
