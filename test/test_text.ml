(* Textual IR tests.  parse (emit p) behaves exactly like p for every
   workload, micro workload and random program — outputs, exit
   classification and cost all equal.  Every build the transform digests
   pin parses, verifies and re-emits to the same text, and its all-loads
   workload builds also run the same; registered IR parses and verifies
   in linear time; malformed text fails with a line number. *)

open Dpmr_ir
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome

let behaviour p =
  let r = Dpmr.run_plain p in
  (Outcome.to_string r.Outcome.outcome, r.Outcome.output, r.Outcome.cost)

let check_roundtrip name p =
  let text = Text.emit p in
  let p2 =
    try Text.parse text
    with Text.Parse_error (line, msg) ->
      Alcotest.failf "%s: parse error line %d: %s" name line msg
  in
  Verifier.check_prog p2;
  let o1, out1, c1 = behaviour p and o2, out2, c2 = behaviour p2 in
  Alcotest.(check string) (name ^ " outcome") o1 o2;
  Alcotest.(check string) (name ^ " output") out1 out2;
  Alcotest.(check int64) (name ^ " cost") c1 c2

let test_workloads_roundtrip () =
  List.iter
    (fun (e : Dpmr_workloads.Workloads.entry) ->
      check_roundtrip e.Dpmr_workloads.Workloads.name
        (e.Dpmr_workloads.Workloads.build ()))
    Dpmr_workloads.Workloads.all

let test_micro_roundtrip () =
  List.iter (fun (name, build) -> check_roundtrip name (build ()))
    Dpmr_workloads.Micro.all

(* the builds test/golden/transform-digests.txt pins: their transforms
   append check-continuation blocks after the blocks that branch into
   them, so a register is often used on a line above its definition *)
let test_transformed_roundtrip () =
  List.iter
    (fun (b : Dpmr_testprogs.Pinned.build) ->
      let cfg = b.Dpmr_testprogs.Pinned.cfg in
      let name = b.Dpmr_testprogs.Pinned.label ^ " " ^ Dpmr_core.Config.name cfg in
      let tp = b.Dpmr_testprogs.Pinned.transformed () in
      let text = Text.emit tp in
      let tp2 =
        try Text.parse text
        with Text.Parse_error (line, msg) ->
          Alcotest.failf "%s: parse error line %d: %s" name line msg
      in
      Verifier.check_prog tp2;
      (* parsing numbers registers in textual order, so the first round
         may renumber; from then on emission is a fixpoint *)
      let text2 = Text.emit tp2 in
      Alcotest.(check string) (name ^ " re-emits") text2 (Text.emit (Text.parse text2));
      if (not b.Dpmr_testprogs.Pinned.dsa) && cfg.Dpmr_core.Config.policy = Dpmr_core.Config.All_loads
      then begin
        let run q = Dpmr.run_transformed ~mode:cfg.Dpmr_core.Config.mode q in
        let r1 = run tp and r2 = run tp2 in
        Alcotest.(check string) (name ^ " outcome") (Outcome.to_string r1.Outcome.outcome)
          (Outcome.to_string r2.Outcome.outcome);
        Alcotest.(check string) (name ^ " output") r1.Outcome.output r2.Outcome.output;
        Alcotest.(check int64) (name ^ " cost") r1.Outcome.cost r2.Outcome.cost
      end)
    Dpmr_testprogs.Pinned.all

let test_double_roundtrip_stable () =
  let p = Dpmr_testprogs.Progs.qsort_prog () in
  let t1 = Text.emit p in
  let t2 = Text.emit (Text.parse t1) in
  Alcotest.(check string) "emit is a fixpoint after one round" t1 t2

(* a register frame may carry megabytes of IR: one long block and many
   short blocks both parse and verify in time linear in their length *)
let test_linear_time () =
  let n = 40_000 in
  let timed what text ~insts ~blocks =
    let t0 = Unix.gettimeofday () in
    let p = Text.parse text in
    Verifier.check_prog p;
    let dt = Unix.gettimeofday () -. t0 in
    let f = Prog.func p "main" in
    Alcotest.(check int) (what ^ ": blocks") blocks (List.length f.Func.blocks);
    Alcotest.(check int) (what ^ ": instructions") insts
      (List.fold_left (fun k (b : Func.block) -> k + List.length b.Func.insts) 0 f.Func.blocks);
    if dt > 2.0 then Alcotest.failf "%s: parse and verify took %.2f s" what dt
  in
  let buf = Buffer.create (n * 24) in
  Buffer.add_string buf "global g : i64 = 0\nfunc @main() : i32 {\nentry:\n";
  for _ = 1 to n do Buffer.add_string buf "  store i64 1:i64, @g\n" done;
  Buffer.add_string buf "  ret 0:i32\n}\n";
  timed "one block of stores" (Buffer.contents buf) ~insts:n ~blocks:1;
  Buffer.clear buf;
  Buffer.add_string buf "func @main() : i32 {\n";
  for i = 0 to n - 2 do Buffer.add_string buf (Printf.sprintf "b%d:\n  br b%d\n" i (i + 1)) done;
  Buffer.add_string buf (Printf.sprintf "b%d:\n  ret 0:i32\n}\n" (n - 1));
  timed "one-branch blocks" (Buffer.contents buf) ~insts:0 ~blocks:n

let test_parse_errors () =
  let bad =
    [
      ("global g :", "truncated global");
      ("func @f( : i32 {", "bad param");
      ("struct S { badtype }", "unknown type");
      ("wibble", "unknown top-level");
    ]
  in
  List.iter
    (fun (src, what) ->
      Alcotest.(check bool) what true
        (try
           ignore (Text.parse src);
           false
         with Text.Parse_error _ -> true))
    bad

let test_comments_and_blank_lines () =
  let src =
    "# a comment\n\nglobal g : i64 = 7\n\nfunc @main() : i32 {\nentry:\n  \
     %v : i64 = load i64, @g  # trailing comment\n  call print_int(%v)\n  ret 0:i32\n}\n"
  in
  let p = Text.parse src in
  (* declare the externs the snippet relies on before verifying *)
  Dpmr_vm.Extern.declare_signatures p;
  Verifier.check_prog p;
  let r = Dpmr.run_plain p in
  Alcotest.(check string) "runs" "7" r.Outcome.output

let test_handwritten_program () =
  let src =
    {|# hand-written textual IR
struct Node { i64, %Node* }
extern print_int : void (i64)
global seed : i64 = 3

func @sum(%n : %Node*) : i64 {
entry:
  %acc : i64* = alloca i64, 1:i64
  store i64 0:i64, %acc
  %cur : %Node** = alloca %Node*, 1:i64
  store %Node* %n, %cur
  br head
head:
  %c : %Node* = load %Node*, %cur
  %ci : i64 = ptrtoint %c
  %nz : i8 = icmp ne i64 %ci, 0:i64
  cbr %nz, body, done
body:
  %vp : i64* = gepf %Node, %c, 0
  %v : i64 = load i64, %vp
  %a : i64 = load i64, %acc
  %a2 : i64 = add i64 %a, %v
  store i64 %a2, %acc
  %np : %Node** = gepf %Node, %c, 1
  %nx : %Node* = load %Node*, %np
  store %Node* %nx, %cur
  br head
done:
  %r : i64 = load i64, %acc
  ret %r
}

func @main() : i32 {
entry:
  %a : %Node* = malloc %Node, 1:i64
  %b : %Node* = malloc %Node, 1:i64
  %ap : i64* = gepf %Node, %a, 0
  store i64 40:i64, %ap
  %anp : %Node** = gepf %Node, %a, 1
  store %Node* %b, %anp
  %bp : i64* = gepf %Node, %b, 0
  store i64 2:i64, %bp
  %bnp : %Node** = gepf %Node, %b, 1
  store %Node* null %Node, %bnp
  %s : i64 = call sum(%a)
  call print_int(%s)
  ret 0:i32
}
|}
  in
  let p = Text.parse src in
  Verifier.check_prog p;
  let r = Dpmr.run_plain p in
  Alcotest.(check string) "hand-written program runs" "42" r.Outcome.output;
  (* and it transforms *)
  let r2 = Dpmr.run_dpmr Dpmr_core.Config.default p in
  Alcotest.(check string) "under DPMR too" "42" r2.Outcome.output

(* qcheck: random programs round-trip *)
let prop_random_roundtrip =
  QCheck.Test.make ~name:"random programs round-trip through text" ~count:40
    Test_differential.arb_ops
    (fun ops ->
      let p = Test_differential.build_prog ops in
      let p2 = Text.parse (Text.emit p) in
      behaviour p = behaviour p2)

(* qcheck: the parsed program verifies and re-emits to the identical
   text — parse . emit is a verifier-preserving fixpoint, so golden
   files and cache keys derived from emitted text are stable. *)
let prop_random_emit_fixpoint =
  QCheck.Test.make ~name:"random programs: emit . parse . emit is a fixpoint"
    ~count:40 Test_differential.arb_ops
    (fun ops ->
      let p = Test_differential.build_prog ops in
      let text = Text.emit p in
      let p2 = Text.parse text in
      Verifier.check_prog p2;
      String.equal text (Text.emit p2))

let suites =
  [
    ( "text",
      [
        Alcotest.test_case "workloads round-trip" `Quick test_workloads_roundtrip;
        Alcotest.test_case "micro workloads round-trip" `Quick test_micro_roundtrip;
        Alcotest.test_case "transformed programs round-trip" `Quick
          test_transformed_roundtrip;
        Alcotest.test_case "emit is stable" `Quick test_double_roundtrip_stable;
        Alcotest.test_case "linear-time parse and verify" `Quick test_linear_time;
        Alcotest.test_case "parse errors reported" `Quick test_parse_errors;
        Alcotest.test_case "comments and blanks" `Quick test_comments_and_blank_lines;
        Alcotest.test_case "hand-written program" `Quick test_handwritten_program;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_random_roundtrip; prop_random_emit_fixpoint ] );
  ]
