(* Pins the transformed IR of every build transform_digests.exe lists
   against test/golden/transform-digests.txt: a change that renumbers a
   register, reorders an instruction or alters a constant in any of them
   names the build it changed.  Also checks that [dpmr transform --seed]
   prints the seeded build [dpmr run --seed] executes. *)

module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Workloads = Dpmr_workloads.Workloads

let read_lines ic =
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

let test_digests_match_golden () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "transform_digests.exe" in
  let ic = Unix.open_process_args_in exe [| exe |] in
  let actual = read_lines ic in
  Alcotest.(check bool) "digest writer exited cleanly" true
    (Unix.close_process_in ic = Unix.WEXITED 0);
  let expected = In_channel.with_open_text "golden/transform-digests.txt" read_lines in
  let changed =
    List.filter (fun l -> not (List.mem l expected)) actual
  in
  Alcotest.(check (list string)) "builds whose transformed IR changed" [] changed;
  Alcotest.(check int) "build count" (List.length expected) (List.length actual)

(* layout-perm draws its dummies from the config seed, so the seed
   changes the transformed IR *)
let test_cli_transform_seed () =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bin/dpmr_cli.exe"
  in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "transform"; "mcf"; "--diversity"; "layout-perm"; "--seed"; "7" |]
  in
  let printed = In_channel.input_all ic in
  Alcotest.(check bool) "dpmr transform exited cleanly" true
    (Unix.close_process_in ic = Unix.WEXITED 0);
  let ir seed =
    let cfg = { Config.default with Config.diversity = Config.Layout_perm; seed } in
    Dpmr_ir.Text.emit
      (Dpmr.transform cfg ((Workloads.find "mcf").Workloads.build ~scale:1 ()))
  in
  Alcotest.(check string) "the seed-7 build" (ir 7L) printed;
  Alcotest.(check bool) "differs from the seed-42 build" false (String.equal (ir 42L) printed)

let suites =
  [
    ( "transform-digests",
      [
        Alcotest.test_case "transform digests" `Quick test_digests_match_golden;
        Alcotest.test_case "transform --seed" `Quick test_cli_transform_seed;
      ] );
  ]
