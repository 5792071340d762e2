(* Pins the transformed IR of every build transform_digests.exe lists
   against test/golden/transform-digests.txt: a change that renumbers a
   register, reorders an instruction or alters a constant in any of them
   names the build it changed. *)

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

let suites =
  [
    ( "transform-digests",
      [ Alcotest.test_case "transform digests" `Quick test_digests_match_golden ] );
  ]
