(* Prints one line per DPMR build [Pinned.all] lists: its label and the
   MD5 of the transformed IR as [Text.emit] renders it, which is exactly
   what [dpmr transform] prints.  test/golden/transform-digests.txt is
   this program's output; the "transform digests" test recomputes it and
   compares, so any change to the bytes a build transforms to shows up
   as a named line.

   Regenerate (only when a change is meant to alter transformed IR):
     dune exec test/transform_digests.exe > test/golden/transform-digests.txt *)

module Config = Dpmr_core.Config
module Pinned = Dpmr_testprogs.Pinned

let () =
  List.iter
    (fun (b : Pinned.build) ->
      let cfg = b.Pinned.cfg in
      Printf.printf "%s %s %s %s %s\n" b.Pinned.label (Config.mode_name cfg.Config.mode)
        (Config.diversity_name cfg.Config.diversity)
        (Config.policy_name cfg.Config.policy)
        (Digest.to_hex (Digest.string (Dpmr_ir.Text.emit (b.Pinned.transformed ())))))
    Pinned.all
