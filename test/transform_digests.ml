(* Prints one line per DPMR build: its label and the MD5 of the
   transformed IR as [Printer.prog_to_string] renders it, which is
   exactly what [dpmr transform] prints.  test/golden/transform-digests.txt
   is this program's output; the "transform digests" test recomputes it
   and compares, so any change to the bytes a build transforms to shows
   up as a named line.

   Regenerate (only when a change is meant to alter transformed IR):
     dune exec test/transform_digests.exe > test/golden/transform-digests.txt *)

module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Workloads = Dpmr_workloads.Workloads
module Progs = Dpmr_testprogs.Progs

(* the DSA programs keep the five diversities; the workloads add the two
   extensions *)
let dsa_diversities =
  Config.[ No_diversity; Pad_malloc 16; Zero_before_free; Rearrange_heap; Pad_alloca 16 ]

let diversities = dsa_diversities @ Config.[ Layout_perm; Pad_jitter ]
let policies = Config.[ All_loads; Temporal temporal_mask_1_2; Static 0.5 ]

(* the programs test/test_dsa.ml hands to the DSA-expanded transform *)
let dsa_progs =
  [
    ("int-to-ptr", Progs.int_to_ptr_prog);
    ("overflow-16", Progs.overflow ~limit:16);
    ("mixed", Progs.dsa_mixed);
  ]

let digest tp = Digest.to_hex (Digest.string (Dpmr_ir.Printer.prog_to_string tp))

let line label (cfg : Config.t) tp =
  Printf.printf "%s %s %s %s %s\n" label (Config.mode_name cfg.Config.mode)
    (Config.diversity_name cfg.Config.diversity)
    (Config.policy_name cfg.Config.policy)
    (digest tp)

let () =
  List.iter
    (fun (w : Workloads.entry) ->
      List.iter
        (fun mode ->
          List.iter
            (fun diversity ->
              List.iter
                (fun policy ->
                  let cfg = { Config.default with Config.mode; diversity; policy } in
                  line w.Workloads.name cfg (Dpmr.transform cfg (w.Workloads.build ())))
                policies)
            diversities)
        Config.[ Sds; Mds ])
    Workloads.all;
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun diversity ->
          List.iter
            (fun policy ->
              let cfg = { Config.default with Config.mode = Config.Mds; diversity; policy } in
              line ("dsa:" ^ name) cfg (Dpmr_dsa.Dsa_dpmr.transform cfg (mk ())))
            policies)
        dsa_diversities)
    dsa_progs
