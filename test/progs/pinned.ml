(* The DPMR builds test/golden/transform-digests.txt pins: every workload
   under both designs, seven diversities and three policies (168), and
   the three programs test/test_dsa.ml hands to the DSA-expanded
   transform under MDS, five diversities and three policies (45). *)

module Config = Dpmr_core.Config

type build = {
  label : string;  (** a workload name, or "dsa:" and a test program's name *)
  cfg : Config.t;
  dsa : bool;  (** built by the DSA-expanded transform *)
  transformed : unit -> Dpmr_ir.Prog.t;
}

(* the DSA programs keep the five diversities; the workloads add the two
   extensions *)
let dsa_diversities =
  Config.[ No_diversity; Pad_malloc 16; Zero_before_free; Rearrange_heap; Pad_alloca 16 ]

let diversities = dsa_diversities @ Config.[ Layout_perm; Pad_jitter ]
let policies = Config.[ All_loads; Temporal temporal_mask_1_2; Static 0.5 ]

let dsa_progs =
  [
    ("int-to-ptr", Progs.int_to_ptr_prog);
    ("overflow-16", Progs.overflow ~limit:16);
    ("mixed", Progs.dsa_mixed);
  ]

let cfgs modes diversities =
  List.concat_map
    (fun mode ->
      List.concat_map
        (fun diversity ->
          List.map
            (fun policy -> { Config.default with Config.mode; diversity; policy })
            policies)
        diversities)
    modes

let all =
  List.concat_map
    (fun (w : Dpmr_workloads.Workloads.entry) ->
      List.map
        (fun cfg ->
          {
            label = w.Dpmr_workloads.Workloads.name;
            cfg;
            dsa = false;
            transformed =
              (fun () -> Dpmr_core.Dpmr.transform cfg (w.Dpmr_workloads.Workloads.build ()));
          })
        (cfgs Config.[ Sds; Mds ] diversities))
    Dpmr_workloads.Workloads.all
  @ List.concat_map
      (fun (name, mk) ->
        List.map
          (fun cfg ->
            {
              label = "dsa:" ^ name;
              cfg;
              dsa = true;
              transformed = (fun () -> Dpmr_dsa.Dsa_dpmr.transform cfg (mk ()));
            })
          (cfgs [ Config.Mds ] dsa_diversities))
      dsa_progs
