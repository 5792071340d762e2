(* Fidelity tests against the dissertation's worked transformation
   figures (2.9/2.10 for SDS, 4.1/4.2 for MDS) and the SDS-vs-MDS
   pointer-comparison trade-off (§2.9/§4.1). *)

open Dpmr_ir
open Types
open Inst
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome
module Progs = Dpmr_testprogs.Progs

let sds = Config.default
let mds = { Config.default with Config.mode = Config.Mds }

let count_insts_in (f : Func.t) pred =
  let n = ref 0 in
  Func.iter_insts f (fun _ i -> if pred i then incr n);
  !n

(* --- Figure 2.9: createNode under SDS --- *)

let test_fig_2_9_createnode_sds () =
  let tp = Dpmr.transform sds (Progs.linked_list ()) in
  let f = Prog.func tp "createNode" in
  (* rvSop + (data) + (last, last_r, last_s) = 5 parameters *)
  Alcotest.(check int) "5 params" 5 (List.length f.Func.params);
  (* rvSop points at the return value's {ROP; NSOP} pair struct *)
  (match snd (List.hd f.Func.params) with
  | Ptr (Struct _) -> ()
  | t -> Alcotest.failf "rvSop type %a" Types.pp t);
  (* one heap allocation becomes three: application, replica, shadow *)
  Alcotest.(check int) "3 mallocs" 3
    (count_insts_in f (function Malloc _ -> true | _ -> false));
  (* the pointer store *lastNxtPtr = n expands to 4 stores total:
     app, replica, shadow ROP, shadow NSOP; plus the data stores (2) and
     null-init stores (4) and the two rvSop stores *)
  Alcotest.(check int) "12 stores" 12
    (count_insts_in f (function Store _ -> true | _ -> false))

(* --- Figure 2.10: getSum under SDS --- *)

let test_fig_2_10_getsum_sds () =
  let tp = Dpmr.transform sds (Progs.linked_list ()) in
  let f = Prog.func tp "getSum" in
  (* (n, n_r, n_s): non-pointer return adds no rvSop *)
  Alcotest.(check int) "3 params" 3 (List.length f.Func.params);
  (* every load gained a replica comparison: count cbr edges into the
     detect block *)
  let detect_branches =
    List.fold_left
      (fun acc (b : Func.block) ->
        match b.Func.term with
        | Cbr (_, _, l) when l = "dpmr.detect" -> acc + 1
        | _ -> acc)
      0 f.Func.blocks
  in
  Alcotest.(check bool) "load checks branch to the detect block" true
    (detect_branches >= 2)

(* --- Figures 4.1/4.2: MDS versions --- *)

let test_fig_4_1_createnode_mds () =
  let tp = Dpmr.transform mds (Progs.linked_list ()) in
  let f = Prog.func tp "createNode" in
  (* rvRopPtr + data + (last, last_r) = 4 parameters *)
  Alcotest.(check int) "4 params" 4 (List.length f.Func.params);
  (* rvRopPtr : LL** *)
  (match snd (List.hd f.Func.params) with
  | Ptr (Ptr (Struct _)) -> ()
  | t -> Alcotest.failf "rvRopPtr type %a" Types.pp t);
  Alcotest.(check int) "2 mallocs" 2
    (count_insts_in f (function Malloc _ -> true | _ -> false));
  (* stores: each of the 3 original stores doubles, plus one rvRopPtr
     store = 7 (Figure 4.1) *)
  Alcotest.(check int) "7 stores" 7
    (count_insts_in f (function Store _ -> true | _ -> false))

let test_fig_4_2_getsum_mds () =
  let tp = Dpmr.transform mds (Progs.linked_list ()) in
  let f = Prog.func tp "getSum" in
  Alcotest.(check int) "2 params" 2 (List.length f.Func.params);
  (* MDS never geps shadow structs *)
  Alcotest.(check int) "no shadow field addressing" 0
    (count_insts_in f (function
      | Gep_field (_, s, _, _) ->
          String.length s > 6 && String.sub s 0 6 = "satsdw"
      | _ -> false))

(* --- §2.9/§4.1: SDS compares loaded pointers, MDS cannot --- *)

let pointer_load_prog () =
  let p = Progs.fresh () in
  Tenv.define_struct p.Prog.tenv "Cfg" [ Ptr i64 ];
  Prog.add_global p
    { Prog.gname = "table"; gty = arr i64 4; ginit = Prog.Gagg [ Prog.Gint 5L; Prog.Gint 6L; Prog.Gint 7L; Prog.Gint 8L ] };
  Prog.add_global p
    { Prog.gname = "cfg"; gty = Struct "Cfg"; ginit = Prog.Gagg [ Prog.Gptr_global "table" ] };
  let b = Builder.create p ~name:"main" ~params:[] ~ret:i32 () in
  let tptr = Builder.load b (Ptr i64) (Builder.gep_field b (Global "cfg") 0) in
  let v = Builder.load b i64 (Builder.gep_index b tptr (Builder.i64c 1)) in
  Builder.call0 b (Direct "print_int") [ v ];
  Builder.ret b (Some (Builder.i32c 0));
  p

let run_with_poked_pointer mode =
  let p = pointer_load_prog () in
  let cfg = { Config.default with Config.mode } in
  let tp = Dpmr.transform cfg p in
  let vm = Dpmr.vm_dpmr ~mode tp in
  (* corrupt the APPLICATION's stored pointer (replica left intact) *)
  let addr = Dpmr_vm.Vm.global_address vm "cfg" in
  Dpmr_memsim.Mem.write_int vm.Dpmr_vm.Vm.mem addr 8 0x31337L;
  Dpmr_vm.Vm.run vm

let test_sds_detects_corrupted_pointer_at_load () =
  let r = run_with_poked_pointer Config.Sds in
  Alcotest.(check bool)
    ("SDS flags the pointer load itself: " ^ Outcome.to_string r.Outcome.outcome)
    true (Outcome.is_dpmr_detect r)

let test_mds_cannot_compare_loaded_pointers () =
  (* MDS never compares pointer loads (§4.2): the corruption survives the
     load and the program only fails later, dereferencing the wild
     pointer *)
  let r = run_with_poked_pointer Config.Mds in
  Alcotest.(check bool)
    ("MDS fails only at the dereference: " ^ Outcome.to_string r.Outcome.outcome)
    true (Outcome.is_crash r)

(* --- main/mainAug splitting (§3.1.1) --- *)

let test_main_aug_split () =
  List.iter
    (fun cfg ->
      let tp = Dpmr.transform cfg (Progs.argv_prog ()) in
      Alcotest.(check bool) "mainAug exists" true (Prog.has_func tp "mainAug");
      let m = Prog.func tp "main" in
      (* synthesized main keeps the original signature *)
      Alcotest.(check int) "main has 2 params" 2 (List.length m.Func.params);
      let aug = Prog.func tp "mainAug" in
      let expected = if cfg.Config.mode = Config.Sds then 4 else 3 in
      Alcotest.(check int)
        (Printf.sprintf "mainAug has %d params" expected)
        expected
        (List.length aug.Func.params))
    [ sds; mds ]

(* --- temporal mask semantics: exactly k of 64 loads checked --- *)

let test_temporal_mask_density () =
  (* a straight-line program with 64 identical loads under temporal-1/8:
     exactly 8 replica loads must execute.  We measure by comparing cost
     against the all-loads and static-0 ends. *)
  let mk_prog () =
    let p = Progs.fresh () in
    let b = Builder.create p ~name:"main" ~params:[] ~ret:i32 () in
    let x = Builder.malloc b ~count:(Builder.i64c 4) i64 in
    Builder.store b i64 (Builder.i64c 3) (Builder.gep_index b x (Builder.i64c 0));
    let acc = Builder.local b i64 (Builder.i64c 0) in
    Builder.for_ b ~from:(Builder.i64c 0) ~below:(Builder.i64c 64) (fun _ ->
        let v = Builder.load b i64 (Builder.gep_index b x (Builder.i64c 0)) in
        Builder.set b i64 acc (Builder.add b W64 (Builder.get b i64 acc) v));
    Builder.call0 b (Direct "print_int") [ Builder.get b i64 acc ];
    Builder.ret b (Some (Builder.i32c 0));
    p
  in
  let cost policy =
    let cfg = { sds with Config.policy } in
    (Dpmr.run_dpmr cfg (mk_prog ())).Outcome.cost
  in
  let c18 = cost (Config.Temporal Config.temporal_mask_1_8) in
  let c78 = cost (Config.Temporal Config.temporal_mask_7_8) in
  Alcotest.(check bool) "denser mask costs more" true (Int64.compare c78 c18 > 0);
  (* both produce correct output *)
  let r = Dpmr.run_dpmr { sds with Config.policy = Config.Temporal Config.temporal_mask_1_8 } (mk_prog ()) in
  Alcotest.(check string) "output" "192" r.Outcome.output

let suites =
  [
    ( "fidelity",
      [
        Alcotest.test_case "Fig 2.9: createNode (SDS)" `Quick test_fig_2_9_createnode_sds;
        Alcotest.test_case "Fig 2.10: getSum (SDS)" `Quick test_fig_2_10_getsum_sds;
        Alcotest.test_case "Fig 4.1: createNode (MDS)" `Quick test_fig_4_1_createnode_mds;
        Alcotest.test_case "Fig 4.2: getSum (MDS)" `Quick test_fig_4_2_getsum_mds;
        Alcotest.test_case "SDS compares loaded pointers" `Quick
          test_sds_detects_corrupted_pointer_at_load;
        Alcotest.test_case "MDS cannot compare loaded pointers" `Quick
          test_mds_cannot_compare_loaded_pointers;
        Alcotest.test_case "main/mainAug split (3.1.1)" `Quick test_main_aug_split;
        Alcotest.test_case "temporal mask density" `Quick test_temporal_mask_density;
      ] );
  ]
