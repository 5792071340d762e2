(* Differential property testing: for randomly generated (error-free)
   programs, the SDS- and MDS-transformed builds must verify, run to
   completion, and produce byte-identical output to the golden build.
   This is the strongest automated statement of the §1.1 invariant that
   application and replica state do not diverge under error-free
   execution. *)

open Dpmr_ir
open Types
open Inst
module B = Builder
module Config = Dpmr_core.Config
module Dpmr = Dpmr_core.Dpmr
module Outcome = Dpmr_vm.Outcome

(* program shape: two 16-element i64 arrays, an accumulator, a linked
   cell, and a string buffer; ops are closed over valid indices *)
type op =
  | Store_arr of int * int * int  (* arr, idx, value *)
  | Copy_elt of int * int * int  (* src idx -> dst idx across arrays *)
  | Acc_load of int * int
  | Acc_arith of int
  | Box_round of int  (* heap round-trip through a helper call *)
  | Str_round of int  (* strcpy a word, accumulate strlen *)
  | Sort_prefix  (* qsort the first 8 elements of arr 0 *)

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map3 (fun a i v -> Store_arr (a land 1, i land 15, v land 1023)) nat nat nat);
      (3, map3 (fun a i j -> Copy_elt (a land 1, i land 15, j land 15)) nat nat nat);
      (4, map2 (fun a i -> Acc_load (a land 1, i land 15)) nat nat);
      (3, map (fun v -> Acc_arith ((v land 255) + 1)) nat);
      (2, map (fun v -> Box_round (v land 511)) nat);
      (2, map (fun v -> Str_round (v land 3)) nat);
      (1, return Sort_prefix);
    ]

let words = [| "alpha"; "beta"; "gamma"; "delta" |]

let build_prog ops =
  let p = Prog.create () in
  Dpmr_vm.Extern.declare_signatures p;
  let str8 = Ptr (arr i8 0) in
  (* helper: box a value on the heap *)
  let b = B.create p ~name:"box" ~params:[ ("v", i64) ] ~ret:(Ptr i64) () in
  let cell = B.malloc b i64 in
  B.store b i64 (B.param b 0) cell;
  B.ret b (Some cell);
  (* i64 comparator for qsort *)
  let b = B.create p ~name:"cmp" ~params:[ ("a", str8); ("b", str8) ] ~ret:i32 () in
  let va = B.load b i64 (B.bitcast b (Ptr i64) (B.param b 0)) in
  let vb = B.load b i64 (B.bitcast b (Ptr i64) (B.param b 1)) in
  let lt = B.icmp b Islt W64 va vb and gt = B.icmp b Isgt W64 va vb in
  B.ret b (Some (B.int_cast b W32 (B.sub b W8 gt lt)));
  let b = B.create p ~name:"main" ~params:[] ~ret:i32 () in
  let arr0 = B.malloc b ~name:"arr0" ~count:(B.i64c 16) i64 in
  let arr1 = B.malloc b ~name:"arr1" ~count:(B.i64c 16) i64 in
  (* initialize: uninitialized reads are themselves detectable divergence *)
  B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 16) (fun i ->
      B.store b i64 i (B.gep_index b arr0 i);
      B.store b i64 (B.mul b W64 i (B.i64c 2)) (B.gep_index b arr1 i));
  let arr_of = function 0 -> arr0 | _ -> arr1 in
  let acc = B.local b ~name:"acc" i64 (B.i64c 0) in
  let strbuf = B.bitcast b str8 (B.malloc b ~count:(B.i64c 16) i8) in
  let word_globals =
    Array.mapi
      (fun i w ->
        B.bitcast b str8
          (B.global b ~name:(Printf.sprintf "dw%d" i) (arr i8 8) (Prog.Gstring w)))
      words
  in
  List.iter
    (fun op ->
      match op with
      | Store_arr (a, i, v) ->
          B.store b i64 (B.i64c v) (B.gep_index b (arr_of a) (B.i64c i))
      | Copy_elt (a, i, j) ->
          let v = B.load b i64 (B.gep_index b (arr_of a) (B.i64c i)) in
          B.store b i64 v (B.gep_index b (arr_of (1 - a)) (B.i64c j))
      | Acc_load (a, i) ->
          let v = B.load b i64 (B.gep_index b (arr_of a) (B.i64c i)) in
          B.set b i64 acc (B.add b W64 (B.get b i64 acc) v)
      | Acc_arith v ->
          let x = B.get b i64 acc in
          let y = B.mul b W64 x (B.i64c 3) in
          B.set b i64 acc (B.add b W64 y (B.i64c v))
      | Box_round v ->
          let cell = B.call1 b (Direct "box") [ B.i64c v ] in
          let got = B.load b i64 cell in
          B.set b i64 acc (B.add b W64 (B.get b i64 acc) got);
          B.free b cell
      | Str_round i ->
          ignore (B.call b (Direct "strcpy") [ strbuf; word_globals.(i) ]);
          let l = B.call1 b (Direct "strlen") [ strbuf ] in
          B.set b i64 acc (B.add b W64 (B.get b i64 acc) l)
      | Sort_prefix ->
          B.call0 b (Direct "qsort")
            [ B.bitcast b str8 arr0; B.i64c 8; B.i64c 8; Fun_addr "cmp" ])
    ops;
  (* output: accumulator + both array checksums *)
  B.call0 b (Direct "print_int") [ B.get b i64 acc ];
  B.call0 b (Direct "putchar") [ B.i32c 32 ];
  let ck arrv =
    let s = B.local b i64 (B.i64c 0) in
    B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 16) (fun i ->
        let v = B.load b i64 (B.gep_index b arrv i) in
        let m = B.mul b W64 (B.get b i64 s) (B.i64c 31) in
        B.set b i64 s (B.add b W64 m v));
    B.get b i64 s
  in
  B.call0 b (Direct "print_int") [ ck arr0 ];
  B.call0 b (Direct "putchar") [ B.i32c 32 ];
  B.call0 b (Direct "print_int") [ ck arr1 ];
  B.ret b (Some (B.i32c 0));
  p

let print_ops ops =
  String.concat ";"
    (List.map
       (function
         | Store_arr (a, i, v) -> Printf.sprintf "st(%d,%d,%d)" a i v
         | Copy_elt (a, i, j) -> Printf.sprintf "cp(%d,%d,%d)" a i j
         | Acc_load (a, i) -> Printf.sprintf "ld(%d,%d)" a i
         | Acc_arith v -> Printf.sprintf "ar(%d)" v
         | Box_round v -> Printf.sprintf "box(%d)" v
         | Str_round i -> Printf.sprintf "str(%d)" i
         | Sort_prefix -> "sort")
       ops)

let arb_ops =
  QCheck.make ~print:print_ops QCheck.Gen.(list_size (int_range 1 40) op_gen)

let run_all_modes ops =
  let p = build_prog ops in
  Verifier.check_prog p;
  let golden = Dpmr.run_plain p in
  let check cfg =
    let tp = Dpmr.transform cfg p in
    Verifier.check_prog tp;
    let r = Dpmr.run_dpmr cfg p in
    r.Outcome.outcome = Outcome.Normal && r.Outcome.output = golden.Outcome.output
  in
  golden.Outcome.outcome = Outcome.Normal
  && check Config.default
  && check { Config.default with Config.mode = Config.Mds }
  && check { Config.default with Config.diversity = Config.Rearrange_heap }
  && check
       {
         Config.default with
         Config.mode = Config.Mds;
         diversity = Config.Zero_before_free;
       }

let prop_differential =
  QCheck.Test.make ~name:"random programs: golden = SDS = MDS output" ~count:60
    arb_ops run_all_modes

let prop_temporal_policy =
  QCheck.Test.make ~name:"random programs: temporal policy preserves output" ~count:25
    arb_ops
    (fun ops ->
      let p = build_prog ops in
      let golden = Dpmr.run_plain p in
      let cfg =
        { Config.default with Config.policy = Config.Temporal Config.temporal_mask_1_2 }
      in
      let r = Dpmr.run_dpmr cfg p in
      r.Outcome.output = golden.Outcome.output)

let prop_dsa_scope =
  QCheck.Test.make ~name:"random programs: DSA+MDS preserves output" ~count:25 arb_ops
    (fun ops ->
      let p = build_prog ops in
      let golden = Dpmr.run_plain p in
      let cfg = { Config.default with Config.mode = Config.Mds } in
      let tp = Dpmr_dsa.Dsa_dpmr.transform cfg p in
      Verifier.check_prog tp;
      let vm = Dpmr.vm_dpmr ~mode:Config.Mds tp in
      let r = Dpmr_vm.Vm.run vm in
      r.Outcome.output = golden.Outcome.output)

(* Snapshot/fork campaign execution: a real fault-injection grid run
   with copy-on-write snapshot forking (the default engine path) must
   classify every job byte-identically to running each one from zero
   (--no-snapshot).  This drives the whole pipeline the forks depend on:
   structural diff limits, the watched baseline, frame restoring, and
   the cell riders that inherit the baseline outcome. *)
let test_snapshot_vs_zero_grid () =
  let module Experiment = Dpmr_fi.Experiment in
  let module Inject = Dpmr_fi.Inject in
  let module Job = Dpmr_engine.Job in
  let module Engine = Dpmr_engine.Engine in
  let module Workloads = Dpmr_workloads.Workloads in
  let app = "mcf" in
  let entry = Workloads.find app in
  let e =
    Experiment.make
      (Experiment.workload app (fun () -> entry.Workloads.build ~scale:1 ()))
  in
  let mk = Job.make e ~workload:app ~scale:1 ~run_seed:42L in
  let cfg = { Config.default with Config.diversity = Config.Rearrange_heap } in
  let specs =
    mk Experiment.Golden
    :: mk (Experiment.Nofi_dpmr cfg)
    :: List.concat_map
         (fun kind ->
           List.map
             (fun site -> mk (Experiment.Fi_dpmr (cfg, kind, site)))
             (Experiment.sites e kind))
         [ Inject.Heap_array_resize 50; Inject.Immediate_free ]
  in
  let run snapshots =
    let eng = Engine.create ~jobs:1 ~use_cache:false ~snapshots ~progress:false () in
    let r = Engine.run_specs eng specs in
    Engine.close eng;
    r
  in
  let line c =
    Job.entry_to_line { Job.key = ""; salt = ""; spec_repr = ""; snap = None; cls = c }
  in
  Alcotest.(check (list string))
    "snapshot forks classify like from-zero runs"
    (List.map line (run false))
    (List.map line (run true))

(* Fault-last numbering: the transform numbers every register and block
   that exists only because of the injected fault after all the ids the
   uninjected program's transform creates too.  A fault-injected member
   then equals its cell baseline at every lowered position outside the
   fault's own code, so its purely positional divergence frontier is one
   block in the site's function, at the member's [__fi_mark] call, and a
   fork's capture happens right before that call. *)
let test_fault_last_numbering () =
  let module Experiment = Dpmr_fi.Experiment in
  let module Inject = Dpmr_fi.Inject in
  let module Workloads = Dpmr_workloads.Workloads in
  let module Lower = Dpmr_vm.Lower in
  let module Vm = Dpmr_vm.Vm in
  let app = "mcf" in
  let entry = Workloads.find app in
  let e =
    Experiment.make
      (Experiment.workload app (fun () -> entry.Workloads.build ~scale:1 ()))
  in
  let mds = { Config.default with Config.mode = Config.Mds } in
  let kinds =
    [ Inject.Heap_array_resize 50; Inject.Immediate_free; Inject.Off_by_one; Inject.Wild_store 4096 ]
  in
  (* (baseline, members) per cell *)
  let cells =
    List.concat_map
      (fun kind ->
        let members mk = Array.of_list (List.map mk (Experiment.sites e kind)) in
        let fi cfg = members (fun s -> Experiment.Fi_dpmr (cfg, kind, s)) in
        [
          (Experiment.Golden, members (fun s -> Experiment.Fi_stdapp (kind, s)));
          (Experiment.Nofi_dpmr Config.default, fi Config.default);
          (Experiment.Nofi_dpmr mds, fi mds);
        ])
      kinds
  in
  let site_of = function
    | Experiment.Fi_stdapp (k, s) | Experiment.Fi_dpmr (_, k, s) -> (k, s)
    | Experiment.Golden | Experiment.Nofi_dpmr _ -> assert false
  in
  let is_mark = function
    | Lower.Lcall (_, Lower.Lextern (_, "__fi_mark"), _, _) -> true
    | _ -> false
  in
  let sds_free = ref 0 and forks = ref 0 in
  List.iter
    (fun (baseline, members) ->
      let bp = Experiment.prepare e baseline in
      (* per member: is its frontier exactly its [__fi_mark] call? *)
      let at_mark =
        Array.map (fun v ->
          let kind, site = site_of v in
          let name = Inject.kind_name kind ^ " at " ^ Inject.site_name site in
          let p = Experiment.prepare e v in
          let finite =
            match Lower.diff_limits bp.Experiment.plowered p.Experiment.plowered with
            | None -> Alcotest.failf "%s: no common prefix" name
            | Some limits ->
                Hashtbl.fold
                  (fun fname row acc ->
                    let acc = ref acc in
                    Array.iteri
                      (fun bidx pos -> if pos < max_int then acc := (fname, bidx, pos) :: !acc)
                      row;
                    !acc)
                  limits []
          in
          (match v with
          | Experiment.Fi_dpmr (cfg, Inject.Immediate_free, _) when cfg.Config.mode = Config.Sds ->
              incr sds_free
          | _ -> ());
          match finite with
          | [ (fname, bidx, pos) ] ->
              (* the transform renames [main] to [mainAug] *)
              let site_func =
                if site.Inject.func = "main" && p.Experiment.pmode <> None then "mainAug"
                else site.Inject.func
              in
              Alcotest.(check string) (name ^ ": frontier function") site_func fname;
              let insts =
                (Hashtbl.find p.Experiment.plowered.Lower.funcs fname).Lower.lblocks.(bidx)
                  .Lower.linsts
              in
              if is_mark insts.(pos) then true
              else begin
                (* the one exception: an untransformed wild-store site
                   that stores through the address the instruction before
                   it computed.  The baseline's lowering fuses that pair
                   into one superinstruction, so the frontier is the
                   address computation right before [__fi_mark]. *)
                (match (v, insts.(pos)) with
                | ( Experiment.Fi_stdapp (Inject.Wild_store _, _),
                    (Lower.Lgep_index _ | Lower.Lgep_field _) )
                  when is_mark insts.(pos + 1) -> ()
                | _ -> Alcotest.failf "%s: frontier is not the __fi_mark call" name);
                false
              end
          | l -> Alcotest.failf "%s: %d finite limits, expected 1" name (List.length l))
        members
      in
      let g = Experiment.plan_group e members in
      Array.iteri
        (fun i plan ->
          match plan with
          | Experiment.Fork snap ->
              incr forks;
              let p = g.Experiment.g_prepared.(i) in
              let seed = e.Experiment.seed and budget = e.Experiment.budget in
              let lowered = p.Experiment.plowered in
              let r =
                match p.Experiment.pmode with
                | None -> Dpmr.resume_plain ~seed ~budget ~lowered p.Experiment.pprog snap
                | Some mode ->
                    Dpmr.resume_transformed ~seed ~budget ~lowered ~mode p.Experiment.pprog snap
              in
              let mark_cost = Int64.add (Vm.snapshot_cost snap) (Int64.of_int Dpmr_vm.Cost.call_base) in
              let first = Option.value r.Outcome.fi_first_cost ~default:0L in
              if at_mark.(i) then
                Alcotest.(check int64) "capture right before __fi_mark" mark_cost first
              else
                Alcotest.(check bool) "capture before __fi_mark" true (first > mark_cost)
          | Experiment.Zero | Experiment.Inherit _ -> ())
        g.Experiment.g_plans)
    cells;
  Alcotest.(check bool) "SDS immediate-free members checked" true (!sds_free > 0);
  Alcotest.(check bool) "members forked" true (!forks > 0)

(* Watched baselines at the VM level, with hand-built limit tables
   (function name -> per-block position to fire before).  Each captured
   snapshot is resumed on the same program, which must equal the
   from-zero [Vm.run] in outcome, output and cost; a member whose
   frontier is never reached inherits the baseline's run, which must
   equal it too. *)
module Vm = Dpmr_vm.Vm
module Lower = Dpmr_vm.Lower
module Progs = Dpmr_testprogs.Progs

let run_repr (r : Outcome.run) =
  Printf.sprintf "%s | %S | cost %Ld" (Outcome.to_string r.Outcome.outcome)
    r.Outcome.output r.Outcome.cost

let limits rows =
  let t = Hashtbl.create 4 in
  List.iter (fun (fname, row) -> Hashtbl.replace t fname row) rows;
  t

(* a row firing at [pos] of block [bidx] only *)
let at lowered fname bidx pos =
  let lf = Hashtbl.find lowered.Lower.funcs fname in
  let row = Array.make (Array.length lf.Lower.lblocks) max_int in
  row.(bidx) <- pos;
  (fname, row)

let watched_results p members =
  let lowered = Lower.lower_prog p in
  let from_zero = run_repr (Dpmr.run_plain ~lowered p) in
  let results =
    Dpmr.watched_plain ~lowered p
      (Array.of_list (List.map (fun rows -> limits (rows lowered)) members))
  in
  let resolve = function
    | Vm.Wsnap snap -> "snap " ^ run_repr (Dpmr.resume_plain ~lowered p snap)
    | Vm.Wshared r -> "shared " ^ run_repr r
    | Vm.Wzero -> "zero"
  in
  (from_zero, Array.to_list (Array.map resolve results))

let test_watched_qsort () =
  let p = Progs.qsort_prog () in
  (* a frontier inside the comparator is reached in an extern callback:
     no fork can resume there *)
  let _, got = watched_results p [ (fun l -> [ at l "cmp" 0 0 ]) ] in
  Alcotest.(check (list string)) "comparator frontier" [ "zero" ] got;
  (* one run resolving four members in turn: mid-block in main's entry
     block (before qsort), inside the comparator (refused), at the entry
     of the print loop's body (after qsort returned: the extern nesting
     must be back to zero), and never *)
  let z, got =
    watched_results p
      [
        (fun l -> [ at l "main" 0 3 ]);
        (fun l -> [ at l "cmp" 0 0 ]);
        (fun l -> [ at l "main" 2 0 ]);
        (fun _ -> [ ("absent", [| 0 |]) ]);
      ]
  in
  Alcotest.(check (list string))
    "mid-block, callback, block entry, never"
    [ "snap " ^ z; "zero"; "snap " ^ z; "shared " ^ z ]
    got

let test_watched_call_in_flight () =
  (* mid-block in [box], called directly from main's loop body: the
     capture holds main's frame with its [Lcall] in flight *)
  let z, got = watched_results (Progs.boxed ()) [ (fun l -> [ at l "box" 0 1 ]) ] in
  Alcotest.(check (list string)) "frontier below an in-flight call" [ "snap " ^ z ] got

let test_watched_hot_loop () =
  let p = Progs.fresh () in
  let b = Progs.main_b p in
  let acc = B.local b i64 (B.i64c 0) in
  B.for_ b ~from:(B.i64c 0) ~below:(B.i64c 2000) (fun i ->
      B.set b i64 acc (B.add b W64 (B.get b i64 acc) i));
  B.call0 b (Direct "print_int") [ B.get b i64 acc ];
  Progs.finish b;
  (* unwatched, the loop runs compiled *)
  let promos = Vm.tier_stats () in
  ignore (Dpmr.run_plain p);
  Alcotest.(check bool) "the loop promotes when unwatched" true
    (Vm.tier_stats () > promos);
  (* watched, it runs step by step and reaches the frontier at the
     loop's exit block *)
  let z, got = watched_results p [ (fun l -> [ at l "main" 3 0 ]) ] in
  Alcotest.(check (list string)) "frontier after a hot loop" [ "snap " ^ z ] got

(* A capture mid-block lies past the block's budget test, which the
   baseline has already run: the resume continues without testing again,
   as the from-zero run does.  The budget here runs out inside [main]'s
   straight-line entry block, which reaches no other block boundary, so
   the from-zero run prints and ends normally. *)
let test_resume_past_budget () =
  let p = Progs.fresh () in
  let b = Progs.main_b p in
  let acc = ref (B.i64c 0) in
  for _ = 1 to 20 do
    acc := B.add b W64 !acc (B.i64c 1)
  done;
  B.call0 b (Direct "print_int") [ !acc ];
  Progs.finish b;
  let lowered = Lower.lower_prog p in
  let budget = 10L in
  let from_zero = Dpmr.run_plain ~budget ~lowered p in
  Alcotest.(check string) "from zero: normal" "normal"
    (Outcome.to_string from_zero.Outcome.outcome);
  match Dpmr.watched_plain ~budget ~lowered p [| limits [ at lowered "main" 0 15 ] |] with
  | [| Vm.Wsnap snap |] ->
      Alcotest.(check string) "resume = from zero" (run_repr from_zero)
        (run_repr (Dpmr.resume_plain ~budget ~lowered p snap))
  | _ -> Alcotest.fail "expected a capture at the frontier"

(* A frontier anywhere: one member whose frontier is a single random
   position of a random program, plain or transformed under SDS with
   rearrange-heap — any function (sorted by name), any block, any
   position from its first instruction up to its terminator.  However
   the watch resolves, the member's run must be the spec's: a capture
   resumed, the baseline's own run when the frontier is never reached,
   or a from-zero run when it is reached inside the qsort callback. *)
let prop_frontier_anywhere =
  QCheck.Test.make ~name:"random programs: a frontier anywhere resumes to the spec's run"
    ~count:40
    QCheck.(pair arb_ops (quad bool small_nat small_nat small_nat))
    (fun (ops, (transformed, fpick, bpick, ipick)) ->
      let p = build_prog ops in
      let cfg = { Config.default with Config.diversity = Config.Rearrange_heap } in
      let prog = if transformed then Dpmr.transform cfg p else p in
      let lowered = Lower.lower_prog prog in
      let vm () =
        if transformed then Dpmr.vm_dpmr ~lowered ~mode:cfg.Config.mode prog
        else Dpmr.vm_plain ~lowered prog
      in
      let names =
        List.sort String.compare
          (Hashtbl.fold (fun name _ acc -> name :: acc) lowered.Lower.funcs [])
      in
      let fname = List.nth names (fpick mod List.length names) in
      let blocks = (Hashtbl.find lowered.Lower.funcs fname).Lower.lblocks in
      let bidx = bpick mod Array.length blocks in
      let row = Array.make (Array.length blocks) max_int in
      row.(bidx) <- ipick mod (Array.length blocks.(bidx).Lower.linsts + 1);
      let r =
        match Vm.run_watched (vm ()) [| limits [ (fname, row) ] |] with
        | [| Vm.Wsnap snap |] -> Vm.resume (vm ()) snap
        | [| Vm.Wshared r |] -> r
        | [| Vm.Wzero |] -> Vm.run (vm ())
        | _ -> assert false
      in
      run_repr r = run_repr (Vm.run_reference (vm ())))

let suites =
  [
    ( "differential",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_differential;
          prop_temporal_policy;
          prop_dsa_scope;
          prop_frontier_anywhere;
        ]
      @ [
          Alcotest.test_case "snapshot grid = from-zero grid" `Quick
            test_snapshot_vs_zero_grid;
          Alcotest.test_case "fault-last numbering: frontier at __fi_mark" `Quick
            test_fault_last_numbering;
          Alcotest.test_case "watched qsort: Wzero, Wsnap, Wshared" `Quick
            test_watched_qsort;
          Alcotest.test_case "watched: call in flight" `Quick
            test_watched_call_in_flight;
          Alcotest.test_case "watched: hot loop before frontier" `Quick
            test_watched_hot_loop;
          Alcotest.test_case "resume mid-block past the budget" `Quick
            test_resume_past_budget;
        ] );
  ]
