(** Rx-style recovery on top of DPMR detection (§1.5, Chapter 6).

    The dissertation positions DPMR and Qin et al.'s Rx as complements:
    "DPMR could be used to detect memory errors, and Rx could be used to
    recover from the detected errors."  This module implements that
    pairing with the coarsest checkpoint — re-execution from the start —
    and Rx's buffer-overflow environment change: after a DPMR detection,
    the program is re-executed with every heap allocation request padded,
    escalating the padding until a re-execution completes cleanly or the
    escalation list is exhausted.

    Deterministically activated overflow faults (the kind classic
    replication cannot mask, §1.2) are exactly the ones this recovers:
    the fault still executes, but the padded environment absorbs it. *)

open Dpmr_ir
open Types
open Inst

(** [pad_heap_requests prog extra_bytes] returns a clone in which every
    heap allocation requests enough additional elements to cover
    [extra_bytes] more bytes — the Rx "pad the overflowed buffer"
    environment change, applied program-wide (the detector does not know
    which buffer overflowed). *)
let pad_heap_requests (prog : Prog.t) extra_bytes =
  let q = Clone.prog prog in
  Prog.iter_funcs q (fun f ->
      List.iter
        (fun (b : Func.block) ->
          b.Func.insts <-
            List.concat_map
              (fun inst ->
                match inst with
                | Malloc (r, ty, n) ->
                    let esz = max 1 (Layout.size_of q.Prog.tenv ty) in
                    let extra_elems = (extra_bytes + esz - 1) / esz in
                    let t = Func.fresh_reg f ~name:"rx_pad" i64 in
                    [
                      Binop (t, Add, W64, n, Cint (W64, Int64.of_int extra_elems));
                      Malloc (r, ty, Reg t);
                    ]
                | other -> [ other ])
              b.Func.insts)
        f.Func.blocks);
  q

type recovery_result = {
  first : Dpmr_vm.Outcome.run;  (** the original (detecting) run *)
  final : Dpmr_vm.Outcome.run;  (** the last run performed *)
  recovered_with : int option;  (** the heap pad, in bytes, that produced a clean run *)
  attempts : int;  (** re-executions performed *)
}

(** [run_with_recovery cfg prog ~escalation] runs [prog] under DPMR; on a
    DPMR detection, re-executes from the initial state with every heap
    request padded by each size in [escalation] (bytes, in order) until a
    run completes normally. *)
let run_with_recovery ?seed ?budget ?args (cfg : Config.t) (prog : Prog.t)
    ~escalation =
  let module Trace = Dpmr_trace.Trace in
  (* phase markers separate the original run from each diversified
     re-execution in a recorded trace *)
  let mark label =
    match Trace.current () with
    | Some s -> Trace.emit_phase s ~label
    | None -> ()
  in
  let run p = Dpmr.run_dpmr ?seed ?budget ?args cfg p in
  mark "rx:first-run";
  let first = run prog in
  match first.Dpmr_vm.Outcome.outcome with
  | Dpmr_vm.Outcome.Dpmr_detect _ ->
      let rec attempt n = function
        | [] -> { first; final = first; recovered_with = None; attempts = n }
        | pad :: rest ->
            let p = pad_heap_requests prog pad in
            mark (Printf.sprintf "rx:retry pad %d" pad);
            let r = run p in
            if r.Dpmr_vm.Outcome.outcome = Dpmr_vm.Outcome.Normal then
              { first; final = r; recovered_with = Some pad; attempts = n + 1 }
            else attempt (n + 1) rest
      in
      attempt 0 escalation
  | _ -> { first; final = first; recovered_with = None; attempts = 0 }
