(** The production {!Dpmr_engine.Dispatch.transport}: scatter/gather
    over the serving protocol.

    [Dispatch] lives in [lib/engine] and cannot name the protocol (this
    library depends on that one), so the dispatcher takes its transport
    as a record of functions and this module supplies the real one: a
    {!Client} per connection, batches as a header frame plus one [run]
    frame per job, verdicts mapped back to dispatcher outcomes.

    The reply-to-outcome mapping encodes the failure taxonomy:

    - [Verdict] — the verdict; [R_verdict];
    - [Error failed] — the {e remote} supervisor gave up after its own
      deadline/retry/quarantine discipline.  Deterministic, so
      re-dispatching elsewhere would fail identically: [R_failed]
      (a job hole), not a host failure;
    - [Error unknown-workload / bad-request / internal] — this worker
      cannot run the job at all: [R_reject], the dispatcher runs it
      locally;
    - [Error quota / draining / busy] — the {e connection} was refused
      service: [Host_down], the chunk re-dispatches and the host is
      suspected;
    - connection loss, timeouts, torn frames, desynchronized batch
      indices — [Host_down] likewise.

    Specs ship with their injection site named outright ([site_ref]),
    so a worker never pays a site-list resolution round-trip for jobs
    the driver already planned. *)

module Dispatch = Dpmr_engine.Dispatch
module Job = Dpmr_engine.Job
module Experiment = Dpmr_fi.Experiment

let params_of_spec (spec : Job.spec) =
  let base =
    {
      Protocol.default_run with
      Protocol.workload = spec.Job.workload;
      scale = spec.Job.scale;
      exp_seed = spec.Job.exp_seed;
      run_seed = spec.Job.run_seed;
      budget = spec.Job.budget;
    }
  in
  match spec.Job.variant with
  | Experiment.Golden -> { base with Protocol.golden = true }
  | Experiment.Fi_stdapp (kind, site) ->
      { base with Protocol.plain = true; kind = Some kind; site_ref = Some site }
  | Experiment.Nofi_dpmr cfg ->
      {
        base with
        Protocol.mode = cfg.Dpmr_core.Config.mode;
        diversity = cfg.Dpmr_core.Config.diversity;
        policy = cfg.Dpmr_core.Config.policy;
        cfg_seed = cfg.Dpmr_core.Config.seed;
      }
  | Experiment.Fi_dpmr (cfg, kind, site) ->
      {
        base with
        Protocol.kind = Some kind;
        site_ref = Some site;
        mode = cfg.Dpmr_core.Config.mode;
        diversity = cfg.Dpmr_core.Config.diversity;
        policy = cfg.Dpmr_core.Config.policy;
        cfg_seed = cfg.Dpmr_core.Config.seed;
      }

(** [unix:PATH], [HOST:PORT], or a bare socket path. *)
let endpoint_of_addr addr =
  if String.starts_with ~prefix:"unix:" addr then
    Client.Unix_ep (String.sub addr 5 (String.length addr - 5))
  else
    match String.rindex_opt addr ':' with
    | Some i -> (
        let host = String.sub addr 0 i in
        let port = String.sub addr (i + 1) (String.length addr - i - 1) in
        match int_of_string_opt port with
        | Some p when host <> "" -> Client.Tcp_ep (host, p)
        | _ -> Client.Unix_ep addr)
    | None -> Client.Unix_ep addr

let down msg = raise (Dispatch.Host_down msg)

let outcome_of_reply = function
  | Protocol.Verdict v -> Dispatch.R_verdict v.Protocol.cls
  | Protocol.Error (Protocol.Failed, msg) -> Dispatch.R_failed msg
  | Protocol.Error ((Protocol.Quota | Protocol.Draining | Protocol.Busy), msg) -> down msg
  | Protocol.Error ((Protocol.Bad_request | Protocol.Unknown_workload | Protocol.Internal), msg)
    ->
      Dispatch.R_reject msg
  | Protocol.Registered _ | Protocol.Stats_json _ | Protocol.Ack _ ->
      down "unexpected reply type in batch"

let transport ?(timeout = 0.) () =
  {
    Dispatch.connect =
      (fun addr ->
        let c =
          try Client.connect ~timeout (endpoint_of_addr addr)
          with e -> down (Printexc.to_string e)
        in
        {
          Dispatch.c_run_batch =
            (fun items ->
              let params =
                Array.to_list (Array.map (fun (_, spec) -> params_of_spec spec) items)
              in
              let replies =
                try Client.run_batch c params with
                | Dispatch.Host_down _ as e -> raise e
                | Protocol.Closed -> down "connection closed"
                | Unix.Unix_error (e, _, _) -> down (Unix.error_message e)
                | Failure msg -> down msg
              in
              Array.of_list (List.map outcome_of_reply replies));
          c_ping =
            (fun () ->
              match Client.ping c with
              | Protocol.Ack _ -> true
              | _ -> false
              | exception _ -> false);
          c_abort = (fun () -> Client.abort c);
          c_close = (fun () -> Client.close c);
        });
  }
