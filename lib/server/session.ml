(** Per-connection session state: client identity, token-bucket quota,
    and the programs this client registered.

    The token bucket refills continuously at [rate] requests per second
    up to [burst]; a request that finds no token is answered with a
    [quota] error and costs nothing.  [rate <= 0] disables the quota
    (the loopback/benchmark configuration).

    Registration parses and verifies textual IR once, on the session's
    domain, then publishes a builder under a content-addressed name
    ["@ir/<hash>"] in the [Workloads] dynamic registry — from there the
    ordinary engine path applies: specs hash the name, the federated
    cache serves repeats, and each worker domain lowers the program
    once into its domain-local context. *)

module Text = Dpmr_ir.Text
module Verifier = Dpmr_ir.Verifier
module Workloads = Dpmr_workloads.Workloads

(* ---------------- token bucket ---------------- *)

type bucket = {
  rate : float;  (** tokens per second *)
  burst : float;
  mutable tokens : float;
  mutable last : float;  (** last refill timestamp *)
  mu : Mutex.t;
}

let bucket ~rate ~burst =
  if rate <= 0. then None
  else
    Some
      {
        rate;
        burst = Float.max 1. burst;
        tokens = Float.max 1. burst;
        last = Unix.gettimeofday ();
        mu = Mutex.create ();
      }

let try_take b =
  Mutex.protect b.mu (fun () ->
      let now = Unix.gettimeofday () in
      b.tokens <- Float.min b.burst (b.tokens +. ((now -. b.last) *. b.rate));
      b.last <- now;
      if b.tokens >= 1. then begin
        b.tokens <- b.tokens -. 1.;
        true
      end
      else false)

(* ---------------- sessions ---------------- *)

type t = {
  sid : int;
  mutable client : string;  (** from the hello request; for logs only *)
  quota : bucket option;
  mutable served : int;  (** requests answered, errors included *)
  mutable rejected : int;  (** quota rejections *)
}

let next_sid = Atomic.make 1

let create ?(quota_rps = 0.) ?(quota_burst = 64) () =
  {
    sid = Atomic.fetch_and_add next_sid 1;
    client = "";
    quota = bucket ~rate:quota_rps ~burst:(float_of_int quota_burst);
    served = 0;
    rejected = 0;
  }

let admit t =
  match t.quota with
  | None -> true
  | Some b ->
      let ok = try_take b in
      if not ok then t.rejected <- t.rejected + 1;
      ok

(* ---------------- program registration ---------------- *)

let name_of_ir src = Printf.sprintf "@ir/%016Lx" (Dpmr_memsim.Rng.fnv1a64 src)

(** Parse, verify and publish textual IR; returns the content-addressed
    workload name (stable across sessions and hosts: the same source
    always mints the same name, so the result cache federates across
    submitters).  [Error] renders the parse/verification failure. *)
let register_ir src =
  match
    let prog = Text.parse src in
    Dpmr_vm.Extern.declare_signatures prog;
    Verifier.check_prog prog;
    prog
  with
  | exception Text.Parse_error (line, msg) ->
      Error (Printf.sprintf "parse error at line %d: %s" line msg)
  | exception e -> Error (Printf.sprintf "invalid program: %s" (Printexc.to_string e))
  | _prog ->
      let name = name_of_ir src in
      Workloads.register
        {
          Workloads.name;
          description = "registered over the serving protocol";
          build =
            (fun ?scale:_ () ->
              (* per-domain rebuild from source: a [Prog.t] carries
                 internal caches and must never cross domains *)
              let p = Text.parse src in
              Dpmr_vm.Extern.declare_signatures p;
              p);
        };
      Ok name
