(** Wire protocol of the DPMR serving daemon.

    Frames are length-prefixed: a 4-byte big-endian payload length
    followed by the payload, one flat JSON object per frame — the same
    single-line convention as the result cache ([Job.parse_flat_object]
    parses both), so the protocol needs no JSON dependency and tolerates
    unknown fields.  Every payload carries the schema version in ["v"];
    a peer speaking a different version is answered with a [bad-request]
    error, never a parse failure.

    Requests reference programs by name: a built-in workload, or a
    content-addressed ["@ir/<hash>"] name minted by a [register]
    request carrying textual IR.  Variants are flat scalar fields using
    the exact canonical atoms of the cache identity ([Job.repr]), parsed
    by the modules that own their types ([Config], [Inject]) — the same
    parsers the CLI calls — so a request, its cache key and its
    batch-CLI equivalent can never disagree on what was asked. *)

module Config = Dpmr_core.Config
module Inject = Dpmr_fi.Inject
module Experiment = Dpmr_fi.Experiment
module Job = Dpmr_engine.Job

let version = 1

let max_frame = 16 * 1024 * 1024
(** Upper bound on one frame's payload: large enough for any IR program
    we ship, small enough to refuse a garbage length prefix. *)

(* ---------------- request / response model ---------------- *)

(** One detection-verdict request.  [golden] runs the untransformed
    program; [plain] injects without the DPMR transformation
    ([Fi_stdapp]); otherwise the config fields select the DPMR build.
    [site] indexes the deterministic [Inject.sites] list of the
    program; [site_ref] names the site outright (function, block,
    in-block index) and wins over [site] when present — the dispatcher
    uses it so workers need no site-list resolution round-trip.
    [budget = 0L] means "resolve from the experiment context" (~20x the
    golden cost, the batch default).  [forensics] additionally runs the
    request under a trace sink and returns the corruption→detection
    report. *)
type run_params = {
  workload : string;
  scale : int;
  exp_seed : int64;
  run_seed : int64;
  budget : int64;
  golden : bool;
  plain : bool;
  kind : Inject.kind option;
  site : int;
  site_ref : Inject.site option;
  mode : Config.mode;
  diversity : Config.diversity;
  policy : Config.policy;
  cfg_seed : int64;
  forensics : bool;
}

let default_run =
  {
    workload = "art";
    scale = 1;
    exp_seed = 42L;
    run_seed = 42L;
    budget = 0L;
    golden = false;
    plain = false;
    kind = None;
    site = 0;
    site_ref = None;
    mode = Config.Sds;
    diversity = Config.No_diversity;
    policy = Config.All_loads;
    cfg_seed = 42L;
    forensics = false;
  }

let config_of (p : run_params) =
  { Config.mode = p.mode; diversity = p.diversity; policy = p.policy; seed = p.cfg_seed }

type body =
  | Hello of string  (** client identification, echoed in logs *)
  | Run of run_params
  | Batch of int
      (** batch header: the next [n] frames on this connection are [Run]
          requests forming one batch.  The server executes them as one
          engine batch (pool parallelism, shared snapshot cells) and
          answers with [n] frames in input order, each tagged with the
          header's request id and its batch index ([encode_response
          ?index]) so a desynchronized stream fails loudly. *)
  | Register of string  (** textual IR; the response carries the minted name *)
  | Stats
  | Drain
  | Ping

type request = { rid : int; body : body }

type error_code =
  | Bad_request
  | Unknown_workload
  | Quota
  | Busy  (** admission refused: the daemon is at [--max-conns] *)
  | Failed  (** the supervisor gave up: deadline / retries exhausted / fatal *)
  | Draining
  | Internal

let error_code_to_string = function
  | Bad_request -> "bad-request"
  | Unknown_workload -> "unknown-workload"
  | Quota -> "quota"
  | Busy -> "busy"
  | Failed -> "failed"
  | Draining -> "draining"
  | Internal -> "internal"

let error_code_of_string = function
  | "bad-request" -> Some Bad_request
  | "unknown-workload" -> Some Unknown_workload
  | "quota" -> Some Quota
  | "busy" -> Some Busy
  | "failed" -> Some Failed
  | "draining" -> Some Draining
  | "internal" -> Some Internal
  | _ -> None

type verdict = {
  cls : Experiment.classification;
  cached : bool;  (** served from the federated result cache *)
  wall_us : int;  (** server-side handling time, microseconds *)
  vforensics : string option;  (** forensics report JSON, when requested *)
}

type reply =
  | Verdict of verdict
  | Registered of string  (** content-addressed program name *)
  | Stats_json of string  (** nested JSON, shipped as one string field *)
  | Ack of string
  | Error of error_code * string

type response = { rrid : int; reply : reply }

(* ---------------- encoding ---------------- *)

let esc = Job.json_escape

let encode_request { rid; body } =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"v\":%d,\"id\":%d" version rid;
  (match body with
  | Hello client -> add ",\"t\":\"hello\",\"client\":\"%s\"" (esc client)
  | Register ir -> add ",\"t\":\"register\",\"ir\":\"%s\"" (esc ir)
  | Stats -> add ",\"t\":\"stats\""
  | Drain -> add ",\"t\":\"drain\""
  | Ping -> add ",\"t\":\"ping\""
  | Batch n -> add ",\"t\":\"batch\",\"n\":%d" n
  | Run p ->
      add ",\"t\":\"run\",\"workload\":\"%s\",\"scale\":%d" (esc p.workload) p.scale;
      add ",\"eseed\":%Ld,\"rseed\":%Ld,\"budget\":%Ld" p.exp_seed p.run_seed p.budget;
      add ",\"golden\":%b,\"plain\":%b" p.golden p.plain;
      add ",\"kind\":%s"
        (match p.kind with Some k -> Printf.sprintf "\"%s\"" (Inject.kind_repr k) | None -> "null");
      add ",\"site\":%d" p.site;
      (match p.site_ref with
      | None -> ()
      | Some s ->
          add ",\"sfunc\":\"%s\",\"sblock\":\"%s\",\"sidx\":%d" (esc s.Inject.func)
            (esc s.Inject.block) s.Inject.index);
      add ",\"mode\":\"%s\",\"diversity\":\"%s\",\"policy\":\"%s\",\"cseed\":%Ld"
        (Config.mode_name p.mode)
        (Config.diversity_name p.diversity)
        (Config.policy_repr p.policy) p.cfg_seed;
      add ",\"forensics\":%b" p.forensics);
  Buffer.add_char b '}';
  Buffer.contents b

let encode_response ?index { rrid; reply } =
  let b = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"v\":%d,\"id\":%d" version rrid;
  (match index with Some i -> add ",\"i\":%d" i | None -> ());
  (match reply with
  | Ack msg -> add ",\"t\":\"ok\",\"msg\":\"%s\"" (esc msg)
  | Registered name -> add ",\"t\":\"registered\",\"name\":\"%s\"" (esc name)
  | Stats_json json -> add ",\"t\":\"stats\",\"json\":\"%s\"" (esc json)
  | Error (code, msg) ->
      add ",\"t\":\"error\",\"code\":\"%s\",\"msg\":\"%s\"" (error_code_to_string code)
        (esc msg)
  | Verdict v ->
      let c = v.cls in
      add ",\"t\":\"verdict\"";
      add ",\"sf\":%b,\"co\":%b,\"ndet\":%b,\"ddet\":%b,\"timeout\":%b" c.Experiment.sf
        c.Experiment.co c.Experiment.ndet c.Experiment.ddet c.Experiment.timeout;
      add ",\"t2d\":%s"
        (match c.Experiment.t2d with Some t -> Int64.to_string t | None -> "null");
      add ",\"cost\":%Ld,\"peak_heap\":%d" c.Experiment.cost c.Experiment.peak_heap;
      add ",\"cached\":%b,\"wall_us\":%d" v.cached v.wall_us;
      add ",\"forensics\":%s"
        (match v.vforensics with
        | Some j -> Printf.sprintf "\"%s\"" (esc j)
        | None -> "null"));
  Buffer.add_char b '}';
  Buffer.contents b

(* ---------------- decoding ---------------- *)

type 'a parse = ('a, string) result

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let fields_of line =
  match Job.parse_flat_object line with
  | Some fields -> Ok fields
  | None -> Error "malformed frame (not a flat JSON object)"

let str fields k =
  match List.assoc_opt k fields with
  | Some (`String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" k)

let int_field fields k ~default =
  match List.assoc_opt k fields with
  | Some (`Int i) -> Ok (Int64.to_int i)
  | None -> Ok default
  | _ -> Error (Printf.sprintf "field %S must be an integer" k)

let int64_field fields k ~default =
  match List.assoc_opt k fields with
  | Some (`Int i) -> Ok i
  | None -> Ok default
  | _ -> Error (Printf.sprintf "field %S must be an integer" k)

let bool_field fields k ~default =
  match List.assoc_opt k fields with
  | Some (`Bool b) -> Ok b
  | None -> Ok default
  | _ -> Error (Printf.sprintf "field %S must be a boolean" k)

let str_field fields k ~default =
  match List.assoc_opt k fields with
  | Some (`String s) -> Ok s
  | None -> Ok default
  | _ -> Error (Printf.sprintf "field %S must be a string" k)

let opt_str fields k =
  match List.assoc_opt k fields with
  | Some (`String s) -> Ok (Some s)
  | Some `Null | None -> Ok None
  | _ -> Error (Printf.sprintf "field %S must be a string or null" k)

let opt_int64 fields k =
  match List.assoc_opt k fields with
  | Some (`Int i) -> Ok (Some i)
  | Some `Null | None -> Ok None
  | _ -> Error (Printf.sprintf "field %S must be an integer or null" k)

let check_version fields =
  match List.assoc_opt "v" fields with
  | Some (`Int v) when Int64.to_int v = version -> Ok ()
  | Some (`Int v) ->
      Error (Printf.sprintf "protocol version %Ld not supported (this end speaks %d)" v version)
  | _ -> Error "missing protocol version field \"v\""

let atom name parse s =
  match parse s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad %s %S" name s)

let decode_run fields =
  let* workload = str_field fields "workload" ~default:default_run.workload in
  let* scale = int_field fields "scale" ~default:default_run.scale in
  let* exp_seed = int64_field fields "eseed" ~default:default_run.exp_seed in
  let* run_seed = int64_field fields "rseed" ~default:exp_seed in
  let* budget = int64_field fields "budget" ~default:0L in
  let* golden = bool_field fields "golden" ~default:false in
  let* plain = bool_field fields "plain" ~default:false in
  let* kind_s = opt_str fields "kind" in
  let* kind =
    match kind_s with
    | None | Some "none" -> Ok None
    | Some s ->
        let* k = atom "fault kind" Inject.kind_of_string s in
        Ok (Some k)
  in
  let* site = int_field fields "site" ~default:0 in
  let* sfunc = opt_str fields "sfunc" in
  let* site_ref =
    match sfunc with
    | None -> Ok None
    | Some func ->
        let* block = str fields "sblock" in
        let* index = int_field fields "sidx" ~default:0 in
        Ok (Some { Inject.func; block; index })
  in
  let* mode_s = str_field fields "mode" ~default:"sds" in
  let* mode = atom "mode" Config.mode_of_string mode_s in
  let* div_s = str_field fields "diversity" ~default:"no-diversity" in
  let* diversity = atom "diversity" Config.diversity_of_string div_s in
  let* pol_s = str_field fields "policy" ~default:"all-loads" in
  let* policy = atom "policy" Config.policy_of_string pol_s in
  let* cfg_seed = int64_field fields "cseed" ~default:exp_seed in
  (* one replica is the only build: a frame asking for another replica
     count is refused, never served as a one-replica verdict *)
  let* replicas = int_field fields "replicas" ~default:1 in
  let* () =
    if replicas = 1 then Ok ()
    else Error (Printf.sprintf "unsupported replicas %d (only 1)" replicas)
  in
  (* diversity is one axis: a frame still naming a diversity family is
     refused, never served as a build without it *)
  let* family = str_field fields "families" ~default:"" in
  let* () =
    if family = "" then Ok ()
    else Error (Printf.sprintf "unsupported family %S (name it as the diversity)" family)
  in
  (* any-mismatch is the only check: a frame asking for another voting
     rule is refused, never served as an any-mismatch verdict *)
  let* vote = str_field fields "vote" ~default:"any-mismatch" in
  let* () =
    if vote = "any-mismatch" then Ok ()
    else Error (Printf.sprintf "unsupported vote %S (only any-mismatch)" vote)
  in
  let* forensics = bool_field fields "forensics" ~default:false in
  Ok
    {
      workload;
      scale;
      exp_seed;
      run_seed;
      budget;
      golden;
      plain;
      kind;
      site;
      site_ref;
      mode;
      diversity;
      policy;
      cfg_seed;
      forensics;
    }

let decode_request line =
  let* fields = fields_of line in
  let* () = check_version fields in
  let* rid = int_field fields "id" ~default:0 in
  let* t = str fields "t" in
  let* body =
    match t with
    | "hello" ->
        let* client = str_field fields "client" ~default:"" in
        Ok (Hello client)
    | "register" ->
        let* ir = str fields "ir" in
        Ok (Register ir)
    | "stats" -> Ok Stats
    | "drain" -> Ok Drain
    | "ping" -> Ok Ping
    | "run" ->
        let* p = decode_run fields in
        Ok (Run p)
    | "batch" ->
        let* n = int_field fields "n" ~default:0 in
        if n < 1 then Error "batch size must be >= 1" else Ok (Batch n)
    | other -> Error (Printf.sprintf "unknown request type %S" other)
  in
  Ok { rid; body }

(* The batch index a response frame was tagged with ([encode_response
   ?index]); decoded separately so the [response] record (and every
   single-request call site) keeps its historical shape. *)
let decode_response_index line =
  match fields_of line with
  | Error _ -> None
  | Ok fields -> (
      match List.assoc_opt "i" fields with Some (`Int i) -> Some (Int64.to_int i) | _ -> None)

let decode_response line =
  let* fields = fields_of line in
  let* () = check_version fields in
  let* rrid = int_field fields "id" ~default:0 in
  let* t = str fields "t" in
  let* reply =
    match t with
    | "ok" ->
        let* msg = str_field fields "msg" ~default:"" in
        Ok (Ack msg)
    | "registered" ->
        let* name = str fields "name" in
        Ok (Registered name)
    | "stats" ->
        let* json = str fields "json" in
        Ok (Stats_json json)
    | "error" ->
        let* code_s = str fields "code" in
        let* code = atom "error code" error_code_of_string code_s in
        let* msg = str_field fields "msg" ~default:"" in
        Ok (Error (code, msg))
    | "verdict" ->
        let* sf = bool_field fields "sf" ~default:false in
        let* co = bool_field fields "co" ~default:false in
        let* ndet = bool_field fields "ndet" ~default:false in
        let* ddet = bool_field fields "ddet" ~default:false in
        let* timeout = bool_field fields "timeout" ~default:false in
        let* t2d = opt_int64 fields "t2d" in
        let* cost = int64_field fields "cost" ~default:0L in
        let* peak_heap = int_field fields "peak_heap" ~default:0 in
        let* cached = bool_field fields "cached" ~default:false in
        let* wall_us = int_field fields "wall_us" ~default:0 in
        let* vforensics = opt_str fields "forensics" in
        Ok
          (Verdict
             {
               cls = { Experiment.sf; co; ndet; ddet; timeout; t2d; cost; peak_heap };
               cached;
               wall_us;
               vforensics;
             })
    | other -> Error (Printf.sprintf "unknown response type %S" other)
  in
  Ok { rrid; reply }

(* ---------------- framing ---------------- *)

exception Closed

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.write_frame: frame too large";
  (* one buffer, one write: a frame never interleaves with another
     writer's bytes as long as each frame has a single writer *)
  let buf = Bytes.create (4 + n) in
  Bytes.set_uint8 buf 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 buf 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 buf 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 buf 3 (n land 0xff);
  Bytes.blit_string payload 0 buf 4 n;
  write_all fd buf 0 (4 + n)

let read_exact fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then buf
    else
      let n = Unix.read fd buf off (len - off) in
      if n = 0 then raise Closed else go (off + n)
  in
  go 0

(** [None] on a clean EOF at a frame boundary; raises {!Closed} on EOF
    mid-frame and [Failure] on an over-limit length prefix. *)
let read_frame fd =
  match read_exact fd 4 with
  | exception Closed -> None
  | hdr ->
      let n =
        (Bytes.get_uint8 hdr 0 lsl 24)
        lor (Bytes.get_uint8 hdr 1 lsl 16)
        lor (Bytes.get_uint8 hdr 2 lsl 8)
        lor Bytes.get_uint8 hdr 3
      in
      if n > max_frame then failwith "Protocol.read_frame: frame length exceeds limit";
      Some (Bytes.to_string (read_exact fd n))
