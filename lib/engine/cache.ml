(** Content-addressed, crash-durable result cache — sharded by job-hash
    prefix so concurrent appenders (worker domains of one process, or
    several processes federating one cache directory) never contend on a
    single file.

    Classifications are persisted as line-delimited JSON across
    [_dpmr_cache/results-<x>.jsonl], one shard per leading hex digit of
    the job hash (16 shards).  The pre-sharding single file
    [results.jsonl] is still read and migrated into the shards on load.
    Durability against process death is the design center:

    - every record is framed with a CRC32 of its payload, so garbage
      bytes, merged lines and bit flips are detected, not parsed;
    - a torn tail (a record cut short by a crash mid-append) is dropped
      and counted on load, and the shard is repaired so later appends
      cannot merge into the torn bytes;
    - each record is pushed to the OS in a single [write] as soon as it
      is appended (shard files are opened [O_APPEND], so concurrent
      appenders interleave at record granularity, never mid-record) and
      fsync'd every [flush_every] added records per shard, so an
      interrupted campaign resumes from the last flushed record instead
      of restarting;
    - compaction (dropping stale-salt and damaged lines) writes to
      [results-<x>.jsonl.tmp] and renames over the original — a crash
      mid-compaction leaves the old shard intact.

    Damage of any kind degrades to misses and is counted in {!stats};
    it is never an error and never a wrong result. *)

module Experiment = Dpmr_fi.Experiment

let default_dir = "_dpmr_cache"
let shard_count = 16
let file_of dir = Filename.concat dir "results.jsonl"

let shard_file dir i = Filename.concat dir (Printf.sprintf "results-%x.jsonl" i)
let tmp_of path = path ^ ".tmp"
let default_flush_every = 64

(* Job hashes are 16 lowercase hex digits; anything else (hand-edited
   keys in tests) falls back to a modulus of the first byte. *)
let shard_of_key key =
  if key = "" then 0
  else
    match key.[0] with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | c -> Char.code c land (shard_count - 1)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evicted : int;
  mutable damaged : int;
  mutable added : int;
  mutable forked : int;
}

type shard = {
  path : string;
  tbl : (string, Experiment.classification) Hashtbl.t;
  mutable chan : out_channel option;
  mutable since_sync : int;  (** appends since the last fsync *)
  mu : Mutex.t;
}

type t = {
  dir : string;
  salt : string;
  flush_every : int;
  shards : shard array;
  stats : stats;
  stats_mu : Mutex.t;
}

(* ---------------- CRC32 (IEEE 802.3) record framing ---------------- *)

(* built eagerly: records are framed on several domains at once, and a
   [lazy] forced concurrently raises [CamlinternalLazy.Undefined] *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xffffffff in
  String.iter (fun ch -> c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8)) s;
  !c lxor 0xffffffff

(* A framed line is the payload object with a leading fixed-width crc
   field: [{"crc":"xxxxxxxx",<payload minus its '{'>]. The offset is
   constant, so unframing is two substring operations — and the result
   is still one flat JSON object. *)
let crc_prefix = "{\"crc\":\""
let crc_prefix_len = String.length crc_prefix + 8 + 2 (* ..."xxxxxxxx", *)

let frame payload =
  Printf.sprintf "%s%08x\",%s" crc_prefix (crc32 payload)
    (String.sub payload 1 (String.length payload - 1))

let unframe line =
  let n = String.length line in
  if n <= crc_prefix_len || not (String.starts_with ~prefix:crc_prefix line) then None
  else if not (line.[crc_prefix_len - 2] = '"' && line.[crc_prefix_len - 1] = ',') then None
  else
    match int_of_string_opt ("0x" ^ String.sub line 8 8) with
    | None -> None
    | Some crc ->
        let payload = "{" ^ String.sub line crc_prefix_len (n - crc_prefix_len) in
        if crc32 payload = crc then Some payload else None

type decoded = Entry of Job.entry | Damaged

let decode line =
  match unframe line with
  | None -> Damaged
  | Some payload -> (
      match Job.entry_of_line payload with Some e -> Entry e | None -> Damaged)

(* ---------------- raw file access ---------------- *)

(** Complete lines plus whether the file ends in a torn (newline-less)
    record — [input_line] cannot make that distinction. *)
let read_raw path =
  if not (Sys.file_exists path) then ([], false)
  else
    let content = In_channel.with_open_bin path In_channel.input_all in
    if content = "" then ([], false)
    else
      let parts = String.split_on_char '\n' content in
      let rec split acc = function
        | [ last ] -> (List.rev acc, last <> "")
        | x :: rest -> split (x :: acc) rest
        | [] -> (List.rev acc, false)
      in
      split [] parts

let sync_channel oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

(** Atomic rewrite: temp file, fsync, rename.  A crash at any point
    leaves either the old file or the complete new one. *)
let compact ~dir path lines =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let tmp = tmp_of path in
  let oc = open_out tmp in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  sync_channel oc;
  close_out oc;
  Sys.rename tmp path

(* ---------------- load / lookup / append ---------------- *)

let load ?(dir = default_dir) ?(flush_every = default_flush_every) ~salt () =
  let stats = { hits = 0; misses = 0; evicted = 0; damaged = 0; added = 0; forked = 0 } in
  let shards =
    Array.init shard_count (fun i ->
        {
          path = shard_file dir i;
          tbl = Hashtbl.create 64;
          chan = None;
          since_sync = 0;
          mu = Mutex.create ();
        })
  in
  let live = Array.make shard_count [] (* reversed live lines per shard *) in
  let dirty = Array.make shard_count false (* shard must be rewritten *) in
  (* absorb one raw line; [src] is the shard file it was read from
     ([None] for the legacy single file).  A line survives into [live]
     of its {e key's} shard; any line that is dropped (damaged,
     stale-salt, duplicate) or moves shard dirties the file(s) involved
     so compaction repairs them. *)
  let absorb ~src line =
    let dirty_src () = match src with Some j -> dirty.(j) <- true | None -> () in
    match decode line with
    | Damaged ->
        stats.damaged <- stats.damaged + 1;
        dirty_src ()
    | Entry e ->
        let i = shard_of_key e.Job.key in
        if e.Job.salt <> salt then begin
          stats.evicted <- stats.evicted + 1;
          dirty_src ()
        end
        else if Hashtbl.mem shards.(i).tbl e.Job.key then begin
          (* duplicate append (legacy overlap, or two federated writers
             racing on one key): keep the first, drop this line *)
          dirty_src ();
          dirty.(i) <- true
        end
        else begin
          Hashtbl.replace shards.(i).tbl e.Job.key e.Job.cls;
          live.(i) <- line :: live.(i);
          match src with
          | Some j when j = i -> ()
          | Some j ->
              (* mis-homed record: rewrite both files *)
              dirty.(j) <- true;
              dirty.(i) <- true
          | None -> dirty.(i) <- true (* legacy migration *)
        end
  in
  Array.iteri
    (fun i sh ->
      let lines, torn = read_raw sh.path in
      List.iter (absorb ~src:(Some i)) lines;
      if torn then begin
        stats.damaged <- stats.damaged + 1;
        dirty.(i) <- true
      end)
    shards;
  (* migrate the pre-sharding single file, if present *)
  let legacy = file_of dir in
  let legacy_lines, legacy_torn = read_raw legacy in
  List.iter (absorb ~src:None) legacy_lines;
  if legacy_torn then stats.damaged <- stats.damaged + 1;
  Array.iteri
    (fun i sh -> if dirty.(i) then compact ~dir sh.path (List.rev live.(i)))
    shards;
  if Sys.file_exists legacy then Sys.remove legacy;
  if Sys.file_exists (tmp_of legacy) then Sys.remove (tmp_of legacy);
  { dir; salt; flush_every = max 1 flush_every; shards; stats; stats_mu = Mutex.create () }

let entries t = Array.fold_left (fun n sh -> n + Hashtbl.length sh.tbl) 0 t.shards

let bump t f = Mutex.protect t.stats_mu (fun () -> f t.stats)

let mem t key =
  let sh = t.shards.(shard_of_key key) in
  Mutex.protect sh.mu (fun () -> Hashtbl.mem sh.tbl key)

let find t key =
  let sh = t.shards.(shard_of_key key) in
  let r = Mutex.protect sh.mu (fun () -> Hashtbl.find_opt sh.tbl key) in
  (match r with
  | Some _ -> bump t (fun s -> s.hits <- s.hits + 1)
  | None -> bump t (fun s -> s.misses <- s.misses + 1));
  r

let channel t sh =
  match sh.chan with
  | Some oc -> oc
  | None ->
      (try Sys.mkdir t.dir 0o755 with Sys_error _ -> ());
      let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 sh.path in
      sh.chan <- Some oc;
      oc

let add t ?(aux = false) ?snap ~key ~spec_repr cls =
  let sh = t.shards.(shard_of_key key) in
  let added =
    Mutex.protect sh.mu (fun () ->
        if Hashtbl.mem sh.tbl key then false
        else begin
          Hashtbl.replace sh.tbl key cls;
          let line =
            frame (Job.entry_to_line { Job.key; salt = t.salt; spec_repr; snap; cls }) ^ "\n"
          in
          let oc = channel t sh in
          (match Chaos.truncation ~key ~len:(String.length line) with
          | None -> output_string oc line
          | Some n ->
              (* chaos: tear this append mid-record; the CRC frame turns
                 it (and any line it merges with) into a counted miss on
                 the next load *)
              output_substring oc line 0 n);
          (* push the whole record to the OS now: with O_APPEND this is
             one write, so a concurrent appender in another process can
             interleave between records but never inside one *)
          flush oc;
          sh.since_sync <- sh.since_sync + 1;
          if sh.since_sync >= t.flush_every then begin
            sync_channel oc;
            sh.since_sync <- 0
          end;
          true
        end)
  in
  if added then
    bump t (fun s -> if aux then s.forked <- s.forked + 1 else s.added <- s.added + 1)

let flush t =
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          match sh.chan with
          | Some oc when sh.since_sync > 0 ->
              sync_channel oc;
              sh.since_sync <- 0
          | _ -> ()))
    t.shards

let close t =
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          match sh.chan with
          | Some oc ->
              close_out oc;
              sh.chan <- None
          | None -> ()))
    t.shards

let stats t = t.stats

(* ---------------- maintenance (CLI [cache] subcommand) ---------------- *)

let all_files dir =
  file_of dir :: List.init shard_count (fun i -> shard_file dir i)

let clear ?(dir = default_dir) () =
  let n =
    List.fold_left
      (fun n path ->
        let lines, _torn = read_raw path in
        List.fold_left
          (fun n l -> match decode l with Entry _ -> n + 1 | Damaged -> n)
          n lines)
      0 (all_files dir)
  in
  List.iter
    (fun path ->
      if Sys.file_exists (tmp_of path) then Sys.remove (tmp_of path);
      if Sys.file_exists path then Sys.remove path)
    (all_files dir);
  (try Sys.rmdir dir with Sys_error _ -> ());
  n

type shard_stats = {
  sh_records : int;  (** intact entries in this shard file *)
  sh_current : int;  (** of those, entries under the given salt *)
  sh_damaged : int;  (** torn, corrupt or CRC-mismatched lines *)
}

type disk_stats = {
  path : string;
  files : int;  (** shard files present on disk (plus any legacy file) *)
  total : int;  (** intact entries on disk *)
  current : int;  (** entries under the given salt *)
  stale : int;  (** entries under any other salt *)
  damaged : int;  (** torn, corrupt or CRC-mismatched lines *)
  torn_tail : bool;  (** some file ends in an unterminated record *)
  bytes : int;
  per_shard : shard_stats array;
      (** one slot per shard file ([shard_count] of them; the legacy
          single file, when present, counts toward the totals only) *)
}

let disk_stats ?(dir = default_dir) ~salt () =
  let files = ref 0 in
  let total = ref 0 and current = ref 0 and damaged = ref 0 in
  let torn_tail = ref false in
  let bytes = ref 0 in
  let per_shard =
    Array.make shard_count { sh_records = 0; sh_current = 0; sh_damaged = 0 }
  in
  let scan ?shard path =
    if Sys.file_exists path then begin
      incr files;
      bytes := !bytes + (Unix.stat path).Unix.st_size;
      let records = ref 0 and cur = ref 0 and dam = ref 0 in
      let lines, torn = read_raw path in
      if torn then begin
        torn_tail := true;
        incr damaged;
        incr dam
      end;
      List.iter
        (fun l ->
          match decode l with
          | Damaged ->
              incr damaged;
              incr dam
          | Entry e ->
              incr total;
              incr records;
              if e.Job.salt = salt then begin
                incr current;
                incr cur
              end)
        lines;
      match shard with
      | Some i ->
          per_shard.(i) <-
            { sh_records = !records; sh_current = !cur; sh_damaged = !dam }
      | None -> ()
    end
  in
  scan (file_of dir);
  List.iteri (fun i path -> scan ~shard:i path) (List.init shard_count (shard_file dir));
  {
    path = dir;
    files = !files;
    total = !total;
    current = !current;
    stale = !total - !current;
    damaged = !damaged;
    torn_tail = !torn_tail;
    bytes = !bytes;
    per_shard;
  }

let disk_stats_to_json (s : disk_stats) =
  let pct part =
    if s.total = 0 then 0. else 100. *. float_of_int part /. float_of_int s.total
  in
  String.concat ""
    [
      "{\n";
      "  \"schema\": \"dpmr-cache-stats/1\",\n";
      Printf.sprintf "  \"dir\": \"%s\",\n" (String.concat "\\\\" (String.split_on_char '\\' s.path) |> String.split_on_char '"' |> String.concat "\\\"");
      Printf.sprintf "  \"files\": %d,\n" s.files;
      Printf.sprintf "  \"shards\": %d,\n" shard_count;
      Printf.sprintf "  \"entries\": { \"total\": %d, \"current\": %d, \"stale\": %d },\n"
        s.total s.current s.stale;
      Printf.sprintf "  \"servable_pct\": %.1f,\n" (pct s.current);
      Printf.sprintf "  \"damaged\": %d,\n" s.damaged;
      Printf.sprintf "  \"torn_tail\": %b,\n" s.torn_tail;
      Printf.sprintf "  \"bytes\": %d,\n" s.bytes;
      "  \"per_shard\": [\n";
      String.concat ",\n"
        (Array.to_list
           (Array.mapi
              (fun i (sh : shard_stats) ->
                Printf.sprintf
                  "    { \"shard\": %d, \"records\": %d, \"current\": %d, \"damaged\": %d }"
                  i sh.sh_records sh.sh_current sh.sh_damaged)
              s.per_shard));
      "\n  ]\n";
      "}\n";
    ]
