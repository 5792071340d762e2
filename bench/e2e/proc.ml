(* Child processes — the report CLI and the serving daemon, each started
   fresh in its own scratch directory, timed from spawn to reap, with
   peak RSS polled from /proc every 10 ms — and the files around them.
   Every child is reaped before the benchmark exits, on error paths too. *)

let live : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

(* exit on SIGTERM/SIGINT too, so [kill_all] still runs *)
let () =
  at_exit kill_all;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ]

(* OCaml's process creation has no working-directory argument: the
   caller changes directory around the spawn (the benchmark is single-
   threaded whenever it spawns). *)
let spawn ~dir ~stdout ~stderr prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir cwd;
        Unix.close devnull)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) devnull stdout stderr)
  in
  live := pid :: !live;
  pid

let log_fd dir name =
  Unix.openfile (Filename.concat dir name)
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
    0o644

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* ---------------- scratch directories ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(** An empty directory at [path], whatever was there before. *)
let fresh_dir path =
  rm_rf path;
  mkdir_p path;
  path

(* ---------------- /proc probes ---------------- *)

(** Peak resident set of a live process, kB; 0 once it is gone. *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s -> (
      match
        List.find_opt (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' s)
      with
      | None -> 0
      | Some line ->
          let digits = String.to_seq line |> Seq.filter (fun c -> c >= '0' && c <= '9') in
          Option.value ~default:0 (int_of_string_opt (String.of_seq digits)))

(** User+system CPU seconds a live process has consumed so far
    (Linux reports them in clock ticks of 1/100 s). *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | s -> (
      let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
      match String.split_on_char ' ' after with
      | _state :: rest -> (
          match List.filteri (fun i _ -> i = 10 || i = 11) rest with
          | [ ut; st ] -> float_of_int (int_of_string ut + int_of_string st) /. 100.
          | _ -> 0.)
      | [] -> 0.)

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* ---------------- one measured process ---------------- *)

type run = {
  wall : float;  (** spawn to reap, seconds *)
  cpu : float;  (** user + system seconds of the child *)
  rss_mb : float;  (** peak resident set (VmHWM) *)
  out : string;  (** everything the child wrote to stdout *)
  ok : bool;  (** exited with status 0 *)
}

(** Run [prog args] in [dir] to completion.  Stdout is captured through
    a pipe, whose end of file marks the exit, so the wall time is not
    rounded to the 10 ms polling period; stderr goes to [dir/stderr.log]. *)
let measure ~dir prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = log_fd dir "stderr.log" in
  let cpu0 = children_cpu () in
  let t0 = Unix.gettimeofday () in
  let pid = spawn ~dir ~stdout:out_w ~stderr:err prog args in
  Unix.close out_w;
  Unix.close err;
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let hwm = ref 0 in
  let eof = ref false in
  while not !eof do
    (match Unix.select [ out_r ] [] [] 0.01 with
    | [], _, _ -> ()
    | _ ->
        let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
        if n = 0 then eof := true else Buffer.add_subbytes buf chunk 0 n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    hwm := max !hwm (vm_hwm_kb pid)
  done;
  Unix.close out_r;
  let _, status = Unix.waitpid [] pid in
  let wall = Unix.gettimeofday () -. t0 in
  live := List.filter (( <> ) pid) !live;
  {
    wall;
    cpu = children_cpu () -. cpu0;
    rss_mb = float_of_int !hwm /. 1024.;
    out = Buffer.contents buf;
    ok = status = Unix.WEXITED 0;
  }

(* ---------------- the serving daemon ---------------- *)

type daemon = {
  pid : int;
  socket : string;  (** socket path, relative to the benchmark's directory *)
  boot_s : float;  (** spawn to the "ready" line *)
}

exception Daemon_failed of string

(** Start [dpmr_serve] in [dir] on a fresh cache and wait until it
    announces readiness.  The socket path stays relative (and so short)
    whatever the checkout's absolute path is. *)
let start_daemon ~dir ~exe ~workers =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = log_fd dir "serve.log" in
  let t0 = Unix.gettimeofday () in
  let pid =
    spawn ~dir ~stdout:out_w ~stderr:err exe
      [ "--workers"; string_of_int workers; "--socket"; "d.sock"; "--quiet" ]
  in
  Unix.close out_w;
  Unix.close err;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let deadline = t0 +. 60. in
  let rec wait () =
    if Unix.gettimeofday () > deadline then raise (Daemon_failed "no ready line within 60 s");
    match Unix.select [ out_r ] [] [] 0.01 with
    | [], _, _ -> wait ()
    | _ ->
        let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
        if n = 0 then raise (Daemon_failed "exited before ready");
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        if String.contains s '\n' then () else wait ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  (try wait ()
   with e ->
     Unix.close out_r;
     raise e);
  let boot_s = Unix.gettimeofday () -. t0 in
  Unix.close out_r;
  { pid; socket = Filename.concat dir "d.sock"; boot_s }

(** SIGTERM (graceful drain), then wait; SIGKILL after 30 s. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap d.pid
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _ -> live := List.filter (( <> ) d.pid) !live
    | exception Unix.Unix_error _ -> live := List.filter (( <> ) d.pid) !live
  in
  wait ()
