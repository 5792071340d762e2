(** Graceful shutdown on SIGINT/SIGTERM, shared by the daemon and batch
    CLI runs.

    Two shapes:

    - {!graceful_exit} — for batch commands: on the first signal, run
      the registered cleanups (flush cache frames, dump telemetry) and
      exit with the conventional {!exit_status}; a second signal during
      cleanup exits immediately, so a wedged flush cannot make the
      process unkillable.
    - {!notify} — for the daemon: the handler only invokes the given
      callback (set a draining flag, wake the accept loop); the server
      owns the actual wind-down.

    OCaml runs signal handlers at safepoints on some running domain, so
    handlers here may execute full OCaml code — but cleanups should
    still be idempotent and quick. *)

let default_signals = [ Sys.sigint; Sys.sigterm ]

(** The shell's status for a process ended by signal [s]: [128 + n]
    for POSIX number [n].  OCaml names signals by its own negative
    constants ([Sys.sigint] is [-6]); the two {!default_signals} map to
    SIGINT 2 and SIGTERM 15, and a number OCaml does not name is
    already the system's. *)
let exit_status s =
  128 + if s = Sys.sigint then 2 else if s = Sys.sigterm then 15 else s

let cleanups : (unit -> unit) list ref = ref []
let cleaning = Atomic.make false

let on_cleanup f = cleanups := f :: !cleanups

let run_cleanups () =
  if not (Atomic.exchange cleaning true) then
    List.iter (fun f -> try f () with _ -> ()) !cleanups

let graceful_exit ?(signals = default_signals) () =
  List.iter
    (fun signo ->
      try
        Sys.set_signal signo
          (Sys.Signal_handle
             (fun s ->
               if Atomic.get cleaning then exit (exit_status s)
               else begin
                 run_cleanups ();
                 exit (exit_status s)
               end))
      with Invalid_argument _ | Sys_error _ -> ())
    signals

let notify ?(signals = default_signals) f =
  List.iter
    (fun signo ->
      try Sys.set_signal signo (Sys.Signal_handle (fun _ -> f ()))
      with Invalid_argument _ | Sys_error _ -> ())
    signals
