(* Settings shared by every workload of one benchmark invocation. *)

type t = {
  bin : string;  (** absolute directory holding dpmr_cli.exe and dpmr_serve.exe *)
  work : string;  (** scratch root for per-run directories *)
  golden : string;  (** directory of the seed-42 golden outputs *)
  seed : int;
  seconds : float;  (** measuring time per workload run *)
  jobs : int;  (** J: worker domains of the report CLI and the daemon *)
}

(** J = min(nproc, 4): every core works, and the load generator never
    opens more connections than there are cores. *)
let default_jobs () = min 4 (Domain.recommended_domain_count ())

let cli t = Filename.concat t.bin "dpmr_cli.exe"
let serve t = Filename.concat t.bin "dpmr_serve.exe"

(** The seed whose outputs are pinned byte for byte under [golden/]. *)
let golden_seed = 42

let golden_file t name = Filename.concat t.golden name

(** Golden bytes to compare against, when this seed has them. *)
let golden_for t name =
  if t.seed <> golden_seed then None
  else Some (Proc.read_file (golden_file t name))

let now = Unix.gettimeofday

(** Repeat [f i] until [seconds] are spent — starting a repetition only
    when the previous one's duration still fits — with at least three
    repetitions so every run has a median. *)
let rep_loop t f =
  let min_reps = 3 in
  let t0 = now () in
  let last = ref 0. in
  let i = ref 0 in
  while !i < min_reps || (now () -. t0 +. !last <= t.seconds && !i < 10_000) do
    let t1 = now () in
    f !i;
    last := now () -. t1;
    incr i
  done
