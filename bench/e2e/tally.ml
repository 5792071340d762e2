(* What one workload run produced: samples per metric, operations
   attempted and failed, and every correctness problem found.  A run
   with any problem is reported as incorrect and exits non-zero. *)

type t = {
  mutable samples : (string * float list) list;  (** per metric, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let create () = { samples = []; attempted = 0; failed = 0; problems = [] }

let add t name x =
  let prev = Option.value ~default:[] (List.assoc_opt name t.samples) in
  t.samples <- (name, x :: prev) :: List.remove_assoc name t.samples

let samples t name = List.rev (Option.value ~default:[] (List.assoc_opt name t.samples))

(* a problem repeated by every repetition is reported once *)
let note t msg = if not (List.mem msg t.problems) then t.problems <- t.problems @ [ msg ]

let problem t fmt = Printf.ksprintf (note t) fmt

let check t cond fmt = Printf.ksprintf (fun msg -> if not cond then note t msg) fmt

let correct t = t.problems = []
