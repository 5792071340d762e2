(* Sample statistics and the JSON helpers the benchmark's reports use.

   Quartiles follow Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) so the numbers printed here are the ones
   a reader recomputes from the samples in the JSON report. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** [(q1, q3)]; both equal the sample when there is only one. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(** Nearest-rank percentile of an already sorted array ([p] in 0..100). *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = percentile_sorted (sorted xs) p

(* ---------------- JSON output ---------------- *)

(** A number with every digit it was measured with; JSON has no NaN or
    infinity, so those render as [null] (and fail the validity checks
    of whoever reads them). *)
let num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let str s = "\"" ^ Dpmr_engine.Job.json_escape s ^ "\""

let obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"

let arr vs = "[" ^ String.concat ", " vs ^ "]"
