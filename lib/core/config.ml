(** DPMR build configuration: replication design × diversity transformation
    × state comparison policy — the three tunable axes the dissertation
    evaluates. *)

(** Pointer-in-memory handling strategy (the key design choice of
    Chapters 2 and 4). *)
type mode =
  | Sds  (** Shadow Data Structures: pointers in memory are comparable;
             ROP/NSOP pairs live in shadow objects (§2.2) *)
  | Mds  (** Mirrored Data Structures: replica memory mirrors application
             memory; replica pointers stored in replica memory (§4.1) *)

(** Diversity transformations (Table 2.8). *)
type diversity =
  | No_diversity  (** implicit diversity from intra-process layout only *)
  | Pad_malloc of int  (** grow replica heap requests by a static amount *)
  | Zero_before_free  (** zero replica buffers prior to deallocation *)
  | Rearrange_heap  (** randomize replica heap object placement *)
  | Pad_alloca of int
      (** grow replica *stack* allocations by a static amount — the
          production-version extension §2.6 sketches ("similar techniques
          could easily be applied to stack memory") *)
  | Layout_perm
      (** displace each replica heap object past 1..3 seeded dummy
          allocations, drawn per site from the config seed *)
  | Pad_jitter
      (** grow each replica heap request by a seeded 0..128-byte pad,
          drawn per site from the config seed *)

(** State comparison policies (§2.7). *)
type policy =
  | All_loads
  | Temporal of int64
      (** 64-bit mask; bit [i] of the rolling counter decides whether load
          check [i mod 64] executes (Table 2.9) *)
  | Static of float  (** compile-time probability that a load site keeps its check *)

type t = {
  mode : mode;
  diversity : diversity;
  policy : policy;
  seed : int64;
      (** drives static-policy coin flips, rearrange-heap, layout-perm and
          pad-jitter *)
}

let default = { mode = Sds; diversity = No_diversity; policy = All_loads; seed = 42L }

(* The three masks evaluated in §2.7: repeating the printed 32-bit
   constants to 64 bits gives the stated 1/8, 1/2 and 7/8 densities. *)
let temporal_mask_1_8 = 0x8080808080808080L
let temporal_mask_1_2 = 0xAAAAAAAAAAAAAAAAL
let temporal_mask_7_8 = 0xFEFEFEFEFEFEFEFEL

let mode_name = function Sds -> "sds" | Mds -> "mds"
let mode_of_string = function "sds" -> Some Sds | "mds" -> Some Mds | _ -> None

let diversity_name = function
  | No_diversity -> "no-diversity"
  | Pad_malloc n -> Printf.sprintf "pad-malloc-%d" n
  | Zero_before_free -> "zero-before-free"
  | Rearrange_heap -> "rearrange-heap"
  | Pad_alloca n -> Printf.sprintf "pad-alloca-%d" n
  | Layout_perm -> "layout-perm"
  | Pad_jitter -> "pad-jitter"

(* A pad size is a non-negative decimal: a negative pad would shrink the
   replica request below the application's, so a fault-free run would
   detect.  A static percentage is one too. *)
let decimal s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then int_of_string_opt s
  else None

let diversity_of_string s =
  (* the first matching prefix wins, so the bare "pad-" goes last *)
  let sized =
    [
      ("pad-malloc-", fun n -> Pad_malloc n);
      ("pad-alloca-", fun n -> Pad_alloca n);
      ("pad-stack-", fun n -> Pad_alloca n);
      ("pad-", fun n -> Pad_malloc n);
    ]
  in
  match s with
  | "no-diversity" | "none" -> Some No_diversity
  | "zero-before-free" -> Some Zero_before_free
  | "rearrange-heap" -> Some Rearrange_heap
  | "layout-perm" -> Some Layout_perm
  | "pad-jitter" -> Some Pad_jitter
  | _ -> (
      match List.find_opt (fun (prefix, _) -> String.starts_with ~prefix s) sized with
      | Some (prefix, mk) ->
          let k = String.length prefix in
          Option.map mk (decimal (String.sub s k (String.length s - k)))
      | None -> None)

let policy_name = function
  | All_loads -> "all-loads"
  | Temporal m ->
      let bits = ref 0 in
      for i = 0 to 63 do
        if Int64.logand (Int64.shift_right_logical m i) 1L = 1L then incr bits
      done;
      Printf.sprintf "temporal-%d/64" !bits
  | Static f -> Printf.sprintf "static-%d%%" (int_of_float (f *. 100.))

(* [policy_name] is for display (it rounds [Static] fractions); the cache
   identity and the wire need full fidelity, so floats render as hex and
   temporal masks as the exact 64-bit pattern. *)
let policy_repr = function
  | All_loads -> "all-loads"
  | Temporal m -> Printf.sprintf "temporal-%Lx" m
  | Static f -> Printf.sprintf "static-%h" f

let policy_of_string s =
  (* besides the spellings below, a policy parses only from its exact
     [policy_repr], so no string has two meanings *)
  let exact p = if policy_repr p = s then Some p else None in
  let after prefix =
    let k = String.length prefix in
    String.sub s k (String.length s - k)
  in
  match s with
  | "all-loads" -> Some All_loads
  | "temporal-1/8" -> Some (Temporal temporal_mask_1_8)
  | "temporal-1/2" -> Some (Temporal temporal_mask_1_2)
  | "temporal-7/8" -> Some (Temporal temporal_mask_7_8)
  | _ when String.starts_with ~prefix:"temporal-" s ->
      Option.bind (Int64.of_string_opt ("0x" ^ after "temporal-")) (fun m -> exact (Temporal m))
  | _ when String.starts_with ~prefix:"static-" s -> (
      let rest = after "static-" in
      match decimal rest with
      | Some pct -> Some (Static (float_of_int pct /. 100.))
      | None -> Option.bind (float_of_string_opt rest) (fun f -> exact (Static f)))
  | _ -> None

let name c =
  Printf.sprintf "%s/%s/%s" (mode_name c.mode) (diversity_name c.diversity)
    (policy_name c.policy)
