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
  seed : int64;  (** drives static-policy coin flips and rearrange-heap *)
  families : string list;
      (** diversity-family names ({!Diversity_family} registry), applied
          to the replica's allocations with per-site deterministic
          seeding *)
}

let default =
  {
    mode = Sds;
    diversity = No_diversity;
    policy = All_loads;
    seed = 42L;
    families = [];
  }

(* The three masks evaluated in §2.7: repeating the printed 32-bit
   constants to 64 bits gives the stated 1/8, 1/2 and 7/8 densities. *)
let temporal_mask_1_8 = 0x8080808080808080L
let temporal_mask_1_2 = 0xAAAAAAAAAAAAAAAAL
let temporal_mask_7_8 = 0xFEFEFEFEFEFEFEFEL

let mode_name = function Sds -> "sds" | Mds -> "mds"

let diversity_name = function
  | No_diversity -> "no-diversity"
  | Pad_malloc n -> Printf.sprintf "pad-malloc-%d" n
  | Zero_before_free -> "zero-before-free"
  | Rearrange_heap -> "rearrange-heap"
  | Pad_alloca n -> Printf.sprintf "pad-alloca-%d" n

let policy_name = function
  | All_loads -> "all-loads"
  | Temporal m ->
      let bits = ref 0 in
      for i = 0 to 63 do
        if Int64.logand (Int64.shift_right_logical m i) 1L = 1L then incr bits
      done;
      Printf.sprintf "temporal-%d/64" !bits
  | Static f -> Printf.sprintf "static-%d%%" (int_of_float (f *. 100.))

(* The families render only when present, as "/n1/F1+F2", so the paper
   grid's labels carry no suffix. *)
let nversion_suffix c =
  match c.families with [] -> "" | fs -> "/n1/" ^ String.concat "+" fs

let name c =
  Printf.sprintf "%s/%s/%s%s" (mode_name c.mode) (diversity_name c.diversity)
    (policy_name c.policy) (nversion_suffix c)
