(** The (N, transform-family, fault-model) detection surface.

    The paper evaluates one replica under one diversity transformation;
    the N-version subsystem turns that point into a surface: replica
    count x family set x fault model.  This module is the surface's
    specification — the grid the harness figure sweeps, the
    configurations each grid point denotes, and the analysis helpers
    (detection conditions, the Equation 3.1-style linear overhead
    model) the figure reports against. *)

module Config = Dpmr_core.Config

(** Replica counts the surface sweeps. *)
let ns = [ 1; 2; 3 ]

(** Family sets per grid column: each standard family alone, plus the
    full stack. *)
let family_sets =
  [
    ("none", []);
    ("layout-perm", [ "layout-perm" ]);
    ("alloc-shuffle", [ "alloc-shuffle" ]);
    ("segment-base", [ "segment-base" ]);
    ("pad-jitter", [ "pad-jitter" ]);
    ("all-families", [ "layout-perm"; "alloc-shuffle"; "segment-base"; "pad-jitter" ]);
  ]

(** The configuration one grid point denotes.  Baseline diversity stays
    [No_diversity]: the surface isolates what the *families* and the
    replica count buy, on top of nothing. *)
let cfg ?(mode = Config.Sds) ~n ~families () =
  { Config.default with Config.mode; replicas = n; families }

(** When does a fault manifest as a detection at a grid point?  The
    §2.5-style condition, generalized across N: any replica that
    disagrees with the application detects. *)
let detection_condition ~n =
  if n = 1 then "app diverges from its single replica at a checked load"
  else Printf.sprintf "app diverges from >= 1 of %d replicas at a checked load" n

(** The naive linear cost model the measured per-replica overhead is
    compared against: replication work scales with N on top of the
    application's own share (Equation 3.1's ratio, extrapolated).
    [single] is the measured N=1 overhead ratio. *)
let linear_overhead ~n ~single = 1.0 +. (float_of_int n *. (single -. 1.0))
