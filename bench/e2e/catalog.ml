(* What the benchmark measures: its workloads, its end-to-end metrics and
   its per-layer metrics, each per-layer metric with the end-to-end
   metrics (and workloads) it is expected to move.  BENCHMARK.json at the
   repository root must list exactly these names; the [smoke] check
   enforces it, so the two cannot drift apart. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(** In BENCHMARK.json's order; why each one was chosen is stated there
    and in README.md. *)
let workload_names = [ "grid-cold"; "grid-warm"; "overhead-x4"; "serve-open" ]

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(** Every workload reports every end-to-end metric.  A batch workload
    delivers all its verdicts when its report process exits, so its
    verdict latency is the report's wall time; the daemon delivers one
    verdict per request.  See README.md for the per-workload definitions. *)
let end_to_end =
  [
    m "wall_s" "s" Lower;
    m "cpu_s" "s" Lower;
    m "peak_rss_mb" "MB" Lower;
    m "p50_ms" "ms" Lower;
    m "p99_ms" "ms" Lower;
    m "verdicts_per_s" "1/s" Higher;
    m "setup_s" "s" Lower;
  ]

(** Per-layer metrics of the traced run, each with the (end-to-end
    metric, workloads) pairs it should move — written down before any
    change is measured against it. *)
let per_layer : (metric * (string * string list) list) list =
  let cold_ovh = [ "grid-cold"; "overhead-x4" ] and serve = [ "serve-open" ] in
  let exec = [ "grid-cold"; "overhead-x4"; "serve-open" ] in
  [
    (m "experiment.make_s" "s" Lower, [ ("wall_s", exec); ("p99_ms", serve) ]);
    (m "experiment.make_calls" "count" Lower, [ ("wall_s", exec) ]);
    (m "inject.apply_s" "s" Lower, [ ("wall_s", [ "grid-cold"; "serve-open" ]) ]);
    (m "inject.apply_calls" "count" Lower, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "transform.s" "s" Lower, [ ("wall_s", exec) ]);
    (m "transform.calls" "count" Lower, [ ("wall_s", exec) ]);
    (m "transform.insts_ratio" "ratio" Lower, [ ("wall_s", exec); ("cpu_s", exec) ]);
    (m "lower.s" "s" Lower, [ ("wall_s", exec) ]);
    (m "lower.calls" "count" Lower, [ ("wall_s", exec) ]);
    (m "plan.s" "s" Lower, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "plan.self_s" "s" Lower, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "plan.cells" "count" Higher, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "plan.members" "count" Higher, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "plan.forked" "count" Higher, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "plan.inherited" "count" Higher, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "plan.zero" "count" Lower, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "plan.fork_ratio" "ratio" Higher, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "vm.resume_s" "s" Lower, [ ("wall_s", [ "grid-cold" ]); ("cpu_s", [ "grid-cold" ]) ]);
    (m "vm.resume_calls" "count" Higher, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "vm.zero_s" "s" Lower, [ ("wall_s", exec); ("cpu_s", exec) ]);
    (m "vm.zero_calls" "count" Lower, [ ("wall_s", cold_ovh) ]);
    (m "vm.inherit_calls" "count" Higher, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "vm.units" "units" Lower, [ ("cpu_s", cold_ovh) ]);
    (m "vm.zero_units_per_s" "units/s" Higher, [ ("wall_s", exec); ("cpu_s", exec) ]);
    (m "job.hash_s" "s" Lower, [ ("wall_s", [ "grid-warm" ]); ("p50_ms", serve) ]);
    (m "cache.load_s" "s" Lower, [ ("wall_s", [ "grid-warm" ]) ]);
    (m "cache.find_s" "s" Lower, [ ("wall_s", [ "grid-warm" ]); ("p50_ms", serve) ]);
    (m "cache.hit_ratio" "ratio" Higher, [ ("wall_s", [ "grid-warm" ]) ]);
    (m "cache.add_s" "s" Lower, [ ("wall_s", [ "grid-cold"; "serve-open" ]) ]);
    (m "cache.flush_s" "s" Lower, [ ("wall_s", [ "grid-cold" ]); ("p99_ms", serve) ]);
    (m "cache.bytes" "B" Lower, [ ("wall_s", [ "grid-warm" ]); ("setup_s", [ "grid-warm" ]) ]);
    (m "pool.busy_s" "s" Lower, [ ("cpu_s", cold_ovh) ]);
    (m "pool.wall_s" "s" Lower, [ ("wall_s", cold_ovh) ]);
    (m "pool.efficiency" "ratio" Higher, [ ("wall_s", cold_ovh); ("cpu_s", cold_ovh) ]);
    (m "pool.speedup" "ratio" Higher, [ ("wall_s", cold_ovh) ]);
    (m "figures.other_s" "s" Lower, [ ("wall_s", [ "grid-warm" ]) ]);
    (m "server.hit_service_ms.mean" "ms" Lower, [ ("p50_ms", serve) ]);
    ( m "server.miss_service_ms.p99" "ms" Lower,
      [ ("p99_ms", serve); ("wall_s", serve); ("verdicts_per_s", serve) ] );
    (m "server.wait_ms.p99" "ms" Lower, [ ("p99_ms", serve) ]);
    (m "server.hit_ratio" "ratio" Higher, [ ("p50_ms", serve) ]);
    (m "loadgen.late_ms.p99" "ms" Lower, [ ("p50_ms", serve); ("p99_ms", serve) ]);
    (m "server.max_rps" "1/s" Higher, [ ("p99_ms", serve); ("cpu_s", serve) ]);
    (m "trace.wall_s" "s" Lower, [ ("wall_s", [ "grid-cold" ]) ]);
    (m "trace.overhead_pct" "%" Lower, []);
  ]

let layer_metrics = List.map fst per_layer
