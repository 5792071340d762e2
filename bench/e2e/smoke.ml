(* The benchmark's own test, run by [dune runtest]:

   - BENCHMARK.json is well formed and names exactly the workloads and
     metrics this program measures, with their units and directions,
     and every per-layer metric maps to existing end-to-end metrics
     and workloads;
   - the traced executor renders fig-3.6 byte-identically to the
     golden file;
   - the trace it writes validates. *)

module J = Dpmr_trace.Json_check

let name_ok s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let unit_ok s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       s

let str = function J.Str s -> Some s | _ -> None
let num = function J.Num f -> Some f | _ -> None

(** Every problem found in the BENCHMARK.json text [s]. *)
let benchmark_problems s =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (match J.parse s with
  | Error e -> bad "not JSON: %s" e
  | Ok (J.Obj kvs as root) ->
      let keys = List.sort compare (List.map fst kvs) in
      if keys <> [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ] then
        bad "top-level keys are %s" (String.concat "," keys);
      let entries key fields =
        match J.mem key root with
        | Some (J.Arr xs) ->
            List.filter_map
              (function
                | J.Obj kvs as o when List.sort compare (List.map fst kvs) = List.sort compare fields -> Some o
                | _ ->
                    bad "%s: an entry does not have exactly the keys %s" key (String.concat "," fields);
                    None)
              xs
        | _ ->
            bad "%s is not an array" key;
            []
      in
      let field o k = Option.get (J.mem k o) in
      let workloads = entries "workloads" [ "name"; "why" ] in
      let wnames = List.filter_map (fun o -> str (field o "name")) workloads in
      if List.length workloads < 2 || List.length workloads > 8 then bad "want 2 to 8 workloads";
      if wnames <> Catalog.workload_names then
        bad "workloads %s, the benchmark runs %s" (String.concat "," wnames)
          (String.concat "," Catalog.workload_names);
      let check_metrics key fields (want : Catalog.metric list) limit =
        let es = entries key fields in
        if List.length es > limit then bad "%s: more than %d metrics" key limit;
        let got = List.filter_map (fun o -> str (field o "name")) es in
        if got <> List.map (fun (m : Catalog.metric) -> m.Catalog.name) want then
          bad "%s names differ from the metrics the benchmark reports" key;
        List.iter
          (fun o ->
            match (str (field o "name"), str (field o "unit"), str (field o "better")) with
            | Some n, Some u, Some b -> (
                if not (name_ok n) then bad "bad metric name %S" n;
                if not (unit_ok u) then bad "bad unit %S" u;
                match List.find_opt (fun (m : Catalog.metric) -> m.Catalog.name = n) want with
                | Some m ->
                    if m.Catalog.unit_ <> u || Catalog.better_name m.Catalog.better <> b then
                      bad "%s: unit/direction %s/%s, the benchmark uses %s/%s" n u b m.Catalog.unit_
                        (Catalog.better_name m.Catalog.better)
                | None -> ())
            | _ -> bad "%s: name, unit and better must be strings" key)
          es;
        es
      in
      let e2e = check_metrics "end_to_end" [ "name"; "unit"; "better"; "bound" ] Catalog.end_to_end 16 in
      List.iter
        (fun o ->
          match num (field o "bound") with
          | Some b when b > 0. && b <= 0.25 -> ()
          | _ -> bad "end_to_end: every bound must be in (0, 0.25]")
        e2e;
      ignore (check_metrics "per_layer" [ "name"; "unit"; "better" ] Catalog.layer_metrics 128);
      List.iter (fun n -> if not (name_ok n) then bad "bad workload name %S" n) wnames;
      List.iter
        (fun ((m : Catalog.metric), moves) ->
          List.iter
            (fun (target, ws) ->
              if not (List.exists (fun (e : Catalog.metric) -> e.Catalog.name = target) Catalog.end_to_end)
              then bad "%s maps to unknown end-to-end metric %s" m.Catalog.name target;
              List.iter
                (fun w ->
                  if not (List.mem w wnames) then bad "%s maps to unknown workload %s" m.Catalog.name w)
                ws)
            moves)
        Catalog.per_layer
  | Ok _ -> bad "not a JSON object");
  List.rev !problems

let run ~benchmark ~fig_golden =
  let problems = ref (benchmark_problems (Proc.read_file benchmark)) in
  let out = "smoke-fig-3.6.txt" and trace = "smoke-fig-3.6.trace.json" in
  let st, _ = Traced.campaign ~seed:Env.golden_seed ~ids:[ "fig-3.6" ] out in
  if not (String.equal (Proc.read_file out) (Proc.read_file fig_golden)) then
    problems := !problems @ [ "traced fig-3.6 differs from " ^ fig_golden ];
  (match Traced.write_trace st trace with
  | Ok n when n > 1 -> ()
  | Ok _ -> problems := !problems @ [ "trace has no spans" ]
  | Error m -> problems := !problems @ [ "trace does not validate: " ^ m ]);
  !problems
