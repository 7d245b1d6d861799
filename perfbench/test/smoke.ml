(* Tiny-scale smoke test of the benchmark: every workload at scale 1
   for one second, end-to-end and traced.

   usage: smoke.exe DGBENCH RACEDET BENCHMARK_JSON

   Checks that every metric BENCHMARK.json names is printed with its
   unit (and nothing else is), that no operation failed, that the
   per-layer self times add up to the traced wall time, and that a
   different seed changes the traces but not the metric names. *)

module Json = Dgrace_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let run dgbench racedet ~workload ~seed ~trace =
  let args =
    [| dgbench; "--racedet"; racedet; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; "1"; "--trace"; string_of_int trace; "--scale"; "1" |]
  in
  let ic = Unix.open_process_args_in dgbench args in
  let lines = In_channel.input_lines ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> fail "%s seed %d trace %d: non-zero exit" workload seed trace);
  let parse l =
    match Json.parse l with Ok j -> j | Error e -> fail "%s: bad JSON line: %s" workload e
  in
  let result = parse (List.nth lines (List.length lines - 1)) in
  let traces =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"{\"traces\"" l then Json.member "traces" (parse l) else None)
      lines
  in
  (result, Option.value ~default:Json.Null traces)

let spec_metrics bench key =
  match Json.member key bench with
  | Some (Json.List ms) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.String n), Some (Json.String u) -> (n, u)
        | _ -> fail "BENCHMARK.json: malformed %s entry" key)
      ms
  | _ -> fail "BENCHMARK.json: no %s list" key

let metrics_of workload result =
  (match
     (Json.member "correct" result, Json.member "failed" result, Json.member "attempted" result)
   with
   | Some (Json.Bool true), Some (Json.Int 0), Some (Json.Int n) when n >= 1 -> ()
   | _ -> fail "%s: failed operations or incorrect result" workload);
  match Json.member "metrics" result with
  | Some (Json.Obj ms) ->
    List.map
      (fun (name, m) ->
        match (Json.member "value" m, Json.member "unit" m) with
        | Some (Json.Float v), Some (Json.String u) -> (name, (v, u))
        | Some (Json.Int v), Some (Json.String u) -> (name, (float_of_int v, u))
        | _ -> fail "%s: metric %s lacks a value or unit" workload name)
      ms
  | _ -> fail "%s: no metrics object" workload

let check_names workload expected got =
  let names l = List.sort compare (List.map fst l) in
  if names expected <> names got then
    fail "%s: metric names differ from BENCHMARK.json" workload;
  List.iter
    (fun (n, u) ->
      let _, u' = List.assoc n got in
      if u <> u' then fail "%s: %s has unit %s, expected %s" workload n u' u)
    expected

let () =
  match Sys.argv with
  | [| _; dgbench; racedet; bench_json |] ->
    let bench =
      match Json.parse_file bench_json with Ok j -> j | Error e -> fail "BENCHMARK.json: %s" e
    in
    let e2e = spec_metrics bench "end_to_end" and layers = spec_metrics bench "per_layer" in
    let workloads =
      match Json.member "workloads" bench with
      | Some (Json.List ws) ->
        List.map (fun w -> match Json.member "name" w with Some (Json.String n) -> n | _ -> "") ws
      | _ -> fail "BENCHMARK.json: no workloads"
    in
    List.iter
      (fun w ->
        let r, traces1 = run dgbench racedet ~workload:w ~seed:1 ~trace:0 in
        let m1 = metrics_of w r in
        check_names w e2e m1;
        let r, _ = run dgbench racedet ~workload:w ~seed:1 ~trace:1 in
        let ml = metrics_of w r in
        check_names w layers ml;
        let self =
          List.fold_left
            (fun acc (n, (v, _)) ->
              if String.starts_with ~prefix:"self." n then acc +. v else acc)
            0. ml
        in
        let wall = fst (List.assoc "traced.wall_s" ml) in
        if Float.abs (self -. wall) > 1e-6 *. Float.max 1. wall then
          fail "%s: self times sum to %g, traced wall is %g" w self wall;
        if w = List.hd workloads then begin
          let r, traces2 = run dgbench racedet ~workload:w ~seed:2 ~trace:0 in
          check_names w (List.map (fun (n, (_, u)) -> (n, u)) m1) (metrics_of w r);
          if traces1 = traces2 then fail "%s: seeds 1 and 2 recorded the same traces" w
        end;
        Printf.printf "%s: ok\n%!" w)
      workloads
  | _ -> fail "usage: smoke.exe DGBENCH RACEDET BENCHMARK_JSON"
