(* perfbench: one command for every workload named in BENCHMARK.json.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   --trace 0 measures the end-to-end metrics with no tracing; --trace 1
   measures the per-layer metrics (spans, counters, CPU accounting) and
   the tracing overhead.  Human-readable lines (sample counts, the
   failure share, check results) come first; the last line of standard
   output is the JSON result.  The exit code is 0 only when every output
   checked correct. *)

(* The metric names and units are the ones BENCHMARK.json lists, read from
   the checkout root at start-up so the two cannot drift apart. *)
let listed key =
  let bad why = failwith ("perfbench: BENCHMARK.json: " ^ why) in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Obs.Json.of_string text with
  | Error e -> bad e
  | Ok j -> (
    match Obs.Json.member key j with
    | Some (Obs.Json.List ms) ->
      List.map
        (fun m ->
          match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
          | Some (Obs.Json.String name), Some (Obs.Json.String unit) -> (name, unit)
          | _ -> bad ("malformed entry in " ^ key))
        ms
    | _ -> bad ("no " ^ key))

let workloads = List.map (fun s -> s.Serve_bench.name) Serve_bench.specs @ [ "mc-sweep" ]

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* Order the workload's metrics as the listed ones, filling the layers it
   bypasses with 0 (it did no work there); an unlisted name or a
   non-finite value is a defect of the benchmark itself. *)
let complete expected (r : Probe.result) =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.Probe.name expected) then
        failwith ("perfbench: unlisted metric " ^ m.Probe.name))
    r.Probe.metrics;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.Probe.name = name) r.Probe.metrics with
      | Some m ->
        if m.Probe.unit <> unit then failwith ("perfbench: unit of " ^ name);
        if not (Float.is_finite m.Probe.value) then
          failwith ("perfbench: non-finite " ^ name);
        m
      | None -> Probe.metric ~samples:0 name unit 0.0)
    expected

let print (r : Probe.result) expected =
  let metrics = complete expected r in
  List.iter print_endline r.Probe.notes;
  List.iter
    (fun m ->
      Printf.printf "%-34s %22s %-6s (samples %d)\n" m.Probe.name
        (json_number m.Probe.value) m.Probe.unit m.Probe.samples)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.Probe.correct r.Probe.attempted r.Probe.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Probe.name
              (json_number m.Probe.value) m.Probe.unit)
          metrics))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let child = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ( "--child",
        Arg.Symbol ([ "sweep"; "setup" ], ( := ) child),
        " (internal) one mc-sweep sweep or set-up probe, run by the mc-sweep workload" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !child <> "" then begin
    Sweep_bench.child ~seed:!seed ~full:(!child = "sweep");
    exit 0
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  (* A relative workspace keeps unix-socket paths short wherever the
     checkout lives. *)
  let ws = Filename.concat ".bench_work" !workload in
  mkdir_p ws;
  let seconds = float_of_int (max 1 !seconds) in
  let traced = !trace = 1 in
  let expected = listed (if traced then "per_layer" else "end_to_end") in
  let result =
    if !workload = "mc-sweep" then
      Ok
        (if traced then Sweep_bench.per_layer ~seed:!seed ~ws
         else Sweep_bench.end_to_end ~seed:!seed ~seconds)
    else
      let spec = List.find (fun s -> s.Serve_bench.name = !workload) Serve_bench.specs in
      if traced then Serve_bench.per_layer spec ~ws ~seed:!seed ~seconds
      else Serve_bench.end_to_end spec ~ws ~seed:!seed ~seconds
  in
  match result with
  | Error e ->
    prerr_endline ("perfbench: " ^ e);
    exit 2
  | Ok r ->
    print r expected;
    exit (if r.Probe.correct then 0 else 1)
