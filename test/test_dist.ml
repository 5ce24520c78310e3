(* The distributed model checker: protocol codec, durable checkpoints,
   local fleets with scripted worker deaths, and coordinator
   SIGKILL-and-resume — the whole fault matrix, against real forked
   processes over real Unix-domain sockets. *)

open Model
module P = Dist.Protocol
module J = Obs.Json

let tmp_name stem =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dist-test-%s-%d" stem (Unix.getpid ()))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let sched bindings =
  Schedule.of_list
    (List.map
       (fun (pid, round, point) -> (Pid.of_int pid, Crash.make ~round point))
       bindings)

let sample_violation =
  {
    P.schedule = sched [ (1, 1, Crash.Before_send); (2, 2, Crash.After_data 1) ];
    property = "uniform-agreement";
    detail = "distinct decided values: 1, 3";
  }

let sample_result =
  {
    P.shard = 7;
    classes = 123;
    violations = [ sample_violation ];
    violations_total = 9;
    worker = "w42";
  }

(* --- codec ----------------------------------------------------------------- *)

let test_msg_roundtrip () =
  let msgs =
    [
      P.Hello { worker = "w1" };
      P.Job
        {
          P.algo = "rwwc";
          n = 5;
          max_f = 3;
          max_round = 3;
          shards = 24;
          symmetry = true;
          heartbeat_every = 0.25;
        };
      P.Request;
      P.Grant { shard = 3 };
      P.Wait { delay = 0.25 };
      P.Heartbeat { shard = 3; checked = 99 };
      P.Result sample_result;
      P.Ack { shard = 7 };
      P.Done;
    ]
  in
  List.iter
    (fun m ->
      match P.msg_of_json (P.msg_to_json m) with
      | Error why -> Alcotest.fail why
      | Ok m' ->
        Alcotest.(check string)
          (Format.asprintf "%a" P.pp_msg m)
          (J.to_string (P.msg_to_json m))
          (J.to_string (P.msg_to_json m')))
    msgs

let test_msg_rejects_garbage () =
  List.iter
    (fun json ->
      match P.msg_of_json json with
      | Error _ -> ()
      | Ok m ->
        Alcotest.fail (Format.asprintf "garbage decoded as %a" P.pp_msg m))
    [
      J.Obj [];
      J.Obj [ ("type", J.String "warp") ];
      J.Obj [ ("type", J.Int 3) ];
      J.Obj [ ("type", J.String "grant") ];
      (* result with count below the carried violations *)
      J.Obj
        [
          ("type", J.String "result");
          ( "result",
            J.Obj
              [
                ("shard", J.Int 0);
                ("classes", J.Int 1);
                ( "violations",
                  J.List
                    [
                      J.Obj
                        [
                          ("schedule", J.List []);
                          ("property", J.String "p");
                          ("detail", J.String "d");
                        ];
                    ] );
                ("violations_total", J.Int 0);
                ("worker", J.String "w");
              ] );
        ];
    ]

let test_cap_violations () =
  let many =
    List.init 4096 (fun i ->
        {
          sample_violation with
          P.detail = Printf.sprintf "violation %d with some padding text" i;
        })
  in
  let capped = P.cap_violations many in
  Alcotest.(check bool) "capped strictly" true
    (List.length capped < List.length many);
  Alcotest.(check bool) "kept a useful prefix" true (List.length capped > 0);
  let frame_body =
    J.to_string
      (P.msg_to_json
         (P.Result
            {
              sample_result with
              P.violations = capped;
              violations_total = List.length many;
            }))
  in
  Alcotest.(check bool) "capped result fits one frame" true
    (String.length frame_body <= Live.Frame.max_body)

(* --- checkpoints ----------------------------------------------------------- *)

let sample_job =
  {
    P.algo = "rwwc";
    n = 4;
    max_f = 2;
    max_round = 3;
    shards = 8;
    symmetry = true;
    heartbeat_every = 0.25;
  }

let test_checkpoint_roundtrip () =
  let file = tmp_name "ckpt" in
  let c =
    {
      Dist.Checkpoint.job = sample_job;
      results = [ { sample_result with P.shard = 2 } ];
    }
  in
  Dist.Checkpoint.save ~file c;
  Alcotest.(check bool) "no tmp residue" false (Sys.file_exists (file ^ ".tmp"));
  (match Dist.Checkpoint.load file with
  | Error why -> Alcotest.fail why
  | Ok c' ->
    Alcotest.(check bool) "job survives" true
      (P.job_equal c.Dist.Checkpoint.job c'.Dist.Checkpoint.job);
    Alcotest.(check (list int))
      "shards survive" [ 2 ]
      (List.map (fun r -> r.P.shard) c'.Dist.Checkpoint.results));
  Sys.remove file

let test_checkpoint_rejects_truncation () =
  (* The crash window of the save path: whatever prefix of the document a
     torn write could have left behind, load must reject it — never crash,
     never resume from half a checkpoint. *)
  let file = tmp_name "ckpt-trunc" in
  Dist.Checkpoint.save ~file
    { Dist.Checkpoint.job = sample_job; results = [ sample_result ] };
  let full = In_channel.with_open_bin file In_channel.input_all in
  let len = String.length full in
  List.iter
    (fun cut ->
      let oc = open_out_bin file in
      output_string oc (String.sub full 0 cut);
      close_out oc;
      match Dist.Checkpoint.load file with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted a %d/%d-byte prefix" cut len))
    (* len - 2 cuts into the closing brace; len - 1 would only trim the
       trailing newline, which still parses — and should. *)
    [ 0; 1; len / 4; len / 2; len - 2 ];
  Sys.remove file

let test_checkpoint_rejects_out_of_range_and_dup () =
  let file = tmp_name "ckpt-bad" in
  let save_raw results =
    J.save_atomic ~file
      (J.Obj
         [
           ("version", J.Int 1);
           ("job", P.job_to_json sample_job);
           ("results", J.List (List.map P.shard_result_to_json results));
         ])
  in
  save_raw [ { sample_result with P.shard = sample_job.P.shards } ];
  (match Dist.Checkpoint.load file with
  | Error why ->
    Alcotest.(check bool) "names the shard" true (contains ~sub:"out of range" why)
  | Ok _ -> Alcotest.fail "out-of-range shard accepted");
  save_raw [ { sample_result with P.shard = 1 }; { sample_result with P.shard = 1 } ];
  (match Dist.Checkpoint.load file with
  | Error why ->
    Alcotest.(check bool) "names the duplicate" true (contains ~sub:"duplicate" why)
  | Ok _ -> Alcotest.fail "duplicate shard accepted");
  Sys.remove file

let test_repro_save_rejects_truncation () =
  (* Same crash window for the repro artifacts now that Repro.save rides
     the shared durable path. *)
  let file = tmp_name "repro-trunc" in
  let repro =
    {
      Minimize.Repro.n = 4;
      t = 2;
      case =
        Minimize.Repro.Consensus
          {
            algo = "rwwc";
            schedule = sched [ (1, 1, Crash.Before_send) ];
            property = "uniform-agreement";
          };
      steps = 1;
      candidates = 2;
      one_minimal = true;
    }
  in
  Minimize.Repro.save ~file repro;
  Alcotest.(check bool) "no tmp residue" false (Sys.file_exists (file ^ ".tmp"));
  let full = In_channel.with_open_bin file In_channel.input_all in
  let len = String.length full in
  List.iter
    (fun cut ->
      let oc = open_out_bin file in
      output_string oc (String.sub full 0 cut);
      close_out oc;
      match Minimize.Repro.load file with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted a %d/%d-byte prefix" cut len))
    [ 0; len / 3; len - 2 ];
  Sys.remove file

(* --- fleets ---------------------------------------------------------------- *)

let canonical_classes ~n ~max_f ~max_round =
  Adversary.Enumerate.count
    (Adversary.Canonical.schedules
       (Adversary.Canonical.rotating_coordinator ~n)
       ~n ~max_f ~max_round)

let cleanup files = List.iter (fun f -> if Sys.file_exists f then Sys.remove f) files

let test_fleet_matches_local () =
  let sock = tmp_name "fleet.sock" in
  cleanup [ sock ];
  let job = { sample_job with P.shards = 8 } in
  match
    Dist.Fleet.run_local ~lease_timeout:2.0 ~workers:2
      ~addr:(Unix.ADDR_UNIX sock) job
  with
  | Error why -> Alcotest.fail why
  | Ok o ->
    let expected = canonical_classes ~n:4 ~max_f:2 ~max_round:3 in
    Alcotest.(check int) "classes" expected o.Dist.Fleet.report.Dist.Coordinator.classes;
    Alcotest.(check int) "violations" 0
      o.Dist.Fleet.report.Dist.Coordinator.violations_total;
    Alcotest.(check int) "all shards executed" job.P.shards
      (List.length o.Dist.Fleet.report.Dist.Coordinator.executed);
    Alcotest.(check int) "no failures" 0 o.Dist.Fleet.worker_failures

let test_fleet_broken_algo_reports_violations () =
  (* The broken ablation must come back with the same violating classes the
     in-process sweep finds — the distributed path changes where the work
     runs, never the verdicts. *)
  let sock = tmp_name "fleet-dd.sock" in
  cleanup [ sock ];
  let job = { sample_job with P.algo = "data-decide"; shards = 8 } in
  let expected_violations =
    match Minimize.Algo.find "data-decide" with
    | Error why -> Alcotest.fail why
    | Ok algo ->
      Seq.fold_left
        (fun acc s ->
          match Minimize.Algo.violation algo ~n:4 ~t:2 s with
          | Some _ -> acc + 1
          | None -> acc)
        0
        (Adversary.Canonical.schedules
           (Adversary.Canonical.rotating_coordinator ~n:4)
           ~n:4 ~max_f:2 ~max_round:3)
  in
  match
    Dist.Fleet.run_local ~lease_timeout:2.0 ~workers:2
      ~addr:(Unix.ADDR_UNIX sock) job
  with
  | Error why -> Alcotest.fail why
  | Ok o ->
    Alcotest.(check int) "violating classes match the local sweep"
      expected_violations o.Dist.Fleet.report.Dist.Coordinator.violations_total;
    Alcotest.(check bool) "violations are reported in canonical order" true
      (let rec sorted = function
         | a :: (b :: _ as rest) ->
           Adversary.Canonical.compare a.P.schedule b.P.schedule <= 0
           && sorted rest
         | _ -> true
       in
       sorted o.Dist.Fleet.report.Dist.Coordinator.violations)

let test_fleet_absorbs_worker_kill () =
  let sock = tmp_name "fleet-kill.sock" in
  cleanup [ sock ];
  let job = { sample_job with P.shards = 8 } in
  match
    Dist.Fleet.run_local ~lease_timeout:1.0 ~workers:2 ~kill_one_after:40
      ~addr:(Unix.ADDR_UNIX sock) job
  with
  | Error why -> Alcotest.fail why
  | Ok o ->
    let r = o.Dist.Fleet.report in
    Alcotest.(check int) "classes" (canonical_classes ~n:4 ~max_f:2 ~max_round:3)
      r.Dist.Coordinator.classes;
    Alcotest.(check int) "one scripted death" 1 o.Dist.Fleet.chaos_deaths;
    Alcotest.(check int) "no unscripted failures" 0 o.Dist.Fleet.worker_failures;
    Alcotest.(check bool) "the killed worker's lease was re-granted" true
      (r.Dist.Coordinator.regrants >= 1)

let fork_coordinator ?checkpoint ~addr job =
  match Unix.fork () with
  | 0 ->
    let code =
      match
        Dist.Coordinator.serve
          (Dist.Coordinator.config ~lease_timeout:1.0 ?checkpoint ~addr job)
      with
      | Ok _ -> 0
      | Error why ->
        Printf.eprintf "coordinator: %s\n%!" why;
        1
    in
    Unix._exit code
  | pid -> pid

(* Wait for [pid] until [deadline]; [None] if it is still running. *)
let rec wait_until deadline pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Unix.gettimeofday () < deadline ->
    Unix.sleepf 0.05;
    wait_until deadline pid
  | 0, _ -> None
  | _, status -> Some status

(* A remote fleet ([min_workers] 0) must not wait on a client that said
   hello and then went silent before its first request: the one real
   worker has to be able to take every shard, lease after lease. *)
let test_stalled_hello_does_not_block () =
  let sock = tmp_name "stalled.sock" in
  cleanup [ sock ];
  let addr = Unix.ADDR_UNIX sock in
  let job = { sample_job with P.shards = 4 } in
  let coord = fork_coordinator ~addr job in
  let stalled =
    match
      Live.Sockets.connect_retry ~deadline:(Unix.gettimeofday () +. 10.0) addr
    with
    | Ok fd -> P.conn fd
    | Error e -> Alcotest.fail (Live.Sockets.error_to_string e)
  in
  (match P.send stalled (P.Hello { worker = "stalled" }) with
  | Ok () -> ()
  | Error why -> Alcotest.fail why);
  (* the job reply proves the coordinator has registered the hello *)
  (match P.recv ~deadline:(Unix.gettimeofday () +. 10.0) stalled with
  | `Msg (P.Job _) -> ()
  | `Msg m -> Alcotest.fail (Format.asprintf "expected the job, got %a" P.pp_msg m)
  | `Timeout | `Closed _ -> Alcotest.fail "no job for the stalled client");
  let worker = Dist.Fleet.spawn_worker ~addr () in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let coord_status = wait_until deadline coord in
  let worker_status = wait_until deadline worker in
  P.close stalled;
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    [ coord; worker ];
  (try ignore (Unix.waitpid [] coord) with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] worker) with Unix.Unix_error _ -> ());
  cleanup [ sock ];
  Alcotest.(check bool) "the sweep completed" true
    (coord_status = Some (Unix.WEXITED 0));
  Alcotest.(check bool) "the worker finished cleanly" true
    (worker_status = Some (Unix.WEXITED 0))

(* --- resume after coordinator SIGKILL -------------------------------------- *)

(* The acceptance scenario, end to end at the paper-scale sweep
   (n = 5, max_f = 3: 6048 canonical classes over 3.3M raw schedules):

   phase 1: a coordinator with a checkpoint file and a single worker that
   dies on its 4th grant — three shards get checkpointed, then the
   coordinator is SIGKILL'd mid-sweep;

   phase 2: a fresh coordinator resumes from the checkpoint with a
   two-worker fleet, one of which is killed mid-shard — the sweep must
   still complete, re-executing no finished shard, with exactly the
   single-machine class count and verdict. *)
let test_resume_after_coordinator_sigkill () =
  let sock = tmp_name "resume.sock" in
  let ckpt = tmp_name "resume.ckpt" in
  cleanup [ sock; ckpt ];
  let job =
    {
      P.algo = "rwwc";
      n = 5;
      max_f = 3;
      max_round = 3;
      shards = 24;
      symmetry = true;
      heartbeat_every = 0.25;
    }
  in
  (* Phase 1. *)
  let coord = fork_coordinator ~checkpoint:ckpt ~addr:(Unix.ADDR_UNIX sock) job in
  let worker =
    Dist.Fleet.spawn_worker
      ~chaos:{ Dist.Worker.no_chaos with die_on_grant = Some 4 }
      ~addr:(Unix.ADDR_UNIX sock) ()
  in
  (match Unix.waitpid [] worker with
  | _, Unix.WEXITED c ->
    Alcotest.(check int) "worker died at its chaos point"
      Dist.Worker.chaos_exit_code c
  | _ -> Alcotest.fail "worker did not exit");
  (* The worker heard three acks before its fatal grant, and every ack
     happens after the checkpoint hits disk — the file is complete now. *)
  Unix.kill coord Sys.sigkill;
  ignore (Unix.waitpid [] coord);
  let phase1_shards =
    match Dist.Checkpoint.load ckpt with
    | Error why -> Alcotest.fail why
    | Ok c -> List.map (fun r -> r.P.shard) c.Dist.Checkpoint.results
  in
  Alcotest.(check (list int)) "three shards survived the kill" [ 0; 1; 2 ]
    phase1_shards;
  (* Phase 2. *)
  (match
     Dist.Fleet.run_local ~lease_timeout:1.0 ~checkpoint:ckpt ~workers:2
       ~kill_one_after:2000 ~addr:(Unix.ADDR_UNIX sock) job
   with
  | Error why -> Alcotest.fail why
  | Ok o ->
    let r = o.Dist.Fleet.report in
    Alcotest.(check (list int))
      "resumed exactly the checkpointed shards" phase1_shards
      r.Dist.Coordinator.resumed;
    Alcotest.(check (list int))
      "no finished shard re-ran"
      (List.filter (fun s -> not (List.mem s phase1_shards))
         (List.init job.P.shards Fun.id))
      r.Dist.Coordinator.executed;
    Alcotest.(check int) "paper-scale class count" 6048 r.Dist.Coordinator.classes;
    Alcotest.(check int) "single-machine class count"
      (canonical_classes ~n:5 ~max_f:3 ~max_round:3)
      r.Dist.Coordinator.classes;
    Alcotest.(check int) "verdict identical to single-machine check" 0
      r.Dist.Coordinator.violations_total;
    Alcotest.(check int) "the mid-sweep worker kill happened" 1
      o.Dist.Fleet.chaos_deaths;
    Alcotest.(check int) "no unscripted failures" 0 o.Dist.Fleet.worker_failures);
  cleanup [ sock; ckpt ]

let test_auto_shards () =
  (* Oversharding by the straggler factor keeps the tail short: the last
     shard a slow worker holds is 1/8 of an even split. *)
  Alcotest.(check int) "4 workers" 32 (Dist.Fleet.auto_shards ~workers:4 ());
  Alcotest.(check int) "1 worker" 8 (Dist.Fleet.auto_shards ~workers:1 ());
  Alcotest.(check int) "custom factor" 12
    (Dist.Fleet.auto_shards ~straggler:3 ~workers:4 ());
  (* Degenerate worker counts still yield at least one shard per factor. *)
  Alcotest.(check int) "0 workers clamps" 8
    (Dist.Fleet.auto_shards ~workers:0 ())

let () =
  Alcotest.run "dist"
    [
      ( "protocol",
        [
          Alcotest.test_case "message roundtrip" `Quick test_msg_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_msg_rejects_garbage;
          Alcotest.test_case "violation cap fits a frame" `Quick
            test_cap_violations;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "rejects truncation" `Quick
            test_checkpoint_rejects_truncation;
          Alcotest.test_case "rejects bad shards" `Quick
            test_checkpoint_rejects_out_of_range_and_dup;
          Alcotest.test_case "repro shares the crash window" `Quick
            test_repro_save_rejects_truncation;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "auto-shards oversharding" `Quick test_auto_shards;
          Alcotest.test_case "matches the local sweep" `Quick
            test_fleet_matches_local;
          Alcotest.test_case "broken algo verdicts match" `Quick
            test_fleet_broken_algo_reports_violations;
          Alcotest.test_case "absorbs a worker kill" `Quick
            test_fleet_absorbs_worker_kill;
          Alcotest.test_case "stalled hello does not block the sweep" `Quick
            test_stalled_hello_does_not_block;
        ] );
      ( "resume",
        [
          Alcotest.test_case "coordinator SIGKILL + resume (n=5 acceptance)"
            `Quick test_resume_after_coordinator_sigkill;
        ] );
    ]
