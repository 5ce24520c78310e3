(** EXP-DIST — the distributed checker changes where the work runs, never
    the verdicts.

    Two tables, both over real forked processes and unix-domain sockets:

    - {b Equivalence.}  Each configuration runs the canonical sweep twice —
      in-process (the single-machine [check] path) and through a
      coordinator plus a two-worker fleet ({!Dist.Fleet.run_local}) — and
      the class counts and violation counts must be equal, including for a
      broken ablation (the violations must survive distribution) and under
      a scripted mid-shard worker kill (the lease must be re-granted and
      absorbed without losing a class).

    - {b Resume.}  The acceptance scenario at paper scale (n = 5,
      max_f = 3: 6048 canonical classes): a worker dies on its fourth
      grant, the coordinator is SIGKILL'd mid-sweep, and a fresh
      coordinator restarted on the same checkpoint finishes the sweep
      re-executing {e only} the unfinished shards — the resumed ids and
      the executed ids partition the shard space, and the total equals the
      uninterrupted count.

    Any inequality fails the experiment with an exception; a table row
    only prints if the distributed verdicts matched the local ones. *)

module P = Dist.Protocol

let tmp name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "sync-agreement-exp-dist-%d-%s" (Unix.getpid ()) name)

let cleanup files =
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) files

let job ~algo ~n ~max_f ~shards =
  {
    P.algo;
    n;
    max_f;
    max_round = 3;
    shards;
    symmetry = true;
    heartbeat_every = 0.25;
  }

(* The single-machine reference: the same canonical enumeration the workers
   shard, folded in-process through the same verdict. *)
let local_sweep (job : P.job) =
  match Minimize.Algo.find job.P.algo with
  | Error why -> failwith ("EXP-DIST: " ^ why)
  | Ok algo ->
    let n = job.P.n in
    let t = max 1 (n - 2) in
    let profile =
      match algo.Minimize.Algo.model with
      | Model.Model_kind.Extended -> Adversary.Canonical.rotating_coordinator ~n
      | Model.Model_kind.Classic -> Adversary.Canonical.broadcast ~n ~t
    in
    Seq.fold_left
      (fun (classes, violations) s ->
        match Minimize.Algo.violation algo ~n ~t s with
        | Some _ -> (classes + 1, violations + 1)
        | None -> (classes + 1, violations))
      (0, 0)
      (Adversary.Canonical.schedules profile ~n ~max_f:job.P.max_f
         ~max_round:job.P.max_round)

let distributed ?kill_one_after ?checkpoint (job : P.job) ~tag =
  let sock = tmp (tag ^ ".sock") in
  cleanup [ sock ];
  match
    Dist.Fleet.run_local ~lease_timeout:1.0 ?checkpoint ?kill_one_after
      ~workers:2 ~addr:(Unix.ADDR_UNIX sock) job
  with
  | Error why -> failwith (Printf.sprintf "EXP-DIST (%s): %s" tag why)
  | Ok outcome ->
    cleanup [ sock ];
    if outcome.Dist.Fleet.worker_failures > 0 then
      failwith
        (Printf.sprintf "EXP-DIST (%s): %d unscripted worker failure(s)" tag
           outcome.Dist.Fleet.worker_failures);
    outcome

let equivalence_table () =
  let table =
    Diag.Table.create
      ~title:
        "distributed sweep = single-machine sweep (2 workers over unix \
         sockets; chaos = scripted SIGKILL-style worker death mid-shard)"
      ~header:
        [
          "algo";
          "n";
          "max_f";
          "shards";
          "chaos";
          "classes dist";
          "classes local";
          "viol dist";
          "viol local";
          "regrants";
          "agree";
        ]
      ()
  in
  let row ~algo ~n ~max_f ~shards ~kill_one_after ~tag =
    let job = job ~algo ~n ~max_f ~shards in
    let local_classes, local_violations = local_sweep job in
    let o = distributed ?kill_one_after job ~tag in
    let r = o.Dist.Fleet.report in
    (match kill_one_after with
    | Some _ when o.Dist.Fleet.chaos_deaths <> 1 ->
      failwith
        (Printf.sprintf "EXP-DIST (%s): expected 1 chaos death, saw %d" tag
           o.Dist.Fleet.chaos_deaths)
    | Some _ | None -> ());
    let agree =
      r.Dist.Coordinator.classes = local_classes
      && r.Dist.Coordinator.violations_total = local_violations
    in
    if not agree then
      failwith
        (Printf.sprintf
           "EXP-DIST (%s): distributed %d classes / %d violations, local %d \
            / %d"
           tag r.Dist.Coordinator.classes
           r.Dist.Coordinator.violations_total local_classes local_violations);
    Diag.Table.add_row table
      [
        algo;
        Diag.Table.fmt_int n;
        Diag.Table.fmt_int max_f;
        Diag.Table.fmt_int shards;
        (match kill_one_after with
        | None -> "-"
        | Some k -> Printf.sprintf "kill after %d" k);
        Diag.Table.fmt_int r.Dist.Coordinator.classes;
        Diag.Table.fmt_int local_classes;
        Diag.Table.fmt_int r.Dist.Coordinator.violations_total;
        Diag.Table.fmt_int local_violations;
        Diag.Table.fmt_int r.Dist.Coordinator.regrants;
        Diag.Table.fmt_bool agree;
      ]
  in
  row ~algo:"rwwc" ~n:4 ~max_f:2 ~shards:16 ~kill_one_after:None ~tag:"rwwc4";
  row ~algo:"rwwc" ~n:4 ~max_f:2 ~shards:16 ~kill_one_after:(Some 40)
    ~tag:"rwwc4-kill";
  row ~algo:"data-decide" ~n:4 ~max_f:2 ~shards:8 ~kill_one_after:None
    ~tag:"dd4";
  row ~algo:"rwwc" ~n:5 ~max_f:3 ~shards:24 ~kill_one_after:(Some 2000)
    ~tag:"rwwc5-kill";
  table

(* A coordinator in its own process, so it can be SIGKILL'd mid-sweep. *)
let fork_coordinator ~checkpoint ~addr job =
  Live.Proc.fork (fun () ->
      match
        Dist.Coordinator.serve
          (Dist.Coordinator.config ~lease_timeout:1.0 ~checkpoint ~addr job)
      with
      | Ok _ -> 0
      | Error _ -> 1)

let resume_table () =
  let job = job ~algo:"rwwc" ~n:5 ~max_f:3 ~shards:24 in
  let local_classes, _ = local_sweep job in
  let sock = tmp "resume.sock" in
  let ckpt = tmp "resume.ckpt.json" in
  cleanup [ sock; ckpt ];
  let table =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "SIGKILL the coordinator mid-sweep, restart from the checkpoint \
            (rwwc, n = 5, max_f = 3, %d shards, %d canonical classes)"
           job.P.shards local_classes)
      ~header:[ "phase"; "event"; "shards finished"; "classes"; "verdict" ]
      ()
  in
  (* Phase 1: one worker that dies holding its 4th lease — exactly three
     shards reach the checkpoint (the ack a worker waits for is only sent
     after the checkpoint hit disk), then the idle coordinator is killed. *)
  let coord = fork_coordinator ~checkpoint:ckpt ~addr:(Unix.ADDR_UNIX sock) job in
  let worker =
    Dist.Fleet.spawn_worker
      ~chaos:{ Dist.Worker.no_chaos with die_on_grant = Some 4 }
      ~addr:(Unix.ADDR_UNIX sock) ()
  in
  (match Live.Proc.wait worker with
  | Live.Proc.Exited c when c = Dist.Worker.chaos_exit_code -> ()
  | _ -> failwith "EXP-DIST: phase-1 worker did not die its scripted death");
  Live.Proc.terminate coord;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let finished =
    match Dist.Checkpoint.load ckpt with
    | Error why -> failwith ("EXP-DIST: checkpoint after SIGKILL: " ^ why)
    | Ok c -> List.map (fun r -> r.P.shard) c.Dist.Checkpoint.results
  in
  let partial =
    match Dist.Checkpoint.load ckpt with
    | Error why -> failwith ("EXP-DIST: " ^ why)
    | Ok c ->
      List.fold_left (fun acc r -> acc + r.P.classes) 0 c.Dist.Checkpoint.results
  in
  Diag.Table.add_row table
    [
      "1";
      "worker dies on grant 4; coordinator SIGKILL'd";
      Printf.sprintf "%d of %d" (List.length finished) job.P.shards;
      Diag.Table.fmt_int partial;
      "checkpoint survives";
    ];
  (* Phase 2: a fresh coordinator on the same checkpoint file finishes the
     sweep.  The resumed ids must be exactly the phase-1 checkpoint and no
     finished shard may run again. *)
  let o = distributed ~checkpoint:ckpt job ~tag:"resume" in
  let r = o.Dist.Fleet.report in
  if r.Dist.Coordinator.resumed <> List.sort compare finished then
    failwith "EXP-DIST: resumed shards differ from the phase-1 checkpoint";
  if
    List.exists
      (fun s -> List.mem s r.Dist.Coordinator.resumed)
      r.Dist.Coordinator.executed
  then failwith "EXP-DIST: a finished shard was re-executed after resume";
  if r.Dist.Coordinator.classes <> local_classes then
    failwith
      (Printf.sprintf "EXP-DIST: resumed sweep found %d classes, local %d"
         r.Dist.Coordinator.classes local_classes);
  Diag.Table.add_row table
    [
      "2";
      Printf.sprintf "restart on checkpoint; %d shards resumed, %d executed"
        (List.length r.Dist.Coordinator.resumed)
        (List.length r.Dist.Coordinator.executed);
      Printf.sprintf "%d of %d" job.P.shards job.P.shards;
      Diag.Table.fmt_int r.Dist.Coordinator.classes;
      "no finished shard re-ran; total = uninterrupted";
    ];
  cleanup [ sock; ckpt ];
  table

let run () = [ equivalence_table (); resume_table () ]

let experiment =
  {
    Experiment.id = "DIST";
    title = "distributed checking: sharded sweeps survive kills and resume";
    paper_ref = "verification harness (Section 3.1 sweep, distributed)";
    run;
  }
