let failed_exit_code = 3
let auto_shards ?(straggler = 8) ~workers () = max 1 workers * straggler

let spawn_worker ?patience ?chaos ?verbose ~addr () =
  Live.Proc.fork (fun () ->
      match Worker.run ?patience ?chaos ?verbose ~addr () with
      | Ok _ -> 0
      | Error why ->
        Printf.eprintf "worker %d: %s\n%!" (Unix.getpid ()) why;
        failed_exit_code)

type outcome = {
  report : Coordinator.report;
  worker_failures : int;
  chaos_deaths : int;
}

let reap pids =
  List.fold_left
    (fun (failures, chaos) pid ->
      match Live.Proc.wait pid with
      | Live.Proc.Exited 0 -> (failures, chaos)
      | Live.Proc.Exited c when c = Worker.chaos_exit_code ->
        (failures, chaos + 1)
      | Live.Proc.Exited _ | Live.Proc.Signaled _ | Live.Proc.Stop_killed ->
        (failures + 1, chaos))
    (0, 0) pids

let run_local ?lease_timeout ?checkpoint ?verbose ?kill_one_after ~workers
    ~addr job =
  if workers < 1 then Error "run_local: need at least one worker"
  else begin
    let chaos_for i =
      match kill_one_after with
      | Some k when i = 0 ->
        Some { Worker.no_chaos with die_after_schedules = Some k }
      | Some _ | None -> None
    in
    (* A lone chaotic worker leaves nobody to finish the sweep: give the
       fleet one clean replacement so completion stays reachable. *)
    let replacements =
      if kill_one_after <> None && workers = 1 then 1 else 0
    in
    let pids =
      List.init (workers + replacements) (fun i ->
          spawn_worker ?chaos:(chaos_for i) ?verbose ~addr ())
    in
    let served =
      Coordinator.serve
        (Coordinator.config ?lease_timeout ?checkpoint
           ~min_workers:(workers + replacements)
           ?verbose ~addr job)
    in
    (* Reap unconditionally: serve errors must not leak children. *)
    match served with
    | Error why ->
      List.iter Live.Proc.terminate pids;
      Error why
    | Ok report ->
      let worker_failures, chaos_deaths = reap pids in
      Ok { report; worker_failures; chaos_deaths }
  end
