type config = {
  n : int;
  t : int;
  transport : [ `Unix of string | `Tcp of int ];
  workspace : string;
  instances : int;
  window : int;
  big_d : float;
  batch : bool;
  backend : Evloop.backend;
  kill : Report.kill_spec option;
  max_rounds : int option;
  proposals : int -> int -> int;
  client_timeout : float option;
  respawn : bool;
  respawn_budget : int;
  respawn_backoff : float;
  wal : bool;
  chaos : Chaosproxy.link list;
  verbose : bool;
}

let vlog cfg fmt = Live.Proc.vlog cfg.verbose "serve" fmt

(* What the fleet learns about one engine, across its respawned lives. *)
type engine = {
  mutable realized : Mux.realized list option;  (* from a "halted" event *)
  mutable stats : Stats.t option;  (* summed across lives *)
  budget : Live.Proc.budget;  (* charged when a respawn is scheduled *)
  mutable respawn_at : float;  (* 0.0 = no respawn pending *)
  mutable respawns : int;  (* respawns actually performed *)
}

let handle_event (c : engine Live.Proc.child) line =
  let e = c.state in
  match Obs.Json.of_string line with
  | Error _ -> ()
  | Ok j -> (
    (* A respawned engine reports a fresh stats block at its own exit;
       sum across lives so the report sees the node's total work. *)
    let merge_stats () =
      match Obs.Json.member "stats" j with
      | Some sj -> (
        match Stats.of_json sj with
        | Error _ -> ()
        | Ok s -> (
          match e.stats with
          | None -> e.stats <- Some s
          | Some old ->
            Stats.add old s;
            e.stats <- Some old))
      | None -> ()
    in
    match Obs.Json.member "event" j with
    | Some (Obs.Json.String "ready") -> Live.Proc.mark_ready c
    | Some (Obs.Json.String "stats") -> merge_stats ()
    | Some (Obs.Json.String "halted") ->
      merge_stats ();
      (match Obs.Json.member "realized" j with
      | Some (Obs.Json.List items) ->
        let rs =
          List.filter_map
            (fun item ->
              match Mux.realized_of_json item with
              | Ok r -> Some r
              | Error _ -> None)
            items
        in
        e.realized <- Some rs
      | _ -> e.realized <- Some [])
    | _ -> ())

type mesh = {
  victim : (int * Mux.realized list) option;
  node_stats : (int * Stats.t) list;
  respawned : (int * int) list;
}

let engine_log cfg i =
  Filename.concat cfg.workspace (Printf.sprintf "serve-%d.log" i)

let engine_main cfg ~max_rounds ~rejoin i (ends : Live.Proc.ends) =
  let dial =
    if cfg.chaos = [] then None
    else
      Some
        (fun p ->
          if
            List.exists
              (fun l -> l.Chaosproxy.src = i && l.Chaosproxy.dst = p)
              cfg.chaos
          then
            Chaosproxy.proxy_addr ~transport:cfg.transport ~n:cfg.n ~src:i
              ~dst:p
          else Live.Sockets.addr_of ~transport:cfg.transport p)
  in
  Engine.Rwwc.main
    {
      Engine.me = i;
      n = cfg.n;
      t = cfg.t;
      transport = cfg.transport;
      big_d = cfg.big_d;
      max_rounds;
      batch = cfg.batch;
      backend = cfg.backend;
      kill_after =
        (match cfg.kill with
        | Some k when k.Report.node = i && not rejoin ->
          Some k.Report.after_frames
        | _ -> None);
      linger = false;
      wal_dir = (if cfg.wal || cfg.respawn then Some cfg.workspace else None);
      rejoin;
      dial;
      status = ends.Live.Proc.status;
      log = open_out_gen [ Open_append; Open_creat ] 0o644 (engine_log cfg i);
    }

(* The drive phase: [drive] runs with an [on_idle] that pumps status
   pipes, reaps (answering the victim's SIGSTOP) and respawns killed
   engines; then final stats are drained. *)
let drive_mesh cfg ~max_rounds drive children =
  vlog cfg "all engines ready";
  (* Respawns stop once the drive is over: a victim dying during teardown
     stays down. *)
  let accepting = ref true in
  (* A killed engine (SIGSTOP answered with SIGKILL, or a direct SIGKILL
     from [drive] / a chaos script) is eligible for a budgeted,
     backed-off respawn; a clean exit never is. *)
  let reap_one (c : engine Live.Proc.child) =
    if c.exit = None then
      match Live.Proc.reap c with
      | Some (Live.Proc.Stop_killed | Live.Proc.Signaled _)
        when cfg.respawn && !accepting -> (
        match Live.Proc.charge c.state.budget with
        | None ->
          vlog cfg "node %d: respawn budget (%d) exhausted" c.node
            cfg.respawn_budget
        | Some delay ->
          c.state.respawn_at <- Live.Sockets.now () +. delay;
          vlog cfg "node %d died; respawn in %.2fs (attempt %d of %d)" c.node
            delay
            (Live.Proc.spent c.state.budget)
            cfg.respawn_budget)
      | Some _ | None -> ()
  in
  let maybe_respawn () =
    if !accepting then
      Array.iter
        (fun (c : engine Live.Proc.child) ->
          let e = c.state in
          if e.respawn_at > 0.0 && Live.Sockets.now () >= e.respawn_at
          then begin
            Live.Proc.respawn c
              (engine_main cfg ~max_rounds ~rejoin:true c.node);
            e.respawn_at <- 0.0;
            e.respawns <- e.respawns + 1;
            vlog cfg "node %d respawned (attempt %d of %d, pid %d)" c.node
              (Live.Proc.spent e.budget) cfg.respawn_budget c.pid
          end)
        children
  in
  let on_idle () =
    Live.Proc.pump ~timeout:0.0 ~on_line:handle_event children;
    Array.iter reap_one children;
    maybe_respawn ()
  in
  (* A direct SIGKILL for drives that storm the fleet with scheduled
     crashes ([--kill-every]); the reap path then applies the same respawn
     policy as a budget kill. *)
  let kill node =
    match
      Array.find_opt (fun (c : engine Live.Proc.child) -> c.node = node) children
    with
    | Some c when c.exit = None ->
      vlog cfg "drive kills node %d (pid %d)" node c.pid;
      Live.Proc.kill c
    | Some _ | None -> false
  in
  match drive ~on_idle ~kill with
  | Error e -> Error e
  | Ok v ->
    accepting := false;
    (* Engines exit once the last client hangs up; drain their final stats
       events, answer a late SIGSTOP, then close out. *)
    let grace = Live.Sockets.now () +. 5.0 in
    while
      Array.exists
        (fun (c : engine Live.Proc.child) -> c.status_fd <> None)
        children
      && Live.Sockets.now () < grace
    do
      Live.Proc.pump ~timeout:0.05 ~on_line:handle_event children;
      Array.iter reap_one children
    done;
    Array.iter reap_one children;
    let collect f = Array.to_list children |> List.filter_map f in
    Ok
      ( v,
        {
          victim =
            Array.to_list children
            |> List.find_map (fun (c : engine Live.Proc.child) ->
                   Option.map (fun rs -> (c.node, rs)) c.state.realized);
          node_stats =
            collect (fun (c : engine Live.Proc.child) ->
                Option.map (fun s -> (c.node, s)) c.state.stats);
          respawned =
            collect (fun (c : engine Live.Proc.child) ->
                match c.state.respawns with
                | 0 -> None
                | k -> Some (c.node, k));
        } )

(* Bring up the chaos proxies, then the engines; wait for every mesh
   handshake; drive; tear everything down.  [run] and the soak /
   multi-client tests are all this skeleton with a different [drive]. *)
let with_mesh cfg drive =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if cfg.n < 2 then Error "serve fleet: need n >= 2"
  else if cfg.t < 0 || cfg.t >= cfg.n then Error "serve fleet: need 0 <= t < n"
  else begin
    let max_rounds =
      match cfg.max_rounds with Some m -> m | None -> cfg.t + 1
    in
    Live.Proc.mkdir_p cfg.workspace;
    (* Chaos proxies come up before any engine, so the first dial through
       an interposed link already finds its listener. *)
    let proxies = ref [] in
    let proxy_err = ref None in
    List.iter
      (fun link ->
        if !proxy_err = None then
          match Chaosproxy.spawn ~transport:cfg.transport ~n:cfg.n link with
          | Ok pid ->
            vlog cfg "chaos proxy %d->%d up (pid %d)" link.Chaosproxy.src
              link.Chaosproxy.dst pid;
            proxies := pid :: !proxies
          | Error e -> proxy_err := Some e)
      cfg.chaos;
    let spawn i =
      Live.Proc.spawn ~log:(engine_log cfg i) ~node:i
        {
          realized = None;
          stats = None;
          budget =
            Live.Proc.budget ~limit:cfg.respawn_budget
              ~backoff:cfg.respawn_backoff;
          respawn_at = 0.0;
          respawns = 0;
        }
        (engine_main cfg ~max_rounds ~rejoin:false i)
    in
    let unlink =
      match cfg.transport with
      | `Unix dir ->
        List.init cfg.n (fun i ->
            Filename.concat dir (Printf.sprintf "node-%d.sock" (i + 1)))
      | `Tcp _ -> []
    in
    let result =
      match !proxy_err with
      | Some e -> Error ("serve fleet: " ^ e)
      | None -> (
        (* Budget 0: an engine that dies before the mesh forms fails the
           run fast. *)
        match
          Live.Proc.supervise ~unlink ~n:cfg.n ~spawn
            ~budget:(Live.Proc.budget ~limit:0 ~backoff:0.0)
            ~on_line:handle_event
            ~on_restart:(fun ~died:_ ~attempt:_ -> ())
            (fun children -> Ok (drive_mesh cfg ~max_rounds drive children))
        with
        | Ok r -> r
        | Error e -> Error ("serve fleet: " ^ e))
    in
    List.iter Live.Proc.terminate !proxies;
    List.iter
      (fun link -> Chaosproxy.cleanup ~transport:cfg.transport ~n:cfg.n link)
      cfg.chaos;
    result
  end

let default_timeout cfg =
  let max_rounds = match cfg.max_rounds with Some m -> m | None -> cfg.t + 1 in
  (* worst case: every window-batch burns the full deadline chain *)
  let batches = float_of_int ((cfg.instances / max 1 cfg.window) + 2) in
  (batches *. cfg.big_d *. float_of_int (max_rounds + 1)) +. 10.0

let run cfg =
  let timeout =
    match cfg.client_timeout with
    | Some s -> s
    | None -> default_timeout cfg
  in
  let drive ~on_idle ~kill:_ =
    let client_cfg =
      {
        Client.n = cfg.n;
        transport = cfg.transport;
        first = 0;
        instances = cfg.instances;
        window = cfg.window;
        proposals = cfg.proposals;
        timeout;
        reconnect = cfg.respawn;
      }
    in
    Client.run ~on_idle ~tick:0.05 client_cfg
    |> Result.map_error (fun e -> "serve fleet: client: " ^ e)
  in
  with_mesh cfg drive
  |> Result.map (fun (outcome, mesh) ->
         Report.build ~n:cfg.n ~t:cfg.t ~proposals:cfg.proposals
           ~decisions:outcome.Client.decisions ~victim:mesh.victim
           ~send_plan:Binding.Rwwc.send_plan ~elapsed:outcome.Client.elapsed
           ~latencies:outcome.Client.latencies ~stats:mesh.node_stats
           ~kill:cfg.kill)
