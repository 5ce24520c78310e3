open Model

type event =
  | Respawned of { node : int; attempt : int }
  | Absorbed of { node : int; at_round : int }

let pp_event ppf = function
  | Respawned { node; attempt } ->
    Format.fprintf ppf "node %d respawned (attempt %d)" node attempt
  | Absorbed { node; at_round } ->
    Format.fprintf ppf "node %d died unscripted in round %d; absorbed" node
      at_round

type transport = [ `Unix of string | `Tcp of string * int ]

type config = {
  n : int;
  t : int;
  script : Script.t;
  transport : transport;
  big_d : float;
  delta : float;
  proposals : int array option;
  max_rounds : int option;
  verbose : bool;
  respawn_budget : int;
  respawn_backoff : float;
  instrument : event Obs.Instrument.t;
  chaos_startup_kills : int list;
  chaos_run_kills : (int * float) list;
}

let config ?proposals ?max_rounds ?(verbose = false) ?(respawn_budget = 1)
    ?(respawn_backoff = 0.05) ?(instrument = Obs.Instrument.null)
    ?(chaos_startup_kills = []) ?(chaos_run_kills = []) ~n ~t ~script
    ~transport ~big_d ~delta () =
  {
    n;
    t;
    script;
    transport;
    big_d;
    delta;
    proposals;
    max_rounds;
    verbose;
    respawn_budget;
    respawn_backoff;
    instrument;
    chaos_startup_kills;
    chaos_run_kills;
  }

let workspace cfg = match cfg.transport with `Unix d -> d | `Tcp (d, _) -> d

let node_transport cfg =
  match cfg.transport with `Unix d -> `Unix d | `Tcp (_, base) -> `Tcp base

let vlog cfg fmt = Proc.vlog cfg.verbose "live" fmt

(* What the supervisor learns about one node from its status pipe. *)
type node = {
  mutable rounds : Transcript.round_obs list;  (* newest first *)
  mutable decided : (int * int) option;  (* value, round *)
  mutable undecided_evt : bool;
  mutable final : Transcript.status option;
}

let handle_event (c : node Proc.child) line =
  let s = c.state in
  match Obs.Json.of_string line with
  | Error _ -> ()
  | Ok j -> (
    let int k =
      match Obs.Json.member k j with Some (Obs.Json.Int i) -> Some i | _ -> None
    in
    let flt k =
      match Obs.Json.member k j with
      | Some (Obs.Json.Float f) -> f
      | Some (Obs.Json.Int i) -> float_of_int i
      | _ -> 0.0
    in
    match Obs.Json.member "event" j with
    | Some (Obs.Json.String "ready") -> Proc.mark_ready c
    | Some (Obs.Json.String "round") -> (
      match (int "round", int "data_recv", int "ctl_recv") with
      | Some round, Some data_recv, Some ctl_recv ->
        s.rounds <-
          {
            Transcript.round;
            open_skew = flt "open_skew";
            close_skew = flt "close_skew";
            data_recv;
            ctl_recv;
          }
          :: s.rounds
      | _ -> ())
    | Some (Obs.Json.String "decide") -> (
      match (int "value", int "round") with
      | Some v, Some r -> s.decided <- Some (v, r)
      | _ -> ())
    | Some (Obs.Json.String "undecided") -> s.undecided_evt <- true
    | _ -> ())

let last_round s =
  match s.rounds with [] -> 0 | r :: _ -> r.Transcript.round

let finalize cfg (c : node Proc.child) obs =
  let s = c.state in
  match obs with
  | Proc.Stop_killed -> (
    match Script.find cfg.script (Pid.of_int c.node) with
    | Some k -> Transcript.Killed { at_round = k.Script.round; scripted = true }
    | None -> Transcript.Killed { at_round = last_round s + 1; scripted = false })
  | Proc.Exited 0 -> (
    match s.decided with
    | Some (value, at_round) -> Transcript.Decided { value; at_round }
    | None ->
      if s.undecided_evt then Transcript.Undecided
      else Transcript.Killed { at_round = last_round s + 1; scripted = false })
  | Proc.Exited _ | Proc.Signaled _ ->
    Transcript.Killed { at_round = last_round s + 1; scripted = false }

let run cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = cfg.n and t = cfg.t in
  if n < 2 then Error "live: need at least 2 nodes"
  else if t < 0 || t >= n then Error "live: need 0 <= t < n"
  else
    match Script.validate ~n ~max_kills:t cfg.script with
    | Error why -> Error ("live: " ^ why)
    | Ok () -> (
      let proposals =
        match cfg.proposals with
        | Some p -> p
        | None -> Sync_sim.Engine.distinct_proposals n
      in
      if Array.length proposals <> n then Error "live: proposals length <> n"
      else begin
        let max_rounds =
          match cfg.max_rounds with Some m -> m | None -> t + 2
        in
        let dir = workspace cfg in
        Proc.mkdir_p dir;
        (* Fault-injection bookkeeping: how many times each node is still
           owed a chaos SIGKILL right after (re)spawn. *)
        let startup_kills = Hashtbl.create 4 in
        List.iter
          (fun node ->
            Hashtbl.replace startup_kills node
              (1 + Option.value ~default:0 (Hashtbl.find_opt startup_kills node)))
          cfg.chaos_startup_kills;
        let spawn i =
          let log = Filename.concat dir (Printf.sprintf "node-%d.log" i) in
          let c =
            Proc.spawn ~log ~node:i
              { rounds = []; decided = None; undecided_evt = false; final = None }
              (fun ends ->
                Node.Rwwc.main
                  {
                    Node.me = i;
                    n;
                    t;
                    proposal = proposals.(i - 1);
                    transport = node_transport cfg;
                    big_d = cfg.big_d;
                    delta = cfg.delta;
                    max_rounds;
                    kill = Script.find cfg.script (Pid.of_int i);
                    status = ends.Proc.status;
                    go = ends.Proc.go;
                    log = open_out log;
                  })
          in
          (match Hashtbl.find_opt startup_kills i with
          | Some k when k > 0 ->
            Hashtbl.replace startup_kills i (k - 1);
            vlog cfg "chaos: SIGKILL node %d during startup" i;
            ignore (Proc.kill c)
          | Some _ | None -> ());
          c
        in
        let on_restart ~died ~attempt =
          vlog cfg
            "node %d died during startup; fleet restarted (attempt %d of %d)"
            died attempt cfg.respawn_budget;
          Obs.Instrument.emit cfg.instrument
            (Respawned { node = died; attempt })
        in
        let drive children =
          let t0 = Sockets.now () +. 0.3 in
          vlog cfg "all nodes ready; t0 in 0.3 s";
          let go = Printf.sprintf "go %.6f\n" t0 in
          Array.iter (fun c -> Proc.send c go) children;
          let period = cfg.big_d +. cfg.delta in
          let watchdog =
            t0 +. (float_of_int max_rounds *. period) +. cfg.big_d +. 2.0
          in
          let unresolved () =
            Array.exists
              (fun (c : node Proc.child) -> c.state.final = None)
              children
          in
          let record_final (c : node Proc.child) st =
            (match st with
            | Transcript.Killed { at_round; scripted = false } ->
              Obs.Instrument.emit cfg.instrument
                (Absorbed { node = c.node; at_round })
            | Transcript.Killed _ | Transcript.Decided _ | Transcript.Undecided
              ->
              ());
            c.state.final <- Some st
          in
          let run_kills = ref cfg.chaos_run_kills in
          let fire_run_kills () =
            run_kills :=
              List.filter
                (fun (node, delay) ->
                  if Sockets.now () >= t0 +. delay then begin
                    Array.iter
                      (fun (c : node Proc.child) ->
                        if c.node = node && Proc.kill c then
                          vlog cfg "chaos: SIGKILL node %d at t0+%.2fs" node
                            delay)
                      children;
                    false
                  end
                  else true)
                !run_kills
          in
          let settle (c : node Proc.child) =
            if c.state.final = None then
              match Proc.reap c with
              | Some obs when c.status_fd = None ->
                record_final c (finalize cfg c obs)
              | Some _ | None -> ()
          in
          while unresolved () && Sockets.now () < watchdog do
            fire_run_kills ();
            Proc.pump ~timeout:0.05 ~on_line:handle_event children;
            Array.iter settle children
          done;
          (* watchdog: anything still unresolved gets drained once more,
             then killed and closed out *)
          Proc.pump ~timeout:0.05 ~on_line:handle_event children;
          Array.iter
            (fun (c : node Proc.child) ->
              let s = c.state in
              if s.final = None then
                match c.exit with
                | Some obs -> record_final c (finalize cfg c obs)
                | None ->
                  vlog cfg "node %d past the watchdog; SIGKILL" c.node;
                  Proc.stop c;
                  s.final <-
                    Some
                      (match s.decided with
                      | Some (value, at_round) ->
                        Transcript.Decided { value; at_round }
                      | None -> Transcript.Undecided))
            children;
          let statuses =
            Array.map
              (fun (c : node Proc.child) ->
                Option.value c.state.final ~default:Transcript.Undecided)
              children
          in
          let rounds =
            Array.map
              (fun (c : node Proc.child) -> List.rev c.state.rounds)
              children
          in
          let max_round =
            Array.fold_left
              (fun acc (c : node Proc.child) ->
                let from_status =
                  match c.state.final with
                  | Some (Transcript.Decided { at_round; _ })
                  | Some (Transcript.Killed { at_round; _ }) ->
                    at_round
                  | _ -> 0
                in
                max acc (max from_status (last_round c.state)))
              0 children
          in
          let tr = { Transcript.n; t; proposals; statuses; rounds; max_round } in
          let schedule =
            Script.to_schedule ~send_plan:(Binding.Rwwc.send_plan ~n) cfg.script
          in
          Ok (tr, Judge.judge ~schedule tr)
        in
        let unlink =
          match cfg.transport with
          | `Unix dir ->
            List.init n (fun i ->
                Filename.concat dir (Printf.sprintf "node-%d.sock" (i + 1)))
          | `Tcp _ -> []
        in
        match
          Proc.supervise ~unlink ~n ~spawn
            ~budget:
              (Proc.budget ~limit:cfg.respawn_budget
                 ~backoff:cfg.respawn_backoff)
            ~on_line:handle_event ~on_restart drive
        with
        | Ok _ as ok -> ok
        | Error e -> Error ("live: " ^ e)
      end)
