(* The served workload: storms of RWWC instances through a forked
   unix-socket fleet ({!Serve.Fleet.with_mesh} + {!Serve.Client.run}),
   judged by {!Serve.Report.build}, and, for the traced run, the same
   seeded instance stream replayed in process through the mux, batch and
   codec layers with a span around every call.  The traced run also
   probes a fault-free storm and the WAL layer, which no end-to-end
   workload runs (see NOTES.md, "Why there is no fault-free or WAL
   workload"). *)

module Lb = Serve.Loopback.Rwwc
module M = Serve.Mux.Make (Serve.Binding.Rwwc)

(* n = 3 keeps the engines plus the client at nproc + 2 processes on a
   2-core host; 64 instances outstanding is the client's closed-loop
   window. *)
let n = 3
let t = 1
let window = 64

type spec = {
  name : string;
  big_d : float;  (** per-round receive window, seconds *)
  kill_band : (float * float) option;
      (** p1's kill frame, as a share of the storm's p1 mesh frames *)
  instances : int;  (** instances per fleet (one storm) *)
}

(* big_d is 100 ms, not the 20 ms first planned: at 20 ms a host stall
   now and then outlasted a round-2 deadline, the instance gave up
   undecided (a run outside the synchronous model, which the judge
   rightly fails), and once the client's window filled with such
   instances the storm stalled until its timeout.  See NOTES.md,
   finding 3. *)
let specs =
  [
    { name = "serve-crash"; big_d = 0.1; kill_band = Some (0.09, 0.11);
      instances = 2_000 };
  ]

(* The fault-free probe storms of a traced run.  In a fault-free storm
   every round advances on control arrival, so big_d only bounds how long
   a stalled node may lag before its round is treated as crashed.  On a
   shared host an fsync stall outlasted 250 ms, and the judge then
   (rightly) failed the instances it delayed: a synchrony violation, not a
   protocol fault.  2 s keeps the probes fault-free without changing what
   they measure. *)
let fault_free = { name = "fault-free"; big_d = 2.0; kill_band = None; instances = 30_000 }

(* The WAL-on probe storm: one fsync'd append per node per decision, so
   12,000 [Wal.append] calls in its replay. *)
let wal_instances = 4_000

(* Every input is a pure function of (seed, storm): proposals per
   (instance, node), and the victim's kill frame inside the band. *)
let proposals ~seed ~storm i node = Hashtbl.hash (seed, storm, i, node) land 0xFFFFF

(* In a round-1 storm the coordinator p1 writes one Data and one Ctl frame
   to each other node per instance; the kill budget counts those. *)
let kill_spec spec ~seed ~storm =
  match spec.kill_band with
  | None -> None
  | Some (lo, hi) ->
    let frames = float_of_int (spec.instances * 2 * (n - 1)) in
    let lo = int_of_float (lo *. frames) and hi = int_of_float (hi *. frames) in
    let k = lo + (Hashtbl.hash (seed, storm, "kill") mod (hi - lo + 1)) in
    Some { Serve.Report.node = 1; after_frames = k }

let lb_config spec ~seed ~storm =
  {
    Lb.n;
    t;
    instances = spec.instances;
    window;
    big_d = spec.big_d;
    batch = true;
    kill = kill_spec spec ~seed ~storm;
    max_rounds = None;
    proposals = proposals ~seed ~storm;
  }

let rm path = try Sys.remove path with Sys_error _ -> ()

let clear_logs ws =
  for node = 1 to n do
    rm (Serve.Wal.path ~dir:ws ~node);
    rm (Filename.concat ws (Printf.sprintf "serve-%d.log" node))
  done

(* {1 The served-run property gate}

   An instance has f = 1 when the kill victim never reported a decision
   for it (the rule {!Serve.Report} judges by), else f = 0; every decision
   must come by round f + 1.  A failure-free storm therefore has to decide
   everything in round 1, the paper's fast path. *)

let instance_f ~victim row =
  match victim with
  | Some (v, _) when row.(v - 1) = None -> 1
  | _ -> 0

let breach ~victim row =
  let bound = instance_f ~victim row + 1 in
  Array.exists (function Some (_, r) -> r > bound | None -> false) row

let decide_rounds decisions =
  Array.fold_left
    (fun (max_r, round2) row ->
      let r =
        Array.fold_left
          (fun acc -> function Some (_, r) -> max acc r | None -> acc)
          0 row
      in
      (max max_r r, if r = 2 then round2 + 1 else round2))
    (0, 0) decisions

(* {1 One socket storm} *)

type storm = {
  report : Serve.Report.t;
  p50 : float;  (** submit-to-settle latency percentiles, seconds *)
  p99 : float;
  settled : int;  (** latency samples *)
  rounds : int * int;  (** latest decision round, instances decided in round 2 *)
  storm_wall : float;  (** first submit to last settle *)
  setup : float;  (** fleet fork + mesh handshake, until drive is entered *)
  teardown : float;  (** drive returned until the fleet is reaped *)
  judge : float;  (** {!Serve.Report.build} *)
  engine_cpu : float;  (** reaped engines' CPU seconds *)
  client_cpu : float;  (** this process's CPU seconds inside the drive *)
  breaches : int;
  failed : int;
  wal_bytes : int;  (** log bytes the engines wrote, headers excluded *)
  wal_recover : float * int;  (** seconds in {!Serve.Wal.recover}, entries *)
}

(* {!Serve.Wal}'s fixed header: magic, format version, node id. *)
let wal_header = 12

let fleet_config spec ~ws ~wal (lb : Lb.config) =
  {
    Serve.Fleet.n;
    t;
    transport = `Unix ws;
    workspace = ws;
    instances = lb.Lb.instances;
    window;
    big_d = spec.big_d;
    batch = true;
    backend = Serve.Evloop.Select;
    kill = lb.Lb.kill;
    max_rounds = None;
    proposals = lb.Lb.proposals;
    client_timeout = None;
    respawn = false;
    respawn_budget = 0;
    respawn_backoff = 0.0;
    wal;
    chaos = [];
    verbose = false;
  }

let client_config (cfg : Serve.Fleet.config) =
  {
    Serve.Client.n;
    transport = cfg.Serve.Fleet.transport;
    first = 0;
    instances = cfg.Serve.Fleet.instances;
    window;
    proposals = cfg.Serve.Fleet.proposals;
    timeout = Serve.Fleet.default_timeout cfg;
    reconnect = false;
  }

(* Set-up alone: fork the fleet, complete the mesh handshake, then a
   client that connects and leaves without submitting, so the engines
   exit cleanly.  Returns the seconds until the drive was entered. *)
let setup_probe spec ~ws =
  clear_logs ws;
  let idle = { (lb_config spec ~seed:0 ~storm:0) with Lb.instances = 0; kill = None } in
  let cfg = fleet_config spec ~ws ~wal:false idle in
  let t0 = Probe.now () in
  let entered = ref t0 in
  let drive ~on_idle ~kill:_ =
    entered := Probe.now ();
    Serve.Client.run ~on_idle ~tick:0.05 (client_config cfg)
  in
  let r = Serve.Fleet.with_mesh cfg drive in
  clear_logs ws;
  match r with
  | Error e -> Error (spec.name ^ ": set-up probe: " ^ e)
  | Ok _ -> Ok (!entered -. t0)

let setup_probes = 40

let setups spec ~ws =
  let rec go k acc =
    if k = 0 then Ok acc
    else
      match setup_probe spec ~ws with
      | Error e -> Error e
      | Ok s -> go (k - 1) (s :: acc)
  in
  go setup_probes []

let socket_storm spec ~ws ~wal (lb : Lb.config) =
  clear_logs ws;
  (* The client runs in this process.  Collect the previous storm's
     garbage (its decision tables, the judge's transcripts) first, so the
     client starts each storm from a clean heap, as a fresh `serve`
     process would; otherwise that collection lands inside the storm and
     shows up in the latency tail. *)
  Gc.full_major ();
  let cfg = fleet_config spec ~ws ~wal lb in
  let client_cfg = client_config cfg in
  let t0 = Probe.now () in
  let engine_cpu0 = Probe.children_cpu () in
  let entered = ref t0 and left = ref t0 and client_cpu = ref 0.0 in
  let drive ~on_idle ~kill:_ =
    entered := Probe.now ();
    let cpu0 = Probe.self_cpu () in
    let r = Serve.Client.run ~on_idle ~tick:0.05 client_cfg in
    client_cpu := Probe.self_cpu () -. cpu0;
    left := Probe.now ();
    r
  in
  match Serve.Fleet.with_mesh cfg drive with
  | Error e -> Error (spec.name ^ ": " ^ e)
  | Ok (outcome, mesh) ->
    let t_end = Probe.now () in
    let engine_cpu = Probe.children_cpu () -. engine_cpu0 in
    let decisions = outcome.Serve.Client.decisions in
    let j0 = Probe.now () in
    let report =
      Serve.Report.build ~n ~t ~proposals:lb.Lb.proposals ~decisions
        ~victim:mesh.Serve.Fleet.victim
        ~send_plan:Serve.Binding.Rwwc.send_plan
        ~elapsed:outcome.Serve.Client.elapsed
        ~latencies:outcome.Serve.Client.latencies
        ~stats:mesh.Serve.Fleet.node_stats ~kill:lb.Lb.kill
    in
    let judge = Probe.now () -. j0 in
    let lat = Array.of_list outcome.Serve.Client.latencies in
    (* An instance fails once, whichever checks it fails: undecided, a
       failed judge verdict, or a round-bound breach. *)
    let bad = Array.map (breach ~victim:mesh.Serve.Fleet.victim) decisions in
    let breaches = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bad in
    List.iter (fun i -> bad.(i) <- true) outcome.Serve.Client.undecided;
    List.iter
      (fun (v : Serve.Report.instance_verdict) -> bad.(v.Serve.Report.instance) <- true)
      report.Serve.Report.failures;
    let failed_instances = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bad in
    (* The logs the engines left: their size, and the time
       {!Serve.Wal.recover} takes to replay each.  A log that does not
       recover is a failure. *)
    let wal_bytes, wal_recover, wal_errors =
      if not wal then (0, (0.0, 0), 0)
      else
        List.fold_left
          (fun (bytes, (secs, entries), errors) node ->
            let path = Serve.Wal.path ~dir:ws ~node in
            let bytes = bytes + (Unix.stat path).Unix.st_size - wal_header in
            let r0 = Probe.now () in
            match Serve.Wal.recover ~path ~node with
            | Ok (w, r) ->
              let secs = secs +. (Probe.now () -. r0) in
              Serve.Wal.close w;
              (bytes, (secs, entries + List.length r.Serve.Wal.entries), errors)
            | Error _ -> (bytes, (secs, entries), errors + 1))
          (0, (0.0, 0), 0)
          (List.init n (fun i -> i + 1))
    in
    clear_logs ws;
    Ok
      {
        report;
        p50 = Probe.percentile lat 0.50;
        p99 = Probe.percentile lat 0.99;
        settled = Array.length lat;
        rounds = decide_rounds decisions;
        storm_wall = outcome.Serve.Client.elapsed;
        setup = !entered -. t0;
        teardown = t_end -. !left;
        judge;
        engine_cpu;
        client_cpu = !client_cpu;
        breaches;
        failed = failed_instances + wal_errors;
        wal_bytes;
        wal_recover;
      }

(* WAL-off storms back to back until [seconds] have passed (at least
   one). *)
let storms spec ~ws ~seed ~seconds =
  let start = Probe.now () in
  let rec go k acc =
    if k > 0 && Probe.now () -. start >= seconds then Ok (List.rev acc)
    else
      match socket_storm spec ~ws ~wal:false (lb_config spec ~seed ~storm:k) with
      | Error e -> Error e
      | Ok s -> go (k + 1) (s :: acc)
  in
  go 0 []

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let isum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* {1 The in-process composition}

   The same mesh {!Serve.Loopback} builds — one mux per node, a batcher
   per node, one {!Live.Frame} decoder per directed link and per client
   channel, a virtual clock — written out here so each layer call can
   carry a span.  It must stay call-for-call identical to the loopback:
   {!faithful} checks that both produce the same report. *)

type replay = {
  r_report : Serve.Report.t;
  r_decisions : (int * int) option array array;
  r_wall : float;  (** the storm loop, judge excluded *)
}

let frame_instance = function
  | Live.Frame.Data { instance; _ } | Ctl { instance; _ }
  | Submit { instance; _ } | Decide { instance; _ } | Catchup { instance; _ } ->
    instance
  | Hello _ -> -1

let replay (cfg : Lb.config) ~tracer:tr ~wal_dir =
  let l_submit = Probe.layer tr "mux.submit"
  and l_view = Probe.layer tr "mux.on_view"
  and l_expire = Probe.layer tr "mux.expire"
  and l_encode = Probe.layer tr "frame.encode"
  and l_decode = Probe.layer tr "frame.decode"
  and l_add = Probe.layer tr "batch.add"
  and l_flush = Probe.layer tr "batch.flush"
  and l_feed = Probe.layer tr "link.feed"
  and l_wal = Probe.layer ~keep:true tr "wal.append"
  and l_client = Probe.layer tr "client.settle" in
  let n = cfg.Lb.n in
  let max_rounds = cfg.Lb.t + 1 in
  let now = ref 0.0 in
  let decoders =
    Array.init n (fun _ -> Array.init n (fun _ -> Live.Frame.decoder ()))
  in
  let client_dec = Array.init n (fun _ -> Live.Frame.decoder ()) in
  let moved = ref false in
  let batches : Serve.Batch.t option array = Array.make n None in
  let wals =
    Array.init n (fun idx ->
        match wal_dir with
        | None -> None
        | Some dir -> (
          let path = Serve.Wal.path ~dir ~node:(idx + 1) in
          rm path;
          match Serve.Wal.recover ~path ~node:(idx + 1) with
          | Ok (w, _) -> Some w
          | Error e -> failwith ("replay wal: " ^ e)))
  in
  let muxes =
    Array.init n (fun idx ->
        let me = idx + 1 in
        let kill_after =
          match cfg.Lb.kill with
          | Some k when k.Serve.Report.node = me -> Some k.Serve.Report.after_frames
          | _ -> None
        in
        let emit ~dest frame =
          let id = frame_instance frame in
          let t0 = Probe.enter tr in
          let bytes = Live.Frame.encode frame in
          Probe.leave tr l_encode ~id t0;
          match batches.(idx) with
          | Some b ->
            let t0 = Probe.enter tr in
            Serve.Batch.add b ~dest bytes;
            Probe.leave tr l_add ~id t0
          | None -> assert false
        in
        let persist =
          Option.map
            (fun w ~instance ~value ~round ->
              let t0 = Probe.enter tr in
              Serve.Wal.append w ~instance ~value ~round;
              Probe.leave tr l_wal ~id:instance t0)
            wals.(idx)
        in
        M.create
          { Serve.Mux.me; n; t = cfg.Lb.t; big_d = cfg.Lb.big_d; max_rounds; kill_after }
          ?persist ~emit ())
  in
  Array.iteri
    (fun idx mux ->
      let send ~dest bytes ~len =
        moved := true;
        let t0 = Probe.enter tr in
        let s = Bytes.unsafe_to_string bytes in
        if dest = 0 then Live.Frame.feed client_dec.(idx) s ~pos:0 ~len
        else if dest >= 1 && dest <= n then
          Live.Frame.feed decoders.(idx).(dest - 1) s ~pos:0 ~len;
        Probe.leave tr l_feed ~id:dest t0;
        `Done
      in
      batches.(idx) <-
        Some (Serve.Batch.create ~n ~batch:cfg.Lb.batch ~stats:(M.stats mux) ~send))
    muxes;
  let decisions = Array.init cfg.Lb.instances (fun _ -> Array.make n None) in
  let submit_t = Array.make (max 1 cfg.Lb.instances) 0.0 in
  let latencies = ref [] in
  let pop dec =
    let t0 = Probe.enter tr in
    let r = Live.Frame.pop_view dec in
    let id = match r with `View v -> v.Live.Frame.instance | _ -> -1 in
    Probe.leave tr l_decode ~id t0;
    r
  in
  let drain_link s d =
    let dec = decoders.(s).(d) in
    let rec go () =
      match pop dec with
      | `View v ->
        moved := true;
        let id = v.Live.Frame.instance in
        let t0 = Probe.enter tr in
        M.on_view muxes.(d) ~now:!now ~from:(s + 1) v;
        Probe.leave tr l_view ~id t0;
        go ()
      | `Need_more -> ()
      | `Corrupt why -> failwith ("replay: corrupt stream: " ^ why)
    in
    go ()
  in
  let drain_client idx =
    let dec = client_dec.(idx) in
    let rec go () =
      match pop dec with
      | `View v ->
        moved := true;
        (match v.Live.Frame.kind with
        | Live.Frame.K_decide ->
          let i = v.Live.Frame.instance in
          if i >= 0 && i < cfg.Lb.instances && decisions.(i).(idx) = None then
            decisions.(i).(idx) <- Some (v.Live.Frame.value, v.Live.Frame.round)
        | _ -> ());
        go ()
      | `Need_more -> ()
      | `Corrupt why -> failwith ("replay: corrupt client stream: " ^ why)
    in
    go ()
  in
  let deliver () =
    let continue = ref true in
    while !continue do
      moved := false;
      Array.iteri
        (fun idx -> function
          | Some b ->
            let t0 = Probe.enter tr in
            Serve.Batch.flush b;
            Probe.leave tr l_flush ~id:(idx + 1) t0
          | None -> ())
        batches;
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          drain_link s d
        done
      done;
      for idx = 0 to n - 1 do
        drain_client idx
      done;
      continue := !moved
    done
  in
  let next_submit = ref 0 in
  let inflight = ref [] in
  let submit_instance i =
    submit_t.(i) <- !now;
    inflight := i :: !inflight;
    for node = n downto 1 do
      let t0 = Probe.enter tr in
      M.submit muxes.(node - 1) ~now:!now ~instance:i
        ~proposal:(cfg.Lb.proposals i node);
      Probe.leave tr l_submit ~id:i t0
    done
  in
  let is_settled i =
    let ok = ref true in
    for j = 0 to n - 1 do
      if decisions.(i).(j) = None && not (M.halted muxes.(j)) then ok := false
    done;
    !ok
  in
  let settle_pass () =
    let t0 = Probe.enter tr in
    inflight :=
      List.filter
        (fun i ->
          if is_settled i then begin
            latencies := (!now -. submit_t.(i)) :: !latencies;
            false
          end
          else true)
        !inflight;
    Probe.leave tr l_client ~id:(-1) t0
  in
  let refill () =
    let t0 = Probe.enter tr in
    let before = !next_submit in
    while List.length !inflight < window && !next_submit < cfg.Lb.instances do
      submit_instance !next_submit;
      incr next_submit
    done;
    Probe.leave tr l_client ~id:before t0;
    !next_submit <> before
  in
  let started = Probe.now () in
  let stuck = ref false in
  let guard = ref ((cfg.Lb.instances * (max_rounds + 2)) + 64) in
  ignore (refill ());
  while !inflight <> [] && (not !stuck) && !guard > 0 do
    decr guard;
    let rec instant () =
      deliver ();
      settle_pass ();
      if refill () then instant ()
    in
    instant ();
    if !inflight <> [] then begin
      let best = ref infinity in
      Array.iter
        (fun m ->
          match M.next_deadline m with
          | Some dl when dl < !best -> best := dl
          | _ -> ())
        muxes;
      if !best = infinity then stuck := true
      else begin
        now := max !now !best;
        Array.iter
          (fun m ->
            let t0 = Probe.enter tr in
            M.expire m ~now:!now;
            Probe.leave tr l_expire ~id:(-1) t0)
          muxes
      end
    end
  done;
  let wall = Probe.now () -. started in
  Array.iter (Option.iter Serve.Wal.close) wals;
  let victim =
    match cfg.Lb.kill with
    | Some k ->
      let m = muxes.(k.Serve.Report.node - 1) in
      if M.halted m then Some (k.Serve.Report.node, M.realized m) else None
    | None -> None
  in
  let stats =
    Array.to_list
      (Array.mapi
         (fun idx m ->
           let s = M.stats m in
           s.Serve.Stats.slab_capacity <- M.slab_capacity m;
           s.Serve.Stats.slab_reused <- M.slab_reused m;
           (idx + 1, s))
         muxes)
  in
  let report =
    Serve.Report.build ~n ~t:cfg.Lb.t ~proposals:cfg.Lb.proposals ~decisions
      ~victim ~send_plan:Serve.Binding.Rwwc.send_plan ~elapsed:wall
      ~latencies:!latencies ~stats ~kill:cfg.Lb.kill
  in
  { r_report = report; r_decisions = decisions; r_wall = wall }

(* The loopback exposes its decision table only through its report, so
   the identity check compares every report field the table and the
   per-node counters determine: completion, judge verdicts (each one
   compares that instance's decisions with the abstract engine under the
   same realized schedule), the virtual-clock latency distribution, and
   every per-node counter except the WAL's, which only the composition
   may be asked to write. *)
let faithful (a : Serve.Report.t) (b : Serve.Report.t) =
  let norm (node, s) =
    let c = Serve.Stats.create () in
    Serve.Stats.add c s;
    c.Serve.Stats.wal_appends <- 0;
    (node, c)
  in
  a.Serve.Report.completed = b.Serve.Report.completed
  && a.Serve.Report.undecided = b.Serve.Report.undecided
  && a.Serve.Report.judged = b.Serve.Report.judged
  && a.Serve.Report.ok && b.Serve.Report.ok
  && a.Serve.Report.latency = b.Serve.Report.latency
  && List.map norm a.Serve.Report.stats = List.map norm b.Serve.Report.stats

(* {1 Runs} *)

let ms x = x *. 1e3
let us x = x *. 1e6

let storm_failures ss = isum (fun s -> s.failed) ss

let ( let* ) = Result.bind

let end_to_end spec ~ws ~seed ~seconds =
  let* probes = setups spec ~ws in
  let* ss = storms spec ~ws ~seed ~seconds in
  let decided = isum (fun s -> s.report.Serve.Report.completed) ss in
  let attempted = isum (fun s -> s.report.Serve.Report.instances) ss in
  let judged = isum (fun s -> s.report.Serve.Report.judged) ss in
  let samples = isum (fun s -> s.settled) ss in
  let setups = Array.of_list (probes @ List.map (fun s -> s.setup) ss) in
  let failed = storm_failures ss in
  let dps s = float_of_int s.report.Serve.Report.completed /. s.storm_wall in
  (* Each figure is the median over the run's storms, so one storm slowed
     by a noisy neighbour does not move it. *)
  let per_storm f = Probe.median (Array.of_list (List.map f ss)) in
  let m = Probe.metric in
  Ok
    {
      Probe.correct = failed = 0;
      attempted;
      failed;
      metrics =
        [
          m ~samples:decided "decisions_per_s" "1/s" (per_storm dps);
          (* Each settled instance is one schedule the fleet ran, and the
             judge checks it: served-and-verified instances per second. *)
          m ~samples:judged "schedules_per_s" "1/s"
            (per_storm (fun s ->
                 float_of_int s.report.Serve.Report.judged /. (s.storm_wall +. s.judge)));
          m ~samples "latency_p50_ms" "ms" (per_storm (fun s -> ms s.p50));
          m ~samples "latency_p99_ms" "ms" (per_storm (fun s -> ms s.p99));
          m ~samples:(Array.length setups) "setup_s" "s" (Probe.median setups);
          m "peak_rss_mb" "MiB" (Probe.peak_rss_mb ());
        ];
      notes =
        [
          Printf.sprintf
            "%s: %d storms of %d instances, n=%d t=%d window=%d big_d=%gs, WAL off; %d set-ups"
            spec.name (List.length ss) spec.instances n t window spec.big_d
            (Array.length setups);
          "per storm (decisions/s, p50 ms, p99 ms): "
          ^ String.concat " | "
              (List.map
                 (fun s -> Printf.sprintf "%.0f %.3f %.3f" (dps s) (ms s.p50) (ms s.p99))
                 ss);
          Printf.sprintf
            "failed_share = %d / %d (instances undecided, judged failed or past the round bound; %d past the bound)"
            failed attempted (isum (fun s -> s.breaches) ss);
        ];
    }

(* The probes, on the fault-free stream of storm 0:
   - one WAL-off socket storm, the fleet's fault-free throughput;
   - one WAL-on socket storm cut to [wal_instances] (engine counters, log
     sizes, {!Serve.Wal.recover} over the logs it leaves);
   - one traced WAL-on replay, with [Wal.append] as the mux's persist hook
     and a span around each call.
   Returns the instances attempted, the failures and the metrics. *)
let probes ~ws ~seed =
  let lb = lb_config fault_free ~seed ~storm:0 in
  let* f = socket_storm fault_free ~ws ~wal:false lb in
  let lb = { lb with Lb.instances = wal_instances } in
  let* s = socket_storm fault_free ~ws ~wal:true lb in
  let dir = Filename.concat ws "replay" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tr = Probe.create ~on:true () in
  let r = replay lb ~tracer:tr ~wal_dir:(Some dir) in
  clear_logs dir;
  Unix.rmdir dir;
  let appends = Probe.find tr "wal.append" in
  let decided = s.report.Serve.Report.completed in
  let d = float_of_int (max 1 decided) in
  let recover_s, recover_n = s.wal_recover in
  let m = Probe.metric in
  let f_decided = f.report.Serve.Report.completed in
  Ok
    ( fault_free.instances + (2 * wal_instances),
      (f.failed + s.failed + if r.r_report.Serve.Report.ok then 0 else 1),
      [
        m ~samples:f_decided "fault_free.decisions_per_s" "1/s"
          (float_of_int f_decided /. f.storm_wall);
        m ~samples:decided "wal.appends_per_decision" "count"
          (float_of_int s.report.Serve.Report.total.Serve.Stats.wal_appends /. d);
        m ~samples:decided "wal.bytes_per_decision" "bytes"
          (float_of_int s.wal_bytes /. d);
        m ~samples:appends.Probe.nsamples "wal.append_p50_us" "us"
          (Probe.sample_percentile_us appends 0.50);
        m ~samples:appends.Probe.nsamples "wal.append_p99_us" "us"
          (Probe.sample_percentile_us appends 0.99);
        m ~samples:recover_n "wal.recover_us_per_entry" "us"
          (us recover_s /. float_of_int (max 1 recover_n));
        m ~samples:decided "wal.storm_decisions_per_s" "1/s"
          (float_of_int decided /. s.storm_wall);
      ] )

let per_layer spec ~ws ~seed ~seconds =
  (* Half the budget on socket storms for the counters only the forked
     engines can report, the rest on in-process replays of storm 0. *)
  let* ss = storms spec ~ws ~seed ~seconds:(seconds /. 2.0) in
  let* probe_attempted, probe_failed, probe_metrics = probes ~ws ~seed in
  let decided = isum (fun s -> s.report.Serve.Report.completed) ss in
  let attempted = isum (fun s -> s.report.Serve.Report.instances) ss in
  let d = float_of_int (max 1 decided) in
  let total = Serve.Stats.create () in
  List.iter (fun s -> Serve.Stats.add total s.report.Serve.Report.total) ss;
  let round_max, round2 =
    List.fold_left
      (fun (m, r2) { rounds = m', r2'; _ } -> (max m m', r2 + r2'))
      (0, 0) ss
  in
  let storm_wall = sum (fun s -> s.storm_wall) ss in
  let engine_cpu = sum (fun s -> s.engine_cpu) ss in
  let judged = isum (fun s -> s.report.Serve.Report.judged) ss in
  let cfg = lb_config spec ~seed ~storm:0 in
  let lb = Lb.run cfg in
  let plain = replay cfg ~tracer:(Probe.create ~on:false ()) ~wal_dir:None in
  let tr = Probe.create ~on:true () in
  let traced = replay cfg ~tracer:tr ~wal_dir:None in
  let same_as_loopback = faithful plain.r_report lb in
  let same_traced = plain.r_decisions = traced.r_decisions in
  let replay_failed =
    (if same_as_loopback then 0 else 1) + if same_traced then 0 else 1
  in
  let rd = float_of_int (max 1 plain.r_report.Serve.Report.completed) in
  let self name = float_of_int (Probe.find tr name).Probe.self *. 1e-9 in
  let calls name = (Probe.find tr name).Probe.calls in
  let self_sum =
    List.fold_left (fun acc l -> acc + l.Probe.self) 0 tr.Probe.layers
  in
  (* Every frame the replay writes is decoded once; a decode call that
     finds no complete frame still counts toward the layer's time. *)
  let frames = traced.r_report.Serve.Report.total.Serve.Stats.frames_out in
  let spans_path = Filename.concat ws "spans.jsonl" in
  let oc = open_out spans_path in
  Probe.dump tr oc ~shard:0;
  close_out oc;
  let failed = storm_failures ss + replay_failed + probe_failed in
  (* The two replay identity checks count as attempts of their own. *)
  let m = Probe.metric in
  Ok
    {
      Probe.correct = failed = 0;
      attempted = attempted + 2 + probe_attempted;
      failed;
      metrics =
        [
          m ~samples:decided "frame.frames_per_decision" "count"
            (float_of_int total.Serve.Stats.frames_out /. d);
          m ~samples:decided "frame.bytes_per_decision" "bytes"
            (float_of_int total.Serve.Stats.bytes_out /. d);
          m ~samples:(calls "frame.encode") "frame.encode_ns" "ns"
            (self "frame.encode" *. 1e9 /. float_of_int (max 1 (calls "frame.encode")));
          m ~samples:frames "frame.decode_ns" "ns"
            (self "frame.decode" *. 1e9 /. float_of_int (max 1 frames));
          m ~samples:(calls "mux.submit" + calls "mux.on_view" + calls "mux.expire")
            "mux.busy_us_per_decision" "us"
            (us (self "mux.submit" +. self "mux.on_view" +. self "mux.expire") /. rd);
          m ~samples:decided "mux.fast_rounds_per_decision" "count"
            (float_of_int total.Serve.Stats.fast_rounds /. d);
          m ~samples:decided "mux.expired_rounds_per_decision" "count"
            (float_of_int total.Serve.Stats.expired_rounds /. d);
          m "mux.late_frames" "count" (float_of_int total.Serve.Stats.late_frames);
          m ~samples:decided "mux.decide_round_max" "round" (float_of_int round_max);
          m ~samples:decided "mux.round2_share" "share" (float_of_int round2 /. d);
          m "batch.frames_per_write" "count"
            (float_of_int total.Serve.Stats.frames_out
            /. float_of_int (max 1 total.Serve.Stats.write_calls));
          m ~samples:decided "batch.writes_per_decision" "count"
            (float_of_int total.Serve.Stats.write_calls /. d);
          m ~samples:(calls "batch.flush") "batch.flush_us_per_decision" "us"
            (us (self "batch.flush") /. rd);
          m "outq.partial_writes" "count" (float_of_int total.Serve.Stats.partial_writes);
          m "outq.overflow_kills" "count" (float_of_int total.Serve.Stats.overflow_kills);
          m ~samples:decided "engine.cpu_us_per_decision" "us" (us engine_cpu /. d);
          m "engine.idle_share" "share"
            (1.0 -. (engine_cpu /. (float_of_int n *. storm_wall)));
          m ~samples:decided "client.cpu_us_per_decision" "us"
            (us (sum (fun s -> s.client_cpu) ss) /. d);
          m ~samples:(List.length ss) "fleet.spawn_s" "s"
            (Probe.median (Array.of_list (List.map (fun s -> s.setup) ss)));
          m ~samples:(List.length ss) "fleet.teardown_s" "s"
            (Probe.median (Array.of_list (List.map (fun s -> s.teardown) ss)));
          m ~samples:judged "report.judge_us_per_instance" "us"
            (us (sum (fun s -> s.judge) ss) /. float_of_int (max 1 judged));
          m ~samples:cfg.Lb.instances "loopback.decisions_per_s" "1/s"
            lb.Serve.Report.decisions_per_sec;
          m "trace.overhead_share" "share" ((traced.r_wall /. plain.r_wall) -. 1.0);
          m "trace.accounted_share" "share"
            (float_of_int self_sum *. 1e-9 /. traced.r_wall);
        ]
        @ probe_metrics;
      notes =
        [
          Printf.sprintf "%s traced: %d socket storms (%d decisions); replay of storm 0 (%d instances)"
            spec.name (List.length ss) decided cfg.Lb.instances;
          Printf.sprintf "replay vs Serve.Loopback.Rwwc.run: %s; traced vs untraced decision tables: %s"
            (if same_as_loopback then "identical" else "MISMATCH")
            (if same_traced then "identical" else "MISMATCH");
          Printf.sprintf "spans: %d kept in %s" tr.Probe.logged spans_path;
        ];
    }
