type config = {
  me : int;
  n : int;
  t : int;
  transport : [ `Unix of string | `Tcp of int ];
  big_d : float;
  max_rounds : int;
  batch : bool;
  backend : Evloop.backend;
  kill_after : int option;
  linger : bool;
  wal_dir : string option;
  rejoin : bool;
  dial : (int -> Unix.sockaddr) option;
  status : out_channel;
  log : out_channel;
}

let handshake_timeout = 10.0

(* A rejoining engine gives each peer this long to come up; a peer that is
   itself dead (or also mid-respawn) just stays disconnected — it will dial
   us when it recovers. *)
let rejoin_dial_timeout = 2.0

(* Fallback for the catch-up gate: if a dialed peer never sends its
   end-of-batch marker (killed mid-push), the rejoining engine starts
   serving clients anyway after this long. *)
let catchup_timeout = 5.0

(* A freshly accepted connection has this long to say Hello before the
   loop drops it — a slow-loris fd costs a map entry, never a stall. *)
let hello_deadline = 2.0

(* Outbound backlog (bytes) past which a never-draining destination is
   declared dead instead of holding memory forever.  Peers get more room
   than clients: a peer backlog means the mesh itself is sick. *)
let peer_hwm = 8 * 1024 * 1024
let client_hwm = 1024 * 1024

(* Frames decoded per client per wakeup before the loop moves to the next
   client — with the round-robin rotation below, a chatty client cannot
   starve another client's Submits. *)
let client_frame_budget = 1024

module Make (A : Binding.ALGO) = struct
  module M = Mux.Make (A)

  type peer = {
    pid : int;
    mutable fd : Unix.file_descr option;
    mutable decoder : Live.Frame.decoder;
        (* replaced wholesale when a restarted peer re-handshakes: the new
           connection is a fresh byte stream *)
    outq : Outq.t;
  }

  type client = {
    id : int;
    cfd : Unix.file_descr;
    cdec : Live.Frame.decoder;
    coutq : Outq.t;
    mutable alive : bool;
    mutable backlog : bool;  (* decoded frames left over from a budget cut *)
  }

  type pending = {
    pfd : Unix.file_descr;
    pbuf : Bytes.t;
    mutable got : int;
    pdeadline : float;
  }

  type kind = K_listen | K_peer of peer | K_client of client | K_pending of pending

  let logf cfg fmt =
    Printf.ksprintf
      (fun s ->
        Printf.fprintf cfg.log "[%.6f p%d] %s\n" (Live.Sockets.now ()) cfg.me s;
        flush cfg.log)
      fmt

  let status_event cfg fields =
    output_string cfg.status (Obs.Json.to_string (Obs.Json.Obj fields));
    output_char cfg.status '\n';
    flush cfg.status

  (* One loop's worth of mutable wiring: the registry maps each live fd to
     what it is, and the client list is what the round-robin rotates over. *)
  type loop = {
    cfg : config;
    ev : Evloop.t;
    registry : (Unix.file_descr, kind) Hashtbl.t;
    peers : peer array;
    mutable clients : client list;
    mutable pendings : pending list;
    mutable next_client_id : int;
    mutable rr : int;  (* rotation cursor for fair client draining *)
    mutable had_client : bool;
  }

  let new_client lp fd =
    let c =
      {
        id = lp.next_client_id;
        cfd = fd;
        cdec = Live.Frame.decoder ();
        coutq = Outq.create ~hwm:client_hwm ();
        alive = true;
        backlog = false;
      }
    in
    lp.next_client_id <- lp.next_client_id + 1;
    lp.clients <- lp.clients @ [ c ];
    lp.had_client <- true;
    Hashtbl.replace lp.registry fd (K_client c);
    Evloop.register lp.ev fd ~read:true ~write:false;
    c

  let drop_fd lp fd =
    Evloop.deregister lp.ev fd;
    Hashtbl.remove lp.registry fd;
    try Unix.close fd with Unix.Unix_error _ -> ()

  let mark_dead lp peer why =
    match peer.fd with
    | None -> ()
    | Some fd ->
      logf lp.cfg "peer p%d gone: %s" peer.pid why;
      Outq.clear peer.outq;
      drop_fd lp fd;
      peer.fd <- None

  let client_dead lp c why =
    if c.alive then begin
      logf lp.cfg "client #%d gone: %s" c.id why;
      Outq.clear c.coutq;
      drop_fd lp c.cfd;
      c.alive <- false;
      c.backlog <- false
    end

  let drop_pending lp p why =
    logf lp.cfg "late connection dropped: %s" why;
    lp.pendings <- List.filter (fun q -> q != p) lp.pendings;
    drop_fd lp p.pfd

  let dial_addr cfg p =
    match cfg.dial with
    | Some f -> f p
    | None -> Live.Sockets.addr_of ~transport:cfg.transport p

  (* The mesh handshake, with one serve-specific twist: the listen fd stays
     open for the engine's whole life (clients rendezvous on the same
     address), and a Hello carrying node 0 — a client racing the mesh — is
     accepted into the client list instead of failing the handshake.

     A rejoining engine (restart after a crash) instead dials {e every}
     peer — the static dial-up/accept-down orientation only holds at fleet
     birth — with a bounded per-peer timeout, tolerating peers that are
     themselves down, and expects no accepts: its peers will push their
     decision logs as Catchup batches on the new connections.  Returns the
     listen fd and the number of peers reached (the number of catch-up
     end markers to wait for). *)
  let establish lp =
    let cfg = lp.cfg in
    let jitter =
      Some (Prng.Rng.of_int ((cfg.me * 7919) lxor Unix.getpid ()))
    in
    let lfd =
      match
        Live.Sockets.listen ~backlog:128
          (Live.Sockets.addr_of ~transport:cfg.transport cfg.me)
      with
      | Ok fd -> fd
      | Error e -> failwith ("listen: " ^ Live.Sockets.error_to_string e)
    in
    let hello = Live.Frame.encode (Live.Frame.Hello { node = cfg.me }) in
    if cfg.rejoin then begin
      let dialed = ref 0 in
      for p = 1 to cfg.n do
        if p <> cfg.me then begin
          let deadline = Live.Sockets.now () +. rejoin_dial_timeout in
          match Live.Sockets.connect_retry ?jitter ~deadline (dial_addr cfg p) with
          | Error e ->
            logf cfg "rejoin: p%d unreachable (%s)" p
              (Live.Sockets.error_to_string e)
          | Ok fd -> (
            match Live.Sockets.write_all ~deadline fd hello with
            | Ok () ->
              lp.peers.(p - 1).fd <- Some fd;
              incr dialed;
              logf cfg "rejoin: dialed p%d" p
            | Error e ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              logf cfg "rejoin: hello to p%d failed (%s)" p
                (Live.Sockets.error_to_string e))
        end
      done;
      (lfd, !dialed)
    end
    else begin
      let deadline = Live.Sockets.now () +. handshake_timeout in
      for p = cfg.me + 1 to cfg.n do
        match Live.Sockets.connect_retry ?jitter ~deadline (dial_addr cfg p) with
        | Error e ->
          failwith
            (Printf.sprintf "connect to p%d: %s" p (Live.Sockets.error_to_string e))
        | Ok fd -> (
          match Live.Sockets.write_all ~deadline fd hello with
          | Ok () ->
            lp.peers.(p - 1).fd <- Some fd;
            logf cfg "dialed p%d" p
          | Error e ->
            failwith
              (Printf.sprintf "hello to p%d: %s" p (Live.Sockets.error_to_string e)))
      done;
      let expected = ref (cfg.me - 1) in
      while !expected > 0 do
        match Live.Sockets.accept_timeout ~deadline lfd with
        | Error e -> failwith (Live.Sockets.error_to_string e)
        | Ok fd -> (
          match Live.Sockets.read_exact ~deadline fd Live.Frame.hello_size with
          | Error e -> failwith ("handshake: " ^ Live.Sockets.error_to_string e)
          | Ok bytes -> (
            match Live.Frame.hello_of bytes with
            | Error why -> failwith why
            | Ok 0 ->
              Unix.set_nonblock fd;
              ignore (new_client lp fd);
              logf cfg "client connected during handshake"
            | Ok node when node >= 1 && node < cfg.me ->
              if lp.peers.(node - 1).fd <> None then
                failwith (Printf.sprintf "handshake: duplicate hello from p%d" node);
              lp.peers.(node - 1).fd <- Some fd;
              decr expected;
              logf cfg "accepted p%d" node
            | Ok node -> failwith (Printf.sprintf "handshake: bad hello node %d" node)))
      done;
      (lfd, 0)
    end

  let main cfg =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* Recover the durable decision log before touching the network: a
       rejected WAL (torn header, foreign node, unknown version) degrades
       to a clean fresh join — delete and re-create — never to replaying
       suspect decisions. *)
    let wal, recovered =
      match cfg.wal_dir with
      | None -> (None, [])
      | Some dir -> (
        let path = Wal.path ~dir ~node:cfg.me in
        match Wal.recover ~path ~node:cfg.me with
        | Ok (w, r) ->
          if r.Wal.discarded > 0 then
            logf cfg "wal: rejected %d torn/corrupt trailing bytes"
              r.Wal.discarded;
          (Some w, r.Wal.entries)
        | Error why ->
          logf cfg "wal rejected (%s); degrading to a fresh join" why;
          (try Sys.remove path with Sys_error _ -> ());
          (match Wal.recover ~path ~node:cfg.me with
          | Ok (w, r) -> (Some w, r.Wal.entries)
          | Error why -> failwith ("wal: " ^ why)))
    in
    let lp =
      {
        cfg;
        ev = Evloop.create ~backend:cfg.backend ();
        registry = Hashtbl.create 64;
        peers =
          Array.init cfg.n (fun i ->
              {
                pid = i + 1;
                fd = None;
                decoder = Live.Frame.decoder ();
                outq = Outq.create ~hwm:peer_hwm ();
              });
        clients = [];
        pendings = [];
        next_client_id = 0;
        rr = 0;
        had_client = false;
      }
    in
    let lfd, rejoin_dialed = establish lp in
    Unix.set_nonblock lfd;
    Hashtbl.replace lp.registry lfd K_listen;
    Evloop.register lp.ev lfd ~read:true ~write:false;
    Array.iter
      (fun p ->
        if p.pid <> cfg.me then
          match p.fd with
          | Some fd ->
            Unix.set_nonblock fd;
            Hashtbl.replace lp.registry fd (K_peer p);
            Evloop.register lp.ev fd ~read:true ~write:false
          | None -> ())
      lp.peers;
    let batch_cell : Batch.t option ref = ref None in
    let the_batch () =
      match !batch_cell with Some b -> b | None -> assert false
    in
    (* Mesh frames coalesce per peer; this send closure only *enqueues* —
       bytes hit a socket exclusively in [pump], when the fd is writable.
       Destination 0 broadcasts to every connected client through one
       refcounted chunk; the buffer returns to the batch pool when the
       last client drains it. *)
    let send ~dest bytes ~len =
      let recycle b = Batch.put_back (the_batch ()) b in
      if dest = 0 then begin
        let live = List.filter (fun c -> c.alive) lp.clients in
        match live with
        | [] -> `Done  (* nobody listening: drop, reuse the buffer *)
        | _ ->
          let chunk =
            Outq.chunk ~shares:(List.length live) ~recycle bytes ~len
          in
          List.iter (fun c -> Outq.push c.coutq chunk) live;
          `Taken
      end
      else
        let peer = lp.peers.(dest - 1) in
        match peer.fd with
        | None -> `Done  (* dead peer: drop *)
        | Some _ ->
          Outq.push peer.outq (Outq.chunk ~recycle bytes ~len);
          `Taken
    in
    let mux =
      M.create
        {
          Mux.me = cfg.me;
          n = cfg.n;
          t = cfg.t;
          big_d = cfg.big_d;
          max_rounds = cfg.max_rounds;
          kill_after = cfg.kill_after;
        }
        ?persist:
          (Option.map
             (fun w ~instance ~value ~round ->
               Wal.append w ~instance ~value ~round)
             wal)
        ~emit:(fun ~dest frame ->
          Batch.add (the_batch ()) ~dest (Live.Frame.encode frame))
        ()
    in
    List.iter
      (fun e ->
        M.seed_decision mux ~instance:e.Wal.instance ~value:e.Wal.value
          ~round:e.Wal.round)
      recovered;
    if recovered <> [] then
      logf cfg "wal: replayed %d decisions" (List.length recovered);
    let batch =
      Batch.create ~n:cfg.n ~batch:cfg.batch ~stats:(M.stats mux) ~send
    in
    batch_cell := Some batch;
    let stats = M.stats mux in
    (* Rejoin catch-up gate: until every reached peer has pushed its
       decision-log batch (or the fallback deadline passes), client
       Submits stay unread — re-running an instance the mesh already
       decided, alone and from round 1, could converge on a different
       value.  Mesh traffic flows normally throughout. *)
    let catchup_expect = ref rejoin_dialed in
    let catchup_got = ref 0 in
    let catchup_deadline = Live.Sockets.now () +. catchup_timeout in
    let caught_up = ref (not cfg.rejoin || rejoin_dialed = 0) in
    let check_caught_up () =
      if not !caught_up then
        if !catchup_got >= !catchup_expect then begin
          caught_up := true;
          logf cfg "caught up: %d peer batches, %d decisions adopted"
            !catchup_got stats.Stats.catchup_in
        end
        else if Live.Sockets.now () > catchup_deadline then begin
          caught_up := true;
          logf cfg "catch-up timed out (%d of %d batches); serving anyway"
            !catchup_got !catchup_expect
        end
    in
    (* Peers that recently rejoined keep receiving every new decision as a
       Catchup mirror until the instances that straddled their outage have
       drained — one full horizon plus slack. *)
    let mirror_window =
      (float_of_int (cfg.max_rounds + 2) *. cfg.big_d) +. 1.0
    in
    let mirror_until = Array.make cfg.n 0.0 in
    let mirror_refresh () =
      let now = Live.Sockets.now () in
      let live = ref [] in
      for p = cfg.n downto 1 do
        if p <> cfg.me && mirror_until.(p - 1) > now then live := p :: !live
      done;
      M.set_mirror mux !live
    in
    (* Drain one destination's queue opportunistically and keep its write
       interest armed exactly while bytes remain. *)
    let pump_peer peer =
      match peer.fd with
      | None -> ()
      | Some fd ->
        if Outq.over_hwm peer.outq then begin
          stats.Stats.overflow_kills <- stats.Stats.overflow_kills + 1;
          mark_dead lp peer
            (Printf.sprintf "outbound backlog over %d bytes" peer_hwm)
        end
        else (
          match Outq.drain peer.outq ~stats fd with
          | `Empty -> Evloop.register lp.ev fd ~read:true ~write:false
          | `Blocked -> Evloop.register lp.ev fd ~read:true ~write:true
          | `Closed why -> mark_dead lp peer why)
    in
    let pump_client c =
      if c.alive then
        if Outq.over_hwm c.coutq then begin
          stats.Stats.overflow_kills <- stats.Stats.overflow_kills + 1;
          client_dead lp c
            (Printf.sprintf "outbound backlog over %d bytes (never reads?)"
               client_hwm)
        end
        else
          match Outq.drain c.coutq ~stats c.cfd with
          | `Empty -> Evloop.register lp.ev c.cfd ~read:true ~write:false
          | `Blocked -> Evloop.register lp.ev c.cfd ~read:true ~write:true
          | `Closed why -> client_dead lp c why
    in
    let pump_all () =
      Array.iter
        (fun p -> if p.fd <> None && not (Outq.is_empty p.outq) then pump_peer p)
        lp.peers;
      List.iter
        (fun c -> if c.alive && not (Outq.is_empty c.coutq) then pump_client c)
        lp.clients
    in
    status_event cfg
      [
        ("event", Obs.Json.String "ready");
        ("node", Obs.Json.Int cfg.me);
        ("recovered", Obs.Json.Int (List.length recovered));
      ];
    logf cfg "mesh up; serving (%s backend)" (Evloop.backend_to_string cfg.backend);
    let buf = Bytes.create 65536 in
    let drain_peer peer =
      let rec go () =
        if not (M.halted mux) then
          match Live.Frame.pop_view peer.decoder with
          | `View v ->
            (* A Catchup with round 0 is a peer's end-of-batch marker for
               the rejoin gate, not a decision. *)
            if
              v.Live.Frame.kind = Live.Frame.K_catchup
              && v.Live.Frame.round = 0
            then begin
              incr catchup_got;
              logf lp.cfg "catch-up batch from p%d: %d decisions" peer.pid
                v.Live.Frame.value;
              check_caught_up ()
            end
            else M.on_view mux ~now:(Live.Sockets.now ()) ~from:peer.pid v;
            go ()
          | `Need_more -> ()
          | `Corrupt why -> mark_dead lp peer ("corrupt stream: " ^ why)
      in
      go ()
    in
    let read_peer peer =
      match peer.fd with
      | None -> ()
      | Some fd -> (
        match Live.Sockets.read_chunk fd buf with
        | `Data k ->
          Live.Frame.feed peer.decoder (Bytes.unsafe_to_string buf) ~pos:0 ~len:k;
          drain_peer peer
        | `Closed -> mark_dead lp peer "eof"
        | `Nothing -> ())
    in
    (* Decode at most [client_frame_budget] frames, then yield: leftover
       frames stay buffered and flag [backlog] so the next iteration (at
       timeout 0) resumes — after every other client had its turn. *)
    let drain_client c =
      let budget = ref client_frame_budget in
      let rec go () =
        if c.alive && not (M.halted mux) then
          if !budget = 0 then c.backlog <- true
          else
            match Live.Frame.pop_view c.cdec with
            | `View v ->
              decr budget;
              (match v.Live.Frame.kind with
              | Live.Frame.K_submit ->
                M.submit mux ~now:(Live.Sockets.now ())
                  ~instance:v.Live.Frame.instance ~proposal:v.Live.Frame.value
              | _ -> ());
              go ()
            | `Need_more -> c.backlog <- false
            | `Corrupt why -> client_dead lp c ("corrupt stream: " ^ why)
      in
      go ()
    in
    let read_client c =
      if c.alive then
        match Live.Sockets.read_chunk c.cfd buf with
        | `Data k ->
          Live.Frame.feed c.cdec (Bytes.unsafe_to_string buf) ~pos:0 ~len:k
        | `Closed -> client_dead lp c "disconnected"
        | `Nothing -> ()
    in
    let accept_drain () =
      let continue = ref true in
      while !continue do
        match Live.Sockets.accept_nonblock lfd with
        | `Conn fd ->
          let p =
            {
              pfd = fd;
              pbuf = Bytes.create Live.Frame.hello_size;
              got = 0;
              pdeadline = Live.Sockets.now () +. hello_deadline;
            }
          in
          lp.pendings <- p :: lp.pendings;
          Hashtbl.replace lp.registry fd (K_pending p);
          Evloop.register lp.ev fd ~read:true ~write:false
        | `Nothing -> continue := false
        | `Error e ->
          logf cfg "accept: %s" (Live.Sockets.error_to_string e);
          continue := false
      done
    in
    let pending_read p =
      match Unix.read p.pfd p.pbuf p.got (Live.Frame.hello_size - p.got) with
      | 0 -> drop_pending lp p "closed before hello"
      | k ->
        p.got <- p.got + k;
        if p.got >= Live.Frame.hello_size then begin
          lp.pendings <- List.filter (fun q -> q != p) lp.pendings;
          match Live.Frame.hello_of (Bytes.to_string p.pbuf) with
          | Ok 0 ->
            Hashtbl.remove lp.registry p.pfd;
            Evloop.deregister lp.ev p.pfd;
            ignore (new_client lp p.pfd);
            logf cfg "client connected"
          | Ok node when node >= 1 && node <= cfg.n && node <> cfg.me ->
            (* A restarted peer re-handshaking into the mesh.  Reattach it
               on the fresh connection (the old one, if still registered,
               is from its previous life), then replay the whole decision
               log as a Catchup batch — FIFO on the new link, so the
               batch and its end marker arrive before any round traffic
               we send the peer afterwards — and mirror new decisions to
               it for a full horizon. *)
            let peer = lp.peers.(node - 1) in
            mark_dead lp peer "replaced by rejoin";
            Hashtbl.remove lp.registry p.pfd;
            Evloop.deregister lp.ev p.pfd;
            peer.fd <- Some p.pfd;
            peer.decoder <- Live.Frame.decoder ();
            Hashtbl.replace lp.registry p.pfd (K_peer peer);
            Evloop.register lp.ev p.pfd ~read:true ~write:false;
            let count = M.decided_count mux in
            M.iter_decided mux (fun ~instance ~value ~round ->
                stats.Stats.catchup_out <- stats.Stats.catchup_out + 1;
                Batch.add (the_batch ()) ~dest:node
                  (Live.Frame.encode
                     (Live.Frame.Catchup { instance; value; round })));
            Batch.add (the_batch ()) ~dest:node
              (Live.Frame.encode
                 (Live.Frame.Catchup { instance = 0; value = count; round = 0 }));
            mirror_until.(node - 1) <- Live.Sockets.now () +. mirror_window;
            mirror_refresh ();
            logf cfg "p%d rejoined; replaying %d decisions" node count
          | Ok node ->
            logf cfg "unexpected mesh hello from p%d after startup; dropped" node;
            drop_fd lp p.pfd
          | Error why ->
            logf cfg "bad late hello: %s" why;
            drop_fd lp p.pfd
        end
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error (errno, _, _) ->
        drop_pending lp p (Unix.error_message errno)
    in
    let ready_clients : client list ref = ref [] in
    let lfd_ready = ref false in
    let handle fd ~readable ~writable =
      match Hashtbl.find_opt lp.registry fd with
      | None -> ()  (* dropped by an earlier callback this round *)
      | Some K_listen -> if readable then lfd_ready := true
      | Some (K_pending p) -> if readable then pending_read p
      | Some (K_peer peer) ->
        (* Peers are latency-critical (round progress): serve in place. *)
        if writable then pump_peer peer;
        if readable then read_peer peer
      | Some (K_client c) ->
        if writable then pump_client c;
        if readable && not (List.memq c !ready_clients) then
          ready_clients := c :: !ready_clients
    in
    let running = ref true in
    while !running do
      let now0 = Live.Sockets.now () in
      let timeout =
        if List.exists (fun c -> c.alive && c.backlog) lp.clients then 0.0
        else begin
          let dl = ref (now0 +. 0.25) in
          (match M.next_deadline mux with
          | Some d when d < !dl -> dl := d
          | _ -> ());
          List.iter
            (fun p -> if p.pdeadline < !dl then dl := p.pdeadline)
            lp.pendings;
          Float.max 0.0 (!dl -. now0)
        end
      in
      ready_clients := [];
      lfd_ready := false;
      ignore (Evloop.wait lp.ev ~timeout ~handle);
      if !lfd_ready then accept_drain ();
      (* Fair client service: rotate the starting point, read one chunk
         from each client that signalled, then decode under the shared
         budget — backlogged clients rejoin even without new bytes. *)
      check_caught_up ();
      let service =
        if not !caught_up then []
        else
          List.filter
            (fun c -> c.alive && (c.backlog || List.memq c !ready_clients))
            lp.clients
      in
      (match service with
      | [] -> ()
      | _ ->
        let m = List.length service in
        let start = lp.rr mod m in
        lp.rr <- lp.rr + 1;
        let arr = Array.of_list service in
        for k = 0 to m - 1 do
          let c = arr.((start + k) mod m) in
          if c.alive && not (M.halted mux) then begin
            if List.memq c !ready_clients then read_client c;
            drain_client c
          end
        done);
      (* Expired hellos cost their fd, nothing else. *)
      let now1 = Live.Sockets.now () in
      List.iter
        (fun p ->
          if p.pdeadline <= now1 then drop_pending lp p "hello timed out")
        lp.pendings;
      (* Retire mirrors whose horizon has drained. *)
      let nowm = Live.Sockets.now () in
      let mirror_changed = ref false in
      Array.iteri
        (fun i u ->
          if u > 0.0 && u <= nowm then begin
            mirror_until.(i) <- 0.0;
            mirror_changed := true
          end)
        mirror_until;
      if !mirror_changed then mirror_refresh ();
      M.expire mux ~now:(Live.Sockets.now ());
      (* Everything this iteration produced goes to the queues — including,
         on a halt, the pre-crash prefix the budget allowed (the kernel
         would have flushed those buffers; the mux already stopped
         counting) — and the queues drain only as far as the kernel
         accepts without blocking. *)
      Batch.flush batch;
      pump_all ();
      lp.clients <- List.filter (fun c -> c.alive) lp.clients;
      if M.halted mux then begin
        (* Off the steady-state loop now: deliver the allowed prefix with
           a bounded synchronous flush, then stop for the SIGKILL. *)
        let dl = Live.Sockets.now () +. 2.0 in
        Array.iter
          (fun p ->
            match p.fd with
            | Some fd -> Outq.drain_blocking p.outq ~deadline:dl fd
            | None -> ())
          lp.peers;
        List.iter
          (fun c ->
            if c.alive then Outq.drain_blocking c.coutq ~deadline:dl c.cfd)
          lp.clients;
        logf cfg "kill budget exhausted after %d mesh writes; stopping"
          (M.mesh_writes mux);
        status_event cfg
          [
            ("event", Obs.Json.String "halted");
            ("node", Obs.Json.Int cfg.me);
            ( "realized",
              Obs.Json.List (List.map Mux.realized_to_json (M.realized mux)) );
            ("stats", Stats.to_json (M.stats mux));
          ];
        Live.Proc.halt ()
      end
      else if
        (not cfg.linger) && lp.had_client && lp.clients = [] && M.active mux = 0
      then begin
        logf cfg "last client gone and no instance active; exiting";
        status_event cfg
          [
            ("event", Obs.Json.String "stats");
            ("node", Obs.Json.Int cfg.me);
            ("stats", Stats.to_json (M.stats mux));
          ];
        running := false
      end
    done;
    (try Unix.close lfd with Unix.Unix_error _ -> ());
    Array.iter (fun p -> mark_dead lp p "shutdown") lp.peers;
    Option.iter Wal.close wal
end

module Rwwc = Make (Binding.Rwwc)
