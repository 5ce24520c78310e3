type config = {
  n : int;
  transport : [ `Unix of string | `Tcp of int ];
  first : int;
  instances : int;
  window : int;
  proposals : int -> int -> int;
  timeout : float;  (** overall wall-clock budget, seconds *)
  reconnect : bool;  (** re-dial dead engines with jittered backoff *)
}

type outcome = {
  decisions : (int * int) option array array;
  latencies : float list;
  elapsed : float;
  undecided : int list;
  dead_nodes : int list;
  reconnects : int;
  resubmits : int;
}

type node = {
  pid : int;
  mutable fd : Unix.file_descr option;
  mutable decoder : Live.Frame.decoder;
  mutable attempts : int;  (* reconnect attempts since the last success *)
  mutable next_try : float;  (* infinity = no reconnect pending *)
}

(* One in-flight instance.  [missing] counts the connected nodes it was
   sent to that have not answered; reaching zero *is* settlement, so the
   bookkeeping is O(1) per Decide.  [answered] marks the nodes whose Decide
   arrived: their later death or revival no longer touches the count. *)
type flight = { t0 : float; mutable missing : int; answered : bool array }

let connect_timeout = 10.0
let send_timeout = 2.0
let redial_timeout = 0.2
let reconnect_budget = 10
let reconnect_backoff = 0.05
let reconnect_backoff_max = 1.0

let validate cfg =
  if cfg.n < 2 then Error "serve client: need n >= 2"
  else if cfg.first < 0 then Error "serve client: negative first instance"
  else Ok ()

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Connect to an engine and say Hello as node 0, a client. *)
let dial cfg ~deadline pid =
  let hello = Live.Frame.encode (Live.Frame.Hello { node = 0 }) in
  match
    Live.Sockets.connect_retry ~deadline
      (Live.Sockets.addr_of ~transport:cfg.transport pid)
  with
  | Error e ->
    Error
      (Printf.sprintf "connect to p%d: %s" pid (Live.Sockets.error_to_string e))
  | Ok fd -> (
    match Live.Sockets.write_all ~deadline fd hello with
    | Ok () ->
      Unix.set_nonblock fd;
      Ok fd
    | Error e ->
      close_fd fd;
      Error
        (Printf.sprintf "hello to p%d: %s" pid (Live.Sockets.error_to_string e)))

(* The one client loop.  Ids [cfg.first], [cfg.first + 1], ... below
   [stop] are submitted while the wall clock is before [until]; each Decide
   of an in-flight instance goes to [on_decide], each settlement to
   [on_settle].  The loop ends once nothing is left to submit or in
   flight, at the [cfg.timeout] deadline, or when every engine is gone for
   good.  The outcome's [undecided] lists the instances still in flight. *)
let drive ?on_idle ?tick cfg ~stop ~until ~on_decide ~on_settle =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let nodes =
    Array.init cfg.n (fun i ->
        {
          pid = i + 1;
          fd = None;
          decoder = Live.Frame.decoder ();
          attempts = 0;
          next_try = infinity;
        })
  in
  let deadline = Live.Sockets.now () +. connect_timeout in
  let connect_err =
    Array.fold_left
      (fun err node ->
        if err <> None then err
        else
          match dial cfg ~deadline node.pid with
          | Ok fd ->
            node.fd <- Some fd;
            None
          | Error e -> Some e)
      None nodes
  in
  let close_all () =
    Array.iter
      (fun node ->
        Option.iter close_fd node.fd;
        node.fd <- None)
      nodes
  in
  match connect_err with
  | Some e ->
    close_all ();
    Error e
  | None ->
    let window = max 1 cfg.window in
    let jitter = Prng.Rng.of_int 0x5eed in
    let live = ref cfg.n in
    let inflight : (int, flight) Hashtbl.t = Hashtbl.create 64 in
    let next_id = ref cfg.first in
    let reconnects = ref 0 in
    let resubmits = ref 0 in
    let settle id f =
      Hashtbl.remove inflight id;
      on_settle id (Live.Sockets.now () -. f.t0)
    in
    let submit_frame id pid =
      Live.Frame.encode
        (Live.Frame.Submit { instance = id; proposal = cfg.proposals id pid })
    in
    let schedule_redial node =
      if cfg.reconnect && node.attempts < reconnect_budget then
        let backoff =
          Float.min reconnect_backoff_max
            (reconnect_backoff *. (2.0 ** float_of_int node.attempts))
        in
        node.next_try <-
          Live.Sockets.now () +. Live.Sockets.retry_wait ~jitter backoff
    in
    (* A node death un-blocks every instance waiting only on it and, with
       [reconnect], schedules a jittered backoff re-dial.  A failed send is
       a death too. *)
    let rec mark_dead node =
      match node.fd with
      | None -> ()
      | Some fd ->
        close_fd fd;
        node.fd <- None;
        decr live;
        schedule_redial node;
        Hashtbl.fold
          (fun id f freed ->
            if f.answered.(node.pid - 1) then freed
            else begin
              f.missing <- f.missing - 1;
              if f.missing <= 0 then (id, f) :: freed else freed
            end)
          inflight []
        |> List.iter (fun (id, f) -> settle id f)
    and send node wire =
      match node.fd with
      | Some fd when wire <> "" -> (
        match
          Live.Sockets.write_all
            ~deadline:(Live.Sockets.now () +. send_timeout)
            fd wire
        with
        | Ok () -> ()
        | Error _ -> mark_dead node)
      | Some _ | None -> ()
    in
    (* One coalesced Submit burst per node per refill: the client-side
       mirror of the engines' per-peer batching.  Submits go out only
       while some engine is connected to answer them. *)
    let submit_batch fresh =
      let per_node = Array.init cfg.n (fun _ -> Buffer.create 256) in
      List.iter
        (fun id ->
          Hashtbl.replace inflight id
            {
              t0 = Live.Sockets.now ();
              missing = !live;
              answered = Array.make cfg.n false;
            };
          Array.iter
            (fun node ->
              if node.fd <> None then
                Buffer.add_string per_node.(node.pid - 1)
                  (submit_frame id node.pid))
            nodes)
        fresh;
      Array.iter
        (fun node -> send node (Buffer.contents per_node.(node.pid - 1)))
        nodes
    in
    (* Pipelined streaming: called the moment settlements free window
       slots, not once per tick. *)
    let refill () =
      if !live > 0 && Live.Sockets.now () < until then begin
        let fresh = ref [] in
        let room = ref (window - Hashtbl.length inflight) in
        while !room > 0 && !next_id < stop do
          fresh := !next_id :: !fresh;
          incr next_id;
          decr room
        done;
        if !fresh <> [] then submit_batch (List.rev !fresh)
      end
    in
    (* Every in-flight instance the revived node has not answered goes back
       to it, and the node re-joins its missing count.  A re-Submit is
       idempotent on the engine side: a decided instance is re-answered
       from the log, a lost one is simply run. *)
    let resubmit node =
      let buf = Buffer.create 256 in
      Hashtbl.iter
        (fun id f ->
          if not f.answered.(node.pid - 1) then begin
            f.missing <- f.missing + 1;
            incr resubmits;
            Buffer.add_string buf (submit_frame id node.pid)
          end)
        inflight;
      send node (Buffer.contents buf)
    in
    let try_reconnects () =
      Array.iter
        (fun node ->
          if node.fd = None && Live.Sockets.now () >= node.next_try then begin
            node.next_try <- infinity;
            match
              dial cfg ~deadline:(Live.Sockets.now () +. redial_timeout) node.pid
            with
            | Error _ ->
              node.attempts <- node.attempts + 1;
              schedule_redial node
            | Ok fd ->
              node.fd <- Some fd;
              node.decoder <- Live.Frame.decoder ();
              node.attempts <- 0;
              incr live;
              incr reconnects;
              resubmit node
          end)
        nodes
    in
    let drain node =
      let rec go () =
        match Live.Frame.pop_view node.decoder with
        | `View v ->
          (match v.Live.Frame.kind with
          | Live.Frame.K_decide -> (
            let id = v.Live.Frame.instance in
            match Hashtbl.find inflight id with
            | f when not f.answered.(node.pid - 1) ->
              f.answered.(node.pid - 1) <- true;
              on_decide id ~node:node.pid ~value:v.Live.Frame.value
                ~round:v.Live.Frame.round;
              f.missing <- f.missing - 1;
              if f.missing <= 0 then settle id f
            | _ -> ()
            | exception Not_found -> ())
          | _ -> ());
          go ()
        | `Need_more -> ()
        | `Corrupt _ -> mark_dead node
      in
      go ()
    in
    let buf = Bytes.create 65536 in
    let started = Live.Sockets.now () in
    let wall_deadline = started +. cfg.timeout in
    refill ();
    while
      ((!next_id < stop && Live.Sockets.now () < until)
      || Hashtbl.length inflight > 0)
      && Live.Sockets.now () < wall_deadline
      && Array.exists
           (fun node -> node.fd <> None || node.next_try < infinity)
           nodes
    do
      let fds = Array.to_list nodes |> List.filter_map (fun node -> node.fd) in
      (* Sleep until data, the next reconnect attempt, the end of
         submission or the wall deadline: no fixed tick, so a Decide
         settles (and refills) the instant it arrives.  A [tick] cap
         exists for callers whose [on_idle] polls side channels. *)
      let timeout =
        let now = Live.Sockets.now () in
        let dt = Float.max 0.0 (wall_deadline -. now) in
        let dt = if now < until then Float.min dt (until -. now) else dt in
        let dt =
          Array.fold_left
            (fun acc node ->
              if node.next_try < infinity then
                Float.min acc (Float.max 0.0 (node.next_try -. now))
              else acc)
            dt nodes
        in
        match tick with None -> Float.min dt 1.0 | Some t -> Float.min dt t
      in
      (match Unix.select fds [] [] timeout with
      | ready, _, _ ->
        Array.iter
          (fun node ->
            match node.fd with
            | Some fd when List.memq fd ready -> (
              match Live.Sockets.read_chunk fd buf with
              | `Data k ->
                Live.Frame.feed node.decoder (Bytes.unsafe_to_string buf) ~pos:0
                  ~len:k;
                drain node
              | `Closed -> mark_dead node
              | `Nothing -> ())
            | _ -> ())
          nodes
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      try_reconnects ();
      refill ();
      match on_idle with Some f -> f () | None -> ()
    done;
    let elapsed = Live.Sockets.now () -. started in
    let undecided =
      Hashtbl.fold (fun id _ acc -> id :: acc) inflight [] |> List.sort compare
    in
    (* Nodes still down when the loop closed: with [reconnect] these are
       exactly the ones that never came back. *)
    let dead_nodes =
      Array.to_list nodes
      |> List.filter_map (fun node ->
             if node.fd = None then Some node.pid else None)
    in
    close_all ();
    Ok
      {
        decisions = [||];
        latencies = [];
        elapsed;
        undecided;
        dead_nodes;
        reconnects = !reconnects;
        resubmits = !resubmits;
      }

let stream ?on_idle ?tick cfg ~until ~on_decide ~on_settle =
  Result.bind (validate cfg) (fun () ->
      drive ?on_idle ?tick cfg ~stop:max_int ~until ~on_decide ~on_settle)

let run ?on_idle ?tick cfg =
  if cfg.instances < 0 then Error "serve client: negative instances"
  else
    Result.bind (validate cfg) (fun () ->
        let decisions =
          Array.init cfg.instances (fun _ -> Array.make cfg.n None)
        in
        let settled = Array.make cfg.instances false in
        let latencies = ref [] in
        let on_decide id ~node ~value ~round =
          decisions.(id - cfg.first).(node - 1) <- Some (value, round)
        in
        let on_settle id latency =
          settled.(id - cfg.first) <- true;
          latencies := latency :: !latencies
        in
        drive ?on_idle ?tick cfg ~stop:(cfg.first + cfg.instances)
          ~until:infinity ~on_decide ~on_settle
        |> Result.map (fun o ->
               let undecided =
                 List.init cfg.instances (( + ) cfg.first)
                 |> List.filter (fun id -> not settled.(id - cfg.first))
               in
               { o with decisions; latencies = !latencies; undecided }))
