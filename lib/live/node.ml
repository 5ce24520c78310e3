open Model

type config = {
  me : int;
  n : int;
  t : int;
  proposal : int;
  transport : [ `Unix of string | `Tcp of int ];
  big_d : float;
  delta : float;
  max_rounds : int;
  kill : Script.kill option;
  status : out_channel;
  go : in_channel;
  log : out_channel;
}

let handshake_timeout = 10.0

module Make (A : Binding.ALGO) = struct
  type item = Data_item of A.msg | Ctl_item

  type peer = {
    pid : int;
    mutable fd : Unix.file_descr option;
    decoder : Frame.decoder;
    mutable pending : (int * item) list;
        (* frames for rounds we have not opened yet, newest first *)
  }

  let logf cfg fmt =
    Printf.ksprintf
      (fun s ->
        Printf.fprintf cfg.log "[%.6f p%d] %s\n" (Sockets.now ()) cfg.me s;
        flush cfg.log)
      fmt

  let status_event cfg fields =
    output_string cfg.status (Obs.Json.to_string (Obs.Json.Obj fields));
    output_char cfg.status '\n';
    flush cfg.status

  let mark_dead cfg peer why =
    match peer.fd with
    | None -> ()
    | Some fd ->
      logf cfg "peer p%d gone: %s" peer.pid why;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      peer.fd <- None

  (* Listen first, dial the higher ids (with retry — peers come up in any
     order), then accept the lower ids: every edge of the mesh has exactly
     one dialer, so the handshake cannot deadlock. *)
  let establish cfg peers =
    let deadline = Sockets.now () +. handshake_timeout in
    let lfd =
      match Sockets.listen (Sockets.addr_of ~transport:cfg.transport cfg.me) with
      | Ok fd -> fd
      | Error e -> failwith ("listen: " ^ Sockets.error_to_string e)
    in
    let hello = Frame.encode (Frame.Hello { node = cfg.me }) in
    for p = cfg.me + 1 to cfg.n do
      match
        Sockets.connect_retry ~deadline (Sockets.addr_of ~transport:cfg.transport p)
      with
      | Error e ->
        failwith (Printf.sprintf "connect to p%d: %s" p (Sockets.error_to_string e))
      | Ok fd -> (
        match Sockets.write_all ~deadline fd hello with
        | Ok () ->
          peers.(p - 1).fd <- Some fd;
          logf cfg "dialed p%d" p
        | Error e ->
          failwith
            (Printf.sprintf "hello to p%d: %s" p (Sockets.error_to_string e)))
    done;
    for _ = 1 to cfg.me - 1 do
      match Sockets.accept_timeout ~deadline lfd with
      | Error e -> failwith (Sockets.error_to_string e)
      | Ok fd -> (
        match Sockets.read_exact ~deadline fd Frame.hello_size with
        | Error e -> failwith ("handshake: " ^ Sockets.error_to_string e)
        | Ok bytes -> (
          match Frame.hello_of bytes with
          | Error why -> failwith why
          | Ok node when node >= 1 && node < cfg.me ->
            if peers.(node - 1).fd <> None then
              failwith (Printf.sprintf "handshake: duplicate hello from p%d" node);
            peers.(node - 1).fd <- Some fd;
            logf cfg "accepted p%d" node
          | Ok node -> failwith (Printf.sprintf "handshake: bad hello node %d" node)))
    done;
    Unix.close lfd

  let wait_go cfg =
    match input_line cfg.go with
    | line -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ "go"; t0 ] -> (
        match float_of_string_opt t0 with
        | Some t0 -> t0
        | None -> failwith ("bad go line: " ^ line))
      | _ -> failwith ("bad go line: " ^ line))
    | exception End_of_file -> failwith "supervisor vanished before go"

  (* The scripted crash point: write budget exhausted. *)
  let halt_scripted cfg =
    logf cfg "scripted kill point reached: stopping for the supervisor";
    Proc.halt ()

  let send_round cfg peers ~round state =
    let data = A.data_sends state ~round in
    let ctl = A.sync_sends state ~round in
    let writes =
      List.map
        (fun (dest, msg) ->
          ( Pid.to_int dest,
            Frame.encode
              (Frame.Data { instance = 0; round; payload = A.encode_msg msg })
          ))
        data
      @ List.map
          (fun dest ->
            (Pid.to_int dest, Frame.encode (Frame.Ctl { instance = 0; round })))
          ctl
    in
    let budget =
      match cfg.kill with
      | Some k when k.Script.round = round ->
        Some
          (Script.writes_completed k.Script.phase ~data:(List.length data)
             ~ctl:(List.length ctl))
      | Some _ | None -> None
    in
    let deadline = Sockets.now () +. cfg.big_d in
    let rec emit k = function
      | [] -> ()
      | (dest, bytes) :: rest ->
        if budget = Some k then halt_scripted cfg
        else begin
          (if dest = cfg.me then
             (* self-delivery shares the wire path: same frames, own decoder *)
             Frame.feed_string peers.(dest - 1).decoder bytes
           else
             let peer = peers.(dest - 1) in
             match peer.fd with
             | None -> ()
             | Some fd -> (
               match Sockets.write_all ~deadline fd bytes with
               | Ok () -> ()
               | Error e -> mark_dead cfg peer (Sockets.error_to_string e)));
          emit (k + 1) rest
        end
    in
    emit 0 writes;
    match budget with Some _ -> halt_scripted cfg | None -> ()

  let collect cfg peers ~round ~close data syncs =
    let consume peer = function
      | Data_item m -> data := (Pid.of_int peer.pid, m) :: !data
      | Ctl_item -> syncs := Pid.of_int peer.pid :: !syncs
    in
    let file peer fr item =
      if fr = round then consume peer item
      else peer.pending <- (fr, item) :: peer.pending
    in
    let rec drain peer =
      match Frame.pop_view peer.decoder with
      | `Need_more -> ()
      | `Corrupt why -> mark_dead cfg peer ("corrupt stream: " ^ why)
      | `View v ->
        let fr = v.Frame.round in
        (match v.Frame.kind with
        | Frame.K_hello | Frame.K_submit | Frame.K_decide | Frame.K_catchup ->
          ()
        | Frame.K_data when fr < round ->
          logf cfg "late data frame (r%d) from p%d" fr peer.pid
        | Frame.K_data -> (
          match A.decode_msg_view v with
          | Ok m -> file peer fr (Data_item m)
          | Error why -> mark_dead cfg peer ("bad payload: " ^ why))
        | Frame.K_ctl when fr < round ->
          logf cfg "late ctl frame (r%d) from p%d" fr peer.pid
        | Frame.K_ctl -> file peer fr Ctl_item);
        drain peer
    in
    (* First serve anything a fast peer delivered while we were still in an
       earlier round, then whatever the self-link already holds. *)
    Array.iter
      (fun peer ->
        let mine, rest =
          List.partition (fun (fr, _) -> fr = round) (List.rev peer.pending)
        in
        peer.pending <- List.rev rest;
        List.iter (fun (_, it) -> consume peer it) mine;
        if peer.pid = cfg.me then drain peer)
      peers;
    let buf = Bytes.create 65536 in
    let rec loop () =
      let dt = close -. Sockets.now () in
      if dt > 0.0 then begin
        let fds =
          Array.to_list peers
          |> List.filter_map (fun p -> if p.pid = cfg.me then None else p.fd)
        in
        (match Unix.select fds [] [] dt with
        | [], _, _ -> ()
        | ready, _, _ ->
          Array.iter
            (fun peer ->
              match peer.fd with
              | Some fd when peer.pid <> cfg.me && List.memq fd ready -> (
                match Sockets.read_chunk fd buf with
                | `Data k ->
                  Frame.feed peer.decoder (Bytes.unsafe_to_string buf) ~pos:0
                    ~len:k;
                  drain peer
                | `Closed -> mark_dead cfg peer "eof"
                | `Nothing -> ())
              | _ -> ())
            peers
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
      end
    in
    loop ()

  let main cfg =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let peers =
      Array.init cfg.n (fun i ->
          { pid = i + 1; fd = None; decoder = Frame.decoder (); pending = [] })
    in
    establish cfg peers;
    Array.iter
      (fun p -> match p.fd with Some fd -> Unix.set_nonblock fd | None -> ())
      peers;
    status_event cfg
      [ ("event", Obs.Json.String "ready"); ("node", Obs.Json.Int cfg.me) ];
    let t0 = wait_go cfg in
    logf cfg "go: t0 in %.3f s" (t0 -. Sockets.now ());
    let state =
      ref (A.init ~n:cfg.n ~t:cfg.t ~me:(Pid.of_int cfg.me) ~proposal:cfg.proposal)
    in
    let decided = ref false in
    let r = ref 1 in
    while (not !decided) && !r <= cfg.max_rounds do
      let round = !r in
      let open_t = t0 +. (float_of_int (round - 1) *. (cfg.big_d +. cfg.delta)) in
      let close_t = open_t +. cfg.big_d in
      Sockets.sleep_until open_t;
      send_round cfg peers ~round !state;
      let data = ref [] and syncs = ref [] in
      collect cfg peers ~round ~close:close_t data syncs;
      let data = List.sort (fun (a, _) (b, _) -> Pid.compare a b) !data in
      let syncs = List.sort Pid.compare !syncs in
      let st, decision = A.compute !state ~round ~data ~syncs in
      state := st;
      status_event cfg
        [
          ("event", Obs.Json.String "round");
          ("node", Obs.Json.Int cfg.me);
          ("round", Obs.Json.Int round);
        ];
      (match decision with
      | Some value ->
        decided := true;
        logf cfg "decided %d in round %d" value round;
        status_event cfg
          [
            ("event", Obs.Json.String "decide");
            ("node", Obs.Json.Int cfg.me);
            ("value", Obs.Json.Int value);
            ("round", Obs.Json.Int round);
          ]
      | None -> ());
      incr r
    done;
    if not !decided then begin
      logf cfg "round horizon reached without deciding";
      status_event cfg
        [ ("event", Obs.Json.String "undecided"); ("node", Obs.Json.Int cfg.me) ]
    end;
    Array.iter (fun p -> mark_dead cfg p "shutdown") peers
end

module Rwwc_node = Make (Binding.Rwwc)

module Rwwc = struct
  let main = Rwwc_node.main
end
