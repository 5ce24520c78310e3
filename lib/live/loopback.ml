open Model

module Make (A : Binding.ALGO) = struct
  type node = {
    mutable state : A.state;
    mutable status : Transcript.status;
    mutable rounds : Transcript.round_obs list;  (* reverse chronological *)
  }

  let live node =
    match node.status with
    | Transcript.Undecided -> true
    | Transcript.Decided _ | Transcript.Killed _ -> false

  let run ?proposals ?max_rounds ~n ~t ~script () =
    let proposals =
      match proposals with
      | Some p -> p
      | None -> Sync_sim.Engine.distinct_proposals n
    in
    if Array.length proposals <> n then
      invalid_arg "Loopback.run: proposals length <> n";
    (match Script.validate ~n ~max_kills:t script with
    | Ok () -> ()
    | Error why -> invalid_arg ("Loopback.run: " ^ why));
    let max_rounds = match max_rounds with Some m -> m | None -> t + 2 in
    let nodes =
      Array.init n (fun i ->
          {
            state =
              A.init ~n ~t ~me:(Pid.of_int (i + 1)) ~proposal:proposals.(i);
            status = Transcript.Undecided;
            rounds = [];
          })
    in
    (* links.(s).(d): the byte stream from p_{s+1} to p_{d+1}. *)
    let links = Array.init n (fun _ -> Array.init n (fun _ -> Frame.decoder ())) in
    let executed = ref 0 in
    let r = ref 1 in
    while !r <= max_rounds && Array.exists live nodes do
      let round = !r in
      executed := round;
      (* Send phase: sequential writes, data step then control step, with
         scripted kills truncating at the scripted write index. *)
      Array.iteri
        (fun i node ->
          if live node then begin
            let me = Pid.of_int (i + 1) in
            let data = A.data_sends node.state ~round in
            let syncs = A.sync_sends node.state ~round in
            let writes =
              List.map
                (fun (dest, msg) ->
                  ( dest,
                    Frame.encode
                      (Frame.Data
                         { instance = 0; round; payload = A.encode_msg msg }) ))
                data
              @ List.map
                  (fun dest ->
                    (dest, Frame.encode (Frame.Ctl { instance = 0; round })))
                  syncs
            in
            let budget =
              match Script.find script me with
              | Some k when k.Script.round = round ->
                Some
                  (Script.writes_completed k.Script.phase
                     ~data:(List.length data) ~ctl:(List.length syncs))
              | Some _ | None -> None
            in
            let rec emit k = function
              | [] -> ()
              | (dest, bytes) :: rest ->
                if budget = Some k then ()
                else begin
                  Frame.feed_string links.(i).(Pid.to_int dest - 1) bytes;
                  emit (k + 1) rest
                end
            in
            emit 0 writes;
            match budget with
            | Some _ ->
              node.status <- Transcript.Killed { at_round = round; scripted = true }
            | None -> ()
          end)
        nodes;
      (* Compute phase: drain each incoming stream through the shared
         decoder, then run the algorithm exactly as the abstract engine
         would — received data and control senders in increasing pid
         order. *)
      Array.iteri
        (fun i node ->
          if live node then begin
            let data = ref [] and syncs = ref [] in
            for s = 0 to n - 1 do
              let d = links.(s).(i) in
              let rec drain () =
                match Frame.pop_view d with
                | `Need_more -> ()
                | `Corrupt why -> failwith ("Loopback: corrupt stream: " ^ why)
                | `View v ->
                  let fr = v.Frame.round in
                  (match v.Frame.kind with
                  | Frame.K_hello | Frame.K_submit | Frame.K_decide
                  | Frame.K_catchup ->
                    ()
                  | Frame.K_data -> (
                    if fr <> round then
                      failwith
                        (Printf.sprintf "Loopback: round %d frame in round %d"
                           fr round);
                    match A.decode_msg_view v with
                    | Ok msg -> data := (Pid.of_int (s + 1), msg) :: !data
                    | Error why -> failwith ("Loopback: bad payload: " ^ why))
                  | Frame.K_ctl ->
                    if fr <> round then
                      failwith
                        (Printf.sprintf "Loopback: round %d ctl in round %d" fr
                           round);
                    syncs := Pid.of_int (s + 1) :: !syncs);
                  drain ()
              in
              drain ()
            done;
            let data =
              List.sort (fun (a, _) (b, _) -> Pid.compare a b) !data
            in
            let syncs = List.sort Pid.compare !syncs in
            let state, decision = A.compute node.state ~round ~data ~syncs in
            node.state <- state;
            node.rounds <-
              {
                Transcript.round = round;
                open_skew = 0.0;
                close_skew = 0.0;
                data_recv = List.length data;
                ctl_recv = List.length syncs;
              }
              :: node.rounds;
            match decision with
            | Some value ->
              node.status <- Transcript.Decided { value; at_round = round }
            | None -> ()
          end)
        nodes;
      incr r
    done;
    {
      Transcript.n;
      t;
      proposals;
      statuses = Array.map (fun node -> node.status) nodes;
      rounds = Array.map (fun node -> List.rev node.rounds) nodes;
      max_round = !executed;
    }
end

module Rwwc_engine = Make (Binding.Rwwc)

module Rwwc = struct
  let run = Rwwc_engine.run
end
