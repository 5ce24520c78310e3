module Make (A : Binding.ALGO) = struct
  module M = Mux.Make (A)

  type config = {
    n : int;
    t : int;
    instances : int;
    window : int;
    big_d : float;
    batch : bool;
    kill : Report.kill_spec option;
    max_rounds : int option;
    proposals : int -> int -> int;
  }

  (* The driver both entry points share: one mux per node ([make ~me
     ~emit] builds node [me]'s), [instances] submitted [window] at a time,
     delivery to quiescence at each virtual instant, then a jump to the
     earliest round deadline.  Returns the muxes, every node's (value,
     round) per instance, and the virtual submit-to-settle latencies. *)
  let mesh ~n ~batch ~instances ~window ~max_rounds ~proposals make =
    let window = max 1 window in
    let now = ref 0.0 in
    (* One incremental decoder per directed link, one Decide-stream decoder
       per node's client channel: the exact socket topology, minus the
       sockets.  A flushed batch buffer is fed to the receiving decoder in
       place (the decoder copies into its own buffer), so no per-flush
       string is ever materialized. *)
    let decoders =
      Array.init n (fun _ -> Array.init n (fun _ -> Live.Frame.decoder ()))
    in
    let client_dec = Array.init n (fun _ -> Live.Frame.decoder ()) in
    let moved = ref false in
    let batches : Batch.t option array = Array.make n None in
    let muxes =
      Array.init n (fun idx ->
          let emit ~dest frame =
            match batches.(idx) with
            | Some b -> Batch.add b ~dest (Live.Frame.encode frame)
            | None -> assert false
          in
          make ~me:(idx + 1) ~emit)
    in
    Array.iteri
      (fun idx mux ->
        let send ~dest bytes ~len =
          moved := true;
          let s = Bytes.unsafe_to_string bytes in
          if dest = 0 then Live.Frame.feed client_dec.(idx) s ~pos:0 ~len
          else if dest >= 1 && dest <= n then
            Live.Frame.feed decoders.(idx).(dest - 1) s ~pos:0 ~len;
          `Done
        in
        batches.(idx) <-
          Some (Batch.create ~n ~batch ~stats:(M.stats mux) ~send))
      muxes;
    let decisions = Array.init instances (fun _ -> Array.make n None) in
    let submit_t = Array.make (max 1 instances) 0.0 in
    let latencies = ref [] in
    let drain_link s d =
      let dec = decoders.(s).(d) in
      let rec go () =
        match Live.Frame.pop_view dec with
        | `View v ->
          moved := true;
          M.on_view muxes.(d) ~now:!now ~from:(s + 1) v;
          go ()
        | `Need_more -> ()
        | `Corrupt why -> failwith ("Serve.Loopback: corrupt stream: " ^ why)
      in
      go ()
    in
    let drain_client idx =
      let dec = client_dec.(idx) in
      let rec go () =
        match Live.Frame.pop_view dec with
        | `View v ->
          moved := true;
          (match v.Live.Frame.kind with
          | Live.Frame.K_decide ->
            let i = v.Live.Frame.instance in
            if i >= 0 && i < instances && decisions.(i).(idx) = None then
              decisions.(i).(idx) <-
                Some (v.Live.Frame.value, v.Live.Frame.round)
          | _ -> ());
          go ()
        | `Need_more -> ()
        | `Corrupt why ->
          failwith ("Serve.Loopback: corrupt client stream: " ^ why)
      in
      go ()
    in
    (* Deliver until quiescent at the current virtual instant: flush every
       batch, move link bytes, feed decoders — repeatedly, because consuming
       a frame can emit new ones. *)
    let deliver () =
      let continue = ref true in
      while !continue do
        moved := false;
        Array.iter
          (function Some b -> Batch.flush b | None -> ())
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
      (* Descending node order, so the round-1 coordinator (p1) starts its
         sends only once every node has opened the instance — the common
         client pattern; the mux's early-frame parking covers the rest. *)
      for node = n downto 1 do
        M.submit muxes.(node - 1) ~now:!now ~instance:i
          ~proposal:(proposals i node)
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
      inflight :=
        List.filter
          (fun i ->
            if is_settled i then begin
              latencies := (!now -. submit_t.(i)) :: !latencies;
              false
            end
            else true)
          !inflight
    in
    let refill () =
      let before = !next_submit in
      while List.length !inflight < window && !next_submit < instances do
        submit_instance !next_submit;
        incr next_submit
      done;
      !next_submit <> before
    in
    let stuck = ref false in
    let guard = ref ((instances * (max_rounds + 2)) + 64) in
    ignore (refill ());
    while !inflight <> [] && (not !stuck) && !guard > 0 do
      decr guard;
      (* message-speed fixed point at the current instant *)
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
          Array.iter (fun m -> M.expire m ~now:!now) muxes
        end
      end
    done;
    (muxes, decisions, !latencies)

  let run cfg =
    if cfg.n < 2 then invalid_arg "Serve.Loopback: n must be >= 2";
    if cfg.instances < 0 then invalid_arg "Serve.Loopback: negative instances";
    let n = cfg.n in
    let started = Unix.gettimeofday () in
    let max_rounds =
      match cfg.max_rounds with Some m -> m | None -> cfg.t + 1
    in
    let muxes, decisions, latencies =
      mesh ~n ~batch:cfg.batch ~instances:cfg.instances ~window:cfg.window
        ~max_rounds ~proposals:cfg.proposals (fun ~me ~emit ->
          let kill_after =
            match cfg.kill with
            | Some k when k.Report.node = me -> Some k.Report.after_frames
            | _ -> None
          in
          M.create
            { Mux.me; n; t = cfg.t; big_d = cfg.big_d; max_rounds; kill_after }
            ~emit ())
    in
    let elapsed = Unix.gettimeofday () -. started in
    let victim =
      match cfg.kill with
      | Some k ->
        let m = muxes.(k.Report.node - 1) in
        if M.halted m then Some (k.Report.node, M.realized m) else None
      | None -> None
    in
    let stats =
      Array.to_list (Array.mapi (fun idx m -> (idx + 1, M.stats m)) muxes)
    in
    Report.build ~n ~t:cfg.t ~proposals:cfg.proposals ~decisions ~victim
      ~send_plan:A.send_plan ~elapsed ~latencies ~stats ~kill:cfg.kill

  let script ?proposals ?max_rounds ~n ~t ~script () =
    let proposals =
      match proposals with
      | Some p -> p
      | None -> Sync_sim.Engine.distinct_proposals n
    in
    if Array.length proposals <> n then
      invalid_arg "Serve.Loopback.script: proposals length <> n";
    (match Live.Script.validate ~n ~max_kills:t script with
    | Ok () -> ()
    | Error why -> invalid_arg ("Serve.Loopback.script: " ^ why));
    let max_rounds = match max_rounds with Some m -> m | None -> t + 2 in
    let muxes, decisions, _ =
      mesh ~n ~batch:false ~instances:1 ~window:1 ~max_rounds
        ~proposals:(fun _ node -> proposals.(node - 1))
        (fun ~me ~emit ->
          M.create
            { Mux.me; n; t; big_d = 1.0; max_rounds; kill_after = None }
            ?kill:(Live.Script.find script (Model.Pid.of_int me))
            ~emit ())
    in
    let statuses =
      Array.mapi
        (fun idx m ->
          match (decisions.(0).(idx), M.realized m) with
          | Some (value, at_round), _ ->
            Live.Transcript.Decided { value; at_round }
          | None, (r : Mux.realized) :: _ ->
            Live.Transcript.Killed { at_round = r.round; scripted = true }
          | None, [] -> Live.Transcript.Undecided)
        muxes
    in
    (* The last round any node entered: an undecided node ran out the
       horizon. *)
    let max_round =
      Array.fold_left
        (fun acc -> function
          | Live.Transcript.Decided { at_round; _ }
          | Live.Transcript.Killed { at_round; _ } ->
            max acc at_round
          | Live.Transcript.Undecided -> max acc max_rounds)
        0 statuses
    in
    { Live.Transcript.n; t; proposals; statuses; max_round }
end

module Rwwc = Make (Binding.Rwwc)
