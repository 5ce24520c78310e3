open Model

type config = {
  me : int;
  n : int;
  t : int;
  big_d : float;
  max_rounds : int;
  kill_after : int option;
}

type realized = { instance : int; round : int; phase : Live.Script.phase }

let realized_to_json r =
  Obs.Json.Obj
    [
      ("instance", Obs.Json.Int r.instance);
      ("round", Obs.Json.Int r.round);
      ("phase", Obs.Json.String (Live.Script.phase_to_string r.phase));
    ]

let realized_of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Obs.Json.Obj fields ->
    let int name =
      match List.assoc_opt name fields with
      | Some (Obs.Json.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "realized.%s: missing or not an int" name)
    in
    let* instance = int "instance" in
    let* round = int "round" in
    let* phase =
      match List.assoc_opt "phase" fields with
      | Some (Obs.Json.String s) -> (
        (* Reuse the script parser via a synthetic kill spec. *)
        match Live.Script.parse_kill (Printf.sprintf "p1@r1:%s" s) with
        | Ok k -> Ok k.Live.Script.phase
        | Error why -> Error why)
      | _ -> Error "realized.phase: missing or not a string"
    in
    Ok { instance; round; phase }
  | _ -> Error "realized: not an object"

(* The decision log: one entry per instance id ever served, in pages of
   up to [page_size] entries.  A page is allocated on first touch just
   large enough for the entry and doubles as higher entries of it are
   touched, so a short-lived mux (one scripted live run) never pays for a
   whole page.  Entry [i] is the pair (round, value) at [2k], [2k + 1] of
   its page, where round 0 means unknown, [given_up] means released at the
   horizon undecided, and a round >= 1 means decided in that round.
   Growth copies at most one page and the page directory: no insert stalls
   the way rehashing a million-entry table does, and an id near
   [Live.Frame.max_instance] costs one page plus a directory slot per page
   below it. *)
module Log = struct
  let page_bits = 13
  let page_size = 1 lsl page_bits
  let given_up = -1

  type t = { mutable pages : int array array; mutable decided : int }

  let create () = { pages = [||]; decided = 0 }

  let round t i =
    let p = i lsr page_bits in
    if i < 0 || p >= Array.length t.pages then 0
    else
      let page = t.pages.(p) and k = 2 * (i land (page_size - 1)) in
      if k >= Array.length page then 0 else page.(k)

  let value t i = t.pages.(i lsr page_bits).((2 * (i land (page_size - 1))) + 1)

  let set t i ~round ~value =
    if i < 0 then invalid_arg "Mux: negative instance id";
    let p = i lsr page_bits in
    let len = Array.length t.pages in
    if p >= len then begin
      let dir = Array.make (max (p + 1) (2 * len)) [||] in
      Array.blit t.pages 0 dir 0 len;
      t.pages <- dir
    end;
    let k = 2 * (i land (page_size - 1)) in
    let have = Array.length t.pages.(p) in
    if k >= have then begin
      let page = Array.make (min (2 * page_size) (max (k + 2) (2 * have))) 0 in
      Array.blit t.pages.(p) 0 page 0 have;
      t.pages.(p) <- page
    end;
    let page = t.pages.(p) in
    if page.(k) < 1 && round >= 1 then t.decided <- t.decided + 1;
    page.(k) <- round;
    page.(k + 1) <- value

  let iter_decided t f =
    Array.iteri
      (fun p page ->
        for j = 0 to (Array.length page / 2) - 1 do
          if page.(2 * j) >= 1 then
            f ~instance:((p lsl page_bits) + j) ~value:page.((2 * j) + 1)
              ~round:page.(2 * j)
        done)
      t.pages
end

module Make (A : Binding.ALGO) = struct
  type slot = {
    mutable instance : int;
    mutable state : A.state;
    mutable round : int;
    mutable deadline : float;
    mutable sent : bool;  (* current round's send phase completed *)
    mutable data : (Pid.t * A.msg) list;
    mutable syncs : Pid.t list;
    mutable pending : entry list;  (* frames for rounds not yet entered *)
  }

  and entry = E_data of int * Pid.t * A.msg | E_ctl of int * Pid.t

  type t = {
    cfg : config;
    stats : Stats.t;
    slab : slot Slab.t;
    early : (int, entry list) Hashtbl.t;  (* frames before the submit *)
    log : Log.t;
        (* every finished instance: a re-submitted decided one is answered
           from here, and frames for any finished one are dropped *)
    kill : Live.Script.kill option;
        (* scripted stop: halt at this (round, phase) of the first
           instance to reach it *)
    persist : (instance:int -> value:int -> round:int -> unit) option;
        (* WAL append: runs before the Decide frame is emitted, so a
           decision a client can observe is already durable *)
    emit : dest:int -> Live.Frame.t -> unit;
    mutable mirror : int list;
        (* recently-rejoined peers: every new decision is also sent to
           them as a Catchup, closing the gap between their rejoin
           snapshot and the instances still in flight *)
    mutable mesh_writes : int;
    mutable halted : bool;
    mutable realized : realized list;
    mutable gave_up : int;
  }

  let create cfg ?kill ?persist ~emit () =
    (match kill with
    | Some k when Pid.to_int k.Live.Script.pid <> cfg.me ->
      invalid_arg "Mux.create: kill names another node"
    | Some _ | None -> ());
    {
      cfg;
      kill;
      stats = Stats.create ();
      slab = Slab.create ~initial:256 ();
      early = Hashtbl.create 64;
      log = Log.create ();
      persist;
      emit;
      mirror = [];
      mesh_writes = 0;
      halted = false;
      realized = [];
      gave_up = 0;
    }

  let stats t =
    t.stats.Stats.slab_capacity <- Slab.capacity t.slab;
    t.stats.Stats.slab_reused <- Slab.reused t.slab;
    t.stats

  let active t = Slab.active t.slab
  let halted t = t.halted
  let realized t = t.realized
  let gave_up t = t.gave_up
  let mesh_writes t = t.mesh_writes
  let slab_capacity t = Slab.capacity t.slab
  let slab_reused t = Slab.reused t.slab
  let set_mirror t peers = t.mirror <- peers
  let decided_count t = t.log.Log.decided
  let iter_decided t f = Log.iter_decided t.log f
  let finished t instance = Log.round t.log instance <> 0
  let decided t instance = Log.round t.log instance >= 1

  (* A decision new to this node, reached here or adopted from a peer:
     logged, made durable, then announced — the persist hook runs before
     the Decide frame is emitted. *)
  let publish t ~instance ~value ~round =
    Log.set t.log instance ~round ~value;
    (match t.persist with
    | Some persist ->
      persist ~instance ~value ~round;
      t.stats.Stats.wal_appends <- t.stats.Stats.wal_appends + 1
    | None -> ());
    t.emit ~dest:0 (Live.Frame.Decide { instance; value; round })

  (* Replay one WAL entry: mark decided without emitting or re-persisting.
     Runs before any socket exists, so there is no one to tell yet —
     re-submits and rejoined peers are answered from the log later. *)
  let seed_decision t ~instance ~value ~round =
    if not (decided t instance) then begin
      t.stats.Stats.wal_replayed <- t.stats.Stats.wal_replayed + 1;
      Log.set t.log instance ~round ~value
    end

  (* Adopt a decision a peer reached (catch-up batch at rejoin, or a
     mirrored decide for an instance that was in flight while this node
     was down).  Adopting beats re-running: a lone re-run of an instance
     the rest of the mesh already finished could converge on a different
     value.  Also upgrades an instance this node gave up on — the peer's
     decision is the one its clients saw. *)
  let adopt t ~now:_ ~instance ~value ~round =
    if not (decided t instance) then begin
      t.stats.Stats.catchup_in <- t.stats.Stats.catchup_in + 1;
      Hashtbl.remove t.early instance;
      Slab.release t.slab ~instance;
      publish t ~instance ~value ~round
    end

  let budget_left t =
    match t.cfg.kill_after with
    | Some k -> t.mesh_writes < k
    | None -> true

  (* Freeze every surviving instance at its realized crash point.  The
     instance caught mid-send keeps its partial-write phase; all others
     realize as Before_send/After_send at their current round, which is
     exactly what a whole-process kill means for them: their next write
     never happens. *)
  let halt t ~mid =
    t.halted <- true;
    let mid_inst =
      match mid with Some (r : realized) -> r.instance | None -> -1
    in
    let acc = ref (match mid with Some r -> [ r ] | None -> []) in
    Slab.iter t.slab (fun id slot ->
        if id <> mid_inst then
          acc :=
            {
              instance = id;
              round = slot.round;
              phase =
                (if slot.sent then Live.Script.After_send
                 else Live.Script.Before_send);
            }
            :: !acc);
    t.realized <-
      List.sort
        (fun (a : realized) (b : realized) -> compare a.instance b.instance)
        !acc

  (* The send phase of [slot]'s current round.  Mesh writes burn the kill
     budget one frame at a time, so a budget kill lands between two writes
     of one instance's round — the paper's sequential-write prefix crash,
     realized mid-storm.  A scripted kill caps the round's writes at its
     phase and halts once the cap is reached, even with nothing left to
     write: [After_send] stops before the compute, and [Before_send] stops
     a round that sends nothing. *)
  let send_round t slot =
    let round = slot.round in
    let data = A.data_sends slot.state ~round in
    let syncs = A.sync_sends slot.state ~round in
    let d_count = List.length data in
    let c_count = List.length syncs in
    let cap =
      match t.kill with
      | Some k when k.Live.Script.round = round ->
        Live.Script.writes_completed k.Live.Script.phase ~data:d_count
          ~ctl:c_count
      | Some _ | None -> max_int
    in
    let written = ref 0 in
    let write ~dest frame =
      if !written < cap && budget_left t then begin
        t.mesh_writes <- t.mesh_writes + 1;
        t.emit ~dest frame;
        incr written
      end
    in
    List.iter
      (fun (dest, msg) ->
        write ~dest:(Pid.to_int dest)
          (Live.Frame.Data
             { instance = slot.instance; round; payload = A.encode_msg msg }))
      data;
    List.iter
      (fun dest ->
        write ~dest:(Pid.to_int dest)
          (Live.Frame.Ctl { instance = slot.instance; round }))
      syncs;
    let k = !written in
    if k = d_count + c_count && k < cap then begin
      slot.sent <- true;
      `Sent
    end
    else begin
      let phase =
        match t.kill with
        | Some kill when k = cap -> kill.Live.Script.phase
        | Some _ | None ->
          if k = 0 then Live.Script.Before_send
          else if k < d_count then Live.Script.During_data k
          else Live.Script.During_ctl (k - d_count)
      in
      halt t ~mid:(Some { instance = slot.instance; round; phase });
      `Halted
    end

  let entry_round = function E_data (r, _, _) -> r | E_ctl (r, _) -> r

  let apply_entry slot = function
    | E_data (_, from, msg) -> slot.data <- (from, msg) :: slot.data
    | E_ctl (_, from) ->
      if not (List.exists (Pid.equal from) slot.syncs) then
        slot.syncs <- from :: slot.syncs

  let round_done t slot =
    slot.sent
    && List.for_all
         (fun s -> List.exists (Pid.equal s) slot.syncs)
         (A.round_senders ~n:t.cfg.n ~me:(Pid.of_int t.cfg.me)
            ~round:slot.round)

  let by_pid a b = compare (Pid.to_int a) (Pid.to_int b)

  let rec advance t slot ~now ~fast =
    if fast then t.stats.Stats.fast_rounds <- t.stats.Stats.fast_rounds + 1
    else t.stats.Stats.expired_rounds <- t.stats.Stats.expired_rounds + 1;
    let round = slot.round in
    let data =
      List.sort (fun (a, _) (b, _) -> by_pid a b) slot.data
    in
    let syncs = List.sort_uniq by_pid slot.syncs in
    let state, decision = A.compute slot.state ~round ~data ~syncs in
    slot.state <- state;
    match decision with
    | Some value ->
      t.stats.Stats.decides <- t.stats.Stats.decides + 1;
      let instance = slot.instance in
      publish t ~instance ~value ~round;
      List.iter
        (fun peer ->
          t.stats.Stats.catchup_out <- t.stats.Stats.catchup_out + 1;
          t.emit ~dest:peer (Live.Frame.Catchup { instance; value; round }))
        t.mirror;
      Slab.release t.slab ~instance
    | None ->
      if round >= t.cfg.max_rounds then begin
        (* Past the horizon nothing can decide (more deaths than [t]);
           release the slot and let the client time the instance out. *)
        t.gave_up <- t.gave_up + 1;
        Log.set t.log slot.instance ~round:Log.given_up ~value:0;
        Slab.release t.slab ~instance:slot.instance
      end
      else begin
        slot.round <- round + 1;
        slot.sent <- false;
        slot.data <- [];
        slot.syncs <- [];
        start_round t slot ~now
      end

  and start_round t slot ~now =
    match send_round t slot with
    | `Halted -> ()
    | `Sent ->
      let round = slot.round in
      let stay, arrived =
        List.partition (fun e -> entry_round e <> round) slot.pending
      in
      slot.pending <- stay;
      List.iter (apply_entry slot) arrived;
      slot.deadline <- now +. t.cfg.big_d;
      if round_done t slot then advance t slot ~now ~fast:true

  let submit t ~now ~instance ~proposal =
    if t.halted then ()
    else if finished t instance then begin
      (* Decided long ago (or given up): serve the logged decision instead
         of re-running the instance — a late or reconnecting client gets
         the same answer the first one did. *)
      if decided t instance then
        t.emit ~dest:0
          (Live.Frame.Decide
             {
               instance;
               value = Log.value t.log instance;
               round = Log.round t.log instance;
             })
    end
    else if Slab.find t.slab ~instance = None then begin
      t.stats.Stats.submits <- t.stats.Stats.submits + 1;
      let me = Pid.of_int t.cfg.me in
      let fresh_state () = A.init ~n:t.cfg.n ~t:t.cfg.t ~me ~proposal in
      let slot =
        Slab.acquire t.slab ~instance
          ~create:(fun () ->
            {
              instance;
              state = fresh_state ();
              round = 1;
              deadline = infinity;
              sent = false;
              data = [];
              syncs = [];
              pending = [];
            })
          ~recycle:(fun s ->
            s.instance <- instance;
            s.state <- fresh_state ();
            s.round <- 1;
            s.deadline <- infinity;
            s.sent <- false;
            s.data <- [];
            s.syncs <- [];
            s.pending <- [])
      in
      (match Hashtbl.find_opt t.early instance with
      | Some entries ->
        Hashtbl.remove t.early instance;
        slot.pending <- entries
      | None -> ());
      start_round t slot ~now
    end

  let entry_of ~from (v : Live.Frame.view) =
    match v.Live.Frame.kind with
    | Live.Frame.K_data -> (
      match A.decode_msg_view v with
      | Ok msg -> Some (E_data (v.Live.Frame.round, from, msg))
      | Error _ -> None)
    | Live.Frame.K_ctl -> Some (E_ctl (v.Live.Frame.round, from))
    | _ -> None

  let on_view t ~now ~from (v : Live.Frame.view) =
    let from = Pid.of_int from in
    if not t.halted then begin
      t.stats.Stats.frames_in <- t.stats.Stats.frames_in + 1;
      match v.Live.Frame.kind with
      | Live.Frame.K_hello | Live.Frame.K_decide -> ()
      | Live.Frame.K_catchup ->
        (* Round 0 is the end-of-batch marker, handled by the engine; a
           real decision always has round >= 1. *)
        if v.Live.Frame.round >= 1 then
          adopt t ~now ~instance:v.Live.Frame.instance
            ~value:v.Live.Frame.value ~round:v.Live.Frame.round
      | Live.Frame.K_submit ->
        submit t ~now ~instance:v.Live.Frame.instance
          ~proposal:v.Live.Frame.value
      | Live.Frame.K_data | Live.Frame.K_ctl -> (
        let instance = v.Live.Frame.instance in
        let round = v.Live.Frame.round in
        if finished t instance then
          t.stats.Stats.dropped_frames <- t.stats.Stats.dropped_frames + 1
        else
          match Slab.find t.slab ~instance with
          | Some slot ->
            if round < slot.round then
              t.stats.Stats.late_frames <- t.stats.Stats.late_frames + 1
            else if round > slot.round then (
              match entry_of ~from v with
              | Some e -> slot.pending <- e :: slot.pending
              | None ->
                t.stats.Stats.dropped_frames <-
                  t.stats.Stats.dropped_frames + 1)
            else (
              match entry_of ~from v with
              | Some e ->
                apply_entry slot e;
                if round_done t slot then advance t slot ~now ~fast:true
              | None ->
                t.stats.Stats.dropped_frames <-
                  t.stats.Stats.dropped_frames + 1)
          | None -> (
            (* The local client has not submitted this instance yet; park
               the frame so a slow submit still finds the round intact. *)
            match entry_of ~from v with
            | Some e ->
              let q =
                Option.value ~default:[] (Hashtbl.find_opt t.early instance)
              in
              Hashtbl.replace t.early instance (e :: q)
            | None ->
              t.stats.Stats.dropped_frames <- t.stats.Stats.dropped_frames + 1))
    end

  let expire t ~now =
    if not t.halted then begin
      let due = ref [] in
      Slab.iter t.slab (fun _ slot ->
          if slot.sent && slot.deadline <= now then due := slot :: !due);
      List.iter
        (fun slot ->
          (* A slot may have advanced or finished while an earlier
             expiry cascaded; re-check before computing. *)
          let still_bound =
            match Slab.find t.slab ~instance:slot.instance with
            | Some s -> s == slot
            | None -> false
          in
          if (not t.halted) && still_bound && slot.sent && slot.deadline <= now
          then advance t slot ~now ~fast:false)
        (List.rev !due)
    end

  let next_deadline t =
    if t.halted then None
    else begin
      let best = ref infinity in
      Slab.iter t.slab (fun _ slot ->
          if slot.sent && slot.deadline < !best then best := slot.deadline);
      if !best = infinity then None else Some !best
    end
end
