(** EXP-LIVE — the live runtime's crash semantics, checked deterministically.

    Runs the Figure 1 algorithm through the live wire protocol on the
    in-memory loopback ({!Serve.Loopback}'s [script]: one instance over a
    mesh of {!Serve.Mux}es, the socket runtime's codec and write order,
    minus the clocks and processes) and shows that killing a sender after
    [k] sequential writes realizes precisely the extended model's crash
    semantics: an order-prefix of the data destinations, or all data plus
    a prefix of the control sequence.

    Every row is judged twice: the transcript must satisfy uniform
    consensus within [f + 1] deadline-synchronized rounds (the EXP-CHAOS
    property checkers), and its decisions must equal the abstract
    {!Sync_sim.Engine} on the schedule the kill script realizes.  Each
    configuration also runs twice and must produce observably identical
    transcripts — the loopback engine is the deterministic anchor the
    socket smoke is compared against. *)

open Model

let summarize tr =
  match Live.Transcript.decisions tr with
  | [] -> "none"
  | ds ->
    ds
    |> List.map (fun (p, v, r) ->
           Printf.sprintf "p%d=%d@r%d" (Pid.to_int p) v r)
    |> String.concat " "

(* One judged loopback run: deterministic, property-clean, and in agreement
   with the abstract engine — anything else fails the experiment. *)
let judged ~n ~t script =
  let run () = Serve.Loopback.Rwwc.script ~n ~t ~script () in
  let tr = run () in
  if not (Live.Transcript.equal_observable tr (run ())) then
    failwith
      (Printf.sprintf "EXP-LIVE: loopback not deterministic on [%s]"
         (Live.Script.to_string script));
  let schedule =
    Live.Script.to_schedule ~send_plan:(Live.Binding.Rwwc.send_plan ~n) script
  in
  let v = Live.Judge.judge ~schedule tr in
  if not v.Live.Judge.ok then
    failwith
      (Printf.sprintf "EXP-LIVE: judge failed on [%s]"
         (Live.Script.to_string script));
  (tr, v)

let last_decision_round tr =
  List.fold_left (fun acc (_, _, r) -> max acc r) 0
    (Live.Transcript.decisions tr)

let canonical_table () =
  let n = 6 in
  let t = 4 in
  let table =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "canonical f-kill scripts through the live wire (loopback, n = \
            %d, t = %d): survivors decide within f+1 rounds and match the \
            abstract engine"
           n t)
      ~header:
        [ "f"; "script"; "decisions"; "last decision"; "f+1 bound"; "judge" ]
      ()
  in
  for f = 0 to t do
    let script = Live.Script.default ~n ~f in
    let tr, v = judged ~n ~t script in
    let last = last_decision_round tr in
    if last > f + 1 then
      failwith
        (Printf.sprintf "EXP-LIVE: decision at round %d exceeds f+1 = %d" last
           (f + 1));
    Diag.Table.add_row table
      [
        Diag.Table.fmt_int f;
        (if script = [] then "-" else Live.Script.to_string script);
        summarize tr;
        Diag.Table.fmt_int last;
        Diag.Table.fmt_int (f + 1);
        (match v.Live.Judge.differential with
        | Some (Ok _) -> "pass + engine match"
        | Some (Error _) | None -> "pass");
      ]
  done;
  table

let phase_table () =
  let n = 5 in
  let t = 3 in
  let table =
    Diag.Table.create
      ~title:
        (Printf.sprintf
           "write-prefix sweep: p1 killed after k sequential writes of round \
            1 (loopback, n = %d; 4 data writes then 4 control writes)"
           n)
      ~header:[ "kill"; "abstract crash point"; "decisions"; "judge" ]
      ()
  in
  let phases =
    [ Live.Script.Before_send ]
    @ List.init (n - 1) (fun k -> Live.Script.During_data (k + 1))
    @ List.init (n - 1) (fun k -> Live.Script.During_ctl (k + 1))
    @ [ Live.Script.After_send ]
  in
  List.iter
    (fun phase ->
      let kill = { Live.Script.pid = Pid.of_int 1; round = 1; phase } in
      let script = [ kill ] in
      let tr, v = judged ~n ~t script in
      let schedule =
        Live.Script.to_schedule
          ~send_plan:(Live.Binding.Rwwc.send_plan ~n)
          script
      in
      let point =
        match Schedule.bindings schedule with
        | [ (pid, ev) ] ->
          Format.asprintf "p%d%a" (Pid.to_int pid) Crash.pp ev
        | _ -> "-"
      in
      Diag.Table.add_row table
        [
          Live.Script.kill_to_string kill;
          point;
          summarize tr;
          (match v.Live.Judge.differential with
          | Some (Ok _) -> "pass + engine match"
          | Some (Error _) | None -> "pass");
        ])
    phases;
  table

let run () = [ canonical_table (); phase_table () ]

let experiment =
  {
    Experiment.id = "LIVE";
    title = "live wire protocol: write-prefix kills realize the crash model";
    paper_ref = "Section 2 (extended rounds), realized as a live runtime";
    run;
  }
