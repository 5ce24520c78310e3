open Model

type status =
  | Decided of { value : int; at_round : int }
  | Killed of { at_round : int; scripted : bool }
  | Undecided

type t = {
  n : int;
  t : int;
  proposals : int array;
  statuses : status array;
  max_round : int;
}

let equal_status a b =
  match (a, b) with
  | Decided { value = v1; at_round = r1 }, Decided { value = v2; at_round = r2 }
    ->
    Int.equal v1 v2 && Int.equal r1 r2
  | ( Killed { at_round = r1; scripted = s1 },
      Killed { at_round = r2; scripted = s2 } ) ->
    Int.equal r1 r2 && Bool.equal s1 s2
  | Undecided, Undecided -> true
  | (Decided _ | Killed _ | Undecided), _ -> false

let equal_observable a b =
  a.n = b.n && a.t = b.t
  && a.proposals = b.proposals
  && a.max_round = b.max_round
  && Array.for_all2 equal_status a.statuses b.statuses

let f_actual tr =
  Array.fold_left
    (fun acc -> function Killed _ -> acc + 1 | Decided _ | Undecided -> acc)
    0 tr.statuses

let to_run_result tr =
  {
    Sync_sim.Run_result.n = tr.n;
    t = tr.t;
    proposals = tr.proposals;
    statuses =
      Array.map
        (function
          | Decided { value; at_round } ->
            Sync_sim.Run_result.Decided { value; at_round }
          | Killed { at_round; _ } -> Sync_sim.Run_result.Crashed { at_round }
          | Undecided -> Sync_sim.Run_result.Undecided)
        tr.statuses;
    rounds_executed = tr.max_round;
    data_msgs = 0;
    data_bits = 0;
    sync_msgs = 0;
    sync_bits = 0;
    post_decision_crashes = Pid.Set.empty;
    trace = [];
  }

let decisions tr =
  let out = ref [] in
  Array.iteri
    (fun i -> function
      | Decided { value; at_round } ->
        out := (Pid.of_int (i + 1), value, at_round) :: !out
      | Killed _ | Undecided -> ())
    tr.statuses;
  List.rev !out

let pp_status ppf = function
  | Decided { value; at_round } ->
    Format.fprintf ppf "decided %d @@r%d" value at_round
  | Killed { at_round; scripted } ->
    Format.fprintf ppf "%s @@r%d"
      (if scripted then "killed" else "died-unscripted")
      at_round
  | Undecided -> Format.pp_print_string ppf "undecided"

let pp ppf tr =
  Format.fprintf ppf "@[<v>live n=%d t=%d (f=%d, %d rounds)" tr.n tr.t
    (f_actual tr) tr.max_round;
  Array.iteri
    (fun i st -> Format.fprintf ppf "@,  p%d: %a" (i + 1) pp_status st)
    tr.statuses;
  Format.fprintf ppf "@]"
