(** What a live run leaves behind: per-node outcomes and the round
    horizon, collected by the supervisor over the status pipes (socket
    mode) or produced directly by the deterministic loopback
    ({!Serve.Loopback}'s [script]).

    The transcript is the judge's only input — the same record regardless
    of transport, so the loopback tests and the real-socket smoke assert
    the identical contract. *)

open Model

type status =
  | Decided of { value : int; at_round : int }
  | Killed of { at_round : int; scripted : bool }
      (** [scripted = false] marks an unexpected process death the
          supervisor absorbed (self-healing: the run continues and the
          death is judged as one more crash) *)
  | Undecided  (** alive at the round horizon without deciding *)

type t = {
  n : int;
  t : int;
  proposals : int array;
  statuses : status array;  (** index [i] holds process [i+1] *)
  max_round : int;  (** latest round any process executed *)
}

val equal_status : status -> status -> bool

val equal_observable : t -> t -> bool
(** Same run shape, proposals, statuses and round horizon.  The
    determinism assertion of the loopback engine. *)

val f_actual : t -> int
(** Processes that died, scripted or not — the paper's [f]. *)

val to_run_result : t -> Sync_sim.Run_result.t
(** The transcript as an abstract run outcome, so the existing
    {!Spec.Properties} checkers judge live runs unchanged.  Wire counters
    are zero (the live runtime counts frames, not Theorem 2 bits); the
    trace is empty. *)

val decisions : t -> (Pid.t * int * int) list

val pp : Format.formatter -> t -> unit
