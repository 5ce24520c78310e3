(** The self-healing supervisor: spawns one OS process per node, injects
    the scripted kills for real, and turns whatever survives into a judged
    transcript.

    Lifecycle:

    + fork the fleet (one [Node] process each, with a status pipe back to
      the supervisor, a go pipe forward, and a per-node log file);
    + wait for every node's [ready] — a death before [go] restarts the
      whole fleet with exponential backoff, up to [respawn_budget] times
      ({!Proc.supervise}: each mesh handshake runs once, so a lone
      replacement could never rejoin peers that dialed its dead
      predecessor); exhausting the budget or the readiness timeout aborts
      the run;
    + broadcast [go t0], the common round-clock origin;
    + collect events, watching children with {!Proc.reap}: a
      SIGSTOP is a node at its scripted crash point, answered with a real
      [SIGKILL]; an unexpected death is absorbed as one more (unscripted)
      crash and the run continues; a watchdog kills stragglers past the
      round horizon;
    + always reap and kill every child and remove the socket files, then
      judge the transcript ({!Judge.judge}, with the differential schedule
      from {!Script.to_schedule}).

    Every self-healing action is also emitted as an {!event} through the
    configured {!Obs.Instrument} sink, so soaks can count respawns and
    absorptions instead of grepping logs.

    Runs the paper's Figure 1 algorithm ({!Binding.Rwwc}). *)

type event =
  | Respawned of { node : int; attempt : int }
      (** [node] died before [go] and the whole fleet was restarted;
          [attempt] counts from 1 up to the respawn budget *)
  | Absorbed of { node : int; at_round : int }
      (** an unscripted post-mesh death was absorbed as one more crash and
          the run continued *)

val pp_event : Format.formatter -> event -> unit

type transport =
  [ `Unix of string  (** workspace dir: sockets, logs *)
  | `Tcp of string * int  (** workspace dir for logs, TCP port base *) ]

type config = {
  n : int;
  t : int;
  script : Script.t;
  transport : transport;
  big_d : float;
  delta : float;
  proposals : int array option;  (** default: distinct proposals 1..n *)
  max_rounds : int option;  (** default: [t + 2] *)
  verbose : bool;  (** progress lines on stderr *)
  respawn_budget : int;
      (** whole-fleet restarts allowed before [go] (default 1) *)
  respawn_backoff : float;
      (** base respawn delay in seconds, doubling per attempt (default
          0.05) *)
  instrument : event Obs.Instrument.t;
      (** sink for {!event}s (default {!Obs.Instrument.null}) *)
  chaos_startup_kills : int list;
      (** fault injection for soaks: each listed node is SIGKILLed by the
          supervisor right after (re)spawn, before it can become ready —
          listing a node twice kills it again after the fleet restart.
          Default []. *)
  chaos_run_kills : (int * float) list;
      (** fault injection for soaks: node [i] is SIGKILLed [delay] seconds
          after [t0] — an unscripted death the run must absorb.
          Default []. *)
}

val config :
  ?proposals:int array ->
  ?max_rounds:int ->
  ?verbose:bool ->
  ?respawn_budget:int ->
  ?respawn_backoff:float ->
  ?instrument:event Obs.Instrument.t ->
  ?chaos_startup_kills:int list ->
  ?chaos_run_kills:(int * float) list ->
  n:int ->
  t:int ->
  script:Script.t ->
  transport:transport ->
  big_d:float ->
  delta:float ->
  unit ->
  config

val workspace : config -> string
(** The directory holding node logs (and Unix-domain sockets). *)

val run : config -> (Transcript.t * Judge.verdict, string) result
(** [Error] only for runs that never got going (invalid script, startup
    failure, respawn budget exhausted); once the fleet is running,
    crashes — scripted or not — are data, not errors. *)
