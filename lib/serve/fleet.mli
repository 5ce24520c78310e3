(** The serve fleet: forks one {!Engine} per node, waits for the mesh,
    drives the storm with an in-process {!Client}, and folds decisions,
    latencies, per-engine stats, and any realized kill into a {!Report}.

    Engine status pipes (ready / halted / stats JSON lines) are pumped
    from the driver's [on_idle] hook, so one select loop serves both
    jobs; a kill-budget victim's SIGSTOP is answered with SIGKILL from
    the same hook — mid-storm, while the other engines keep deciding.

    Process mechanics are {!Live.Proc}'s.  An engine that dies before the
    mesh forms fails the run (a startup budget of 0).  With [respawn], an
    engine killed after that does not stay dead: the same hook re-forks it
    with {!Engine.config.rejoin} set (replay the WAL, re-dial the mesh,
    catch up before serving), with a per-node {!Live.Proc.budget} of
    [respawn_budget] backed-off attempts.  Clean exits are never
    respawned.  [chaos] interposes a {!Chaosproxy} on each listed mesh
    link via the dialing engine's [dial] override. *)

type config = {
  n : int;
  t : int;
  transport : [ `Unix of string | `Tcp of int ];
  workspace : string;  (** directory for socket files, WALs, engine logs *)
  instances : int;
  window : int;
  big_d : float;
  batch : bool;
  backend : Evloop.backend;  (** readiness backend for every engine *)
  kill : Report.kill_spec option;
  max_rounds : int option;  (** default [t + 1] *)
  proposals : int -> int -> int;  (** instance -> node -> proposal *)
  client_timeout : float option;  (** default derived from the deadline chain *)
  respawn : bool;  (** respawn killed engines (implies [wal]) *)
  respawn_budget : int;  (** respawn attempts per node *)
  respawn_backoff : float;  (** base backoff, doubled per attempt *)
  wal : bool;  (** durable decision WALs in [workspace] even without respawn *)
  chaos : Chaosproxy.link list;  (** proxied mesh links with fault scripts *)
  verbose : bool;
}

type mesh = {
  victim : (int * Mux.realized list) option;
      (** the kill victim's realized per-instance crash points *)
  node_stats : (int * Stats.t) list;
      (** final per-engine event-loop stats, summed across respawn lives *)
  respawned : (int * int) list;  (** node, respawns performed *)
}

val with_mesh :
  config ->
  (on_idle:(unit -> unit) -> kill:(int -> bool) -> ('a, string) result) ->
  ('a * mesh, string) result
(** Spawn the chaos proxies and engines, wait until every mesh handshake
    completes, run [drive ~on_idle ~kill] (calling [on_idle] frequently
    keeps status pipes drained, answers the victim's SIGSTOP, and
    performs due respawns; [kill node] SIGKILLs a live engine and
    reports whether a signal was sent), then collect final stats and
    tear the fleet down — kills, reaps, socket unlinks included.
    {!run}, the soak driver, and the multi-client tests are all this
    skeleton with a different [drive]. *)

val default_timeout : config -> float
(** The storm budget {!run} uses when [client_timeout] is [None]. *)

val run : config -> (Report.t, string) result
