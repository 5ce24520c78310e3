(** The serve front-end: one process driving load through the engines'
    client channels.  One loop serves both modes: {!run} drives a fixed
    range of instances and returns every node's decision, {!stream}
    streams fresh instances until a wall time and reports through
    callbacks (the {!Soak} driver).

    The loop connects to every node (Hello node 0), keeps [window]
    instances in flight with coalesced Submit bursts, collects Decide
    frames, and settles an instance the moment its missing count reaches
    zero.  The settle rule: an instance waits on every node it was sent to
    that is still connected and has not answered it.  A Decide, or the
    death of a node that had not answered, takes one off the count; a
    node that already answered no longer counts either way.  Settlement
    is O(1) per Decide (no per-tick rescans), and the window refills
    immediately, so the Submit stream is pipelined rather than
    tick-quantized.  Submits go out only while some engine is connected.

    The select timeout is derived from the wall deadline, not a fixed
    50 ms tick: a storm's p50 latency reflects the mesh, not the client's
    polling interval.  Callers that need periodic service (the fleet
    pumps engine status pipes and catches the victim's SIGSTOP via
    [on_idle]) pass [tick] to cap the sleep.

    With [reconnect], a dead socket is re-dialed under a jittered backoff
    ({!Live.Sockets.retry_wait}: 0.05 s doubling to 1 s, 10 attempts per
    outage); on success the client re-Hellos, swaps in a fresh decoder,
    and resubmits every in-flight instance the node has not answered,
    which puts the node back into those instances' missing counts.
    Engines answer re-Submits of decided instances idempotently from
    their WAL, so a respawned node's verdict column fills back in instead
    of staying dead. *)

type config = {
  n : int;
  transport : [ `Unix of string | `Tcp of int ];
  first : int;  (** first instance id to submit (ids [first..first+instances-1]) *)
  instances : int;  (** how many instances this client drives *)
  window : int;
  proposals : int -> int -> int;  (** instance -> node -> proposal *)
  timeout : float;  (** overall wall-clock budget, seconds *)
  reconnect : bool;  (** re-dial dead engines with jittered backoff *)
}

type outcome = {
  decisions : (int * int) option array array;
      (** [decisions.(i - first).(node-1)] = (value, round), first report wins *)
  latencies : float list;  (** submit-to-settle, settled instances only *)
  elapsed : float;  (** first submit to loop exit *)
  undecided : int list;  (** absolute instance ids that never settled *)
  dead_nodes : int list;
      (** nodes down when the run closed — with [reconnect], the ones
          that never came back *)
  reconnects : int;  (** successful re-dials of dead engines *)
  resubmits : int;  (** instances re-Submitted after a reconnect *)
}

val run :
  ?on_idle:(unit -> unit) -> ?tick:float -> config -> (outcome, string) result
(** [on_idle] runs once per loop iteration; pass [tick] alongside it to
    bound the select sleep (the fleet uses 0.05 s) — without [tick] the
    loop sleeps until data or the wall deadline. *)

val stream :
  ?on_idle:(unit -> unit) ->
  ?tick:float ->
  config ->
  until:float ->
  on_decide:(int -> node:int -> value:int -> round:int -> unit) ->
  on_settle:(int -> float -> unit) ->
  (outcome, string) result
(** Streaming mode: submit the unbounded id sequence [first], [first + 1],
    ... ([instances] is ignored) while the wall clock
    ({!Live.Sockets.now}) is before [until], then drain what is in flight
    until [timeout] seconds after the start.  [on_decide instance ~node
    ~value ~round] sees each node's first Decide of an in-flight
    instance; [on_settle instance latency] sees each settlement.  The
    outcome's [decisions] and [latencies] are empty (they went to the
    callbacks) and [undecided] lists the instances still in flight at
    the close. *)
