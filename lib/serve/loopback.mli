(** The deterministic serve engine: the full multiplexed mesh — muxes,
    batchers, per-link incremental decoders, client Decide streams — wired
    through in-memory FIFOs instead of sockets, driven by a virtual clock.

    Delivery runs to quiescence at each virtual instant (flush, move
    bytes, decode, repeat — consuming a frame can emit new ones), then the
    clock jumps straight to the earliest pending round deadline; a storm
    with a crashed coordinator costs virtual [big_d] but almost no wall
    time, which is what lets a 1000-instance kill storm run inside the
    test suite and the decisions/sec bench measure pure engine throughput.

    Same codec, same mux, same batching counters as the socket engine, so
    loopback results — including the realized per-instance crash points of
    a [kill] and their {!Live.Judge} verdicts — transfer.

    {!Make.script} runs the live runtime's scripted kills through the same
    mesh: one instance, each victim's mux stopped at its exact
    [(round, phase)] ({!Mux.Make.create}'s [kill]).  A communication-closed
    round protocol behaves the same multiplexed as in lockstep, so the
    resulting {!Live.Transcript.t} is the deterministic anchor the
    real-socket runtime is judged against. *)

module Make (A : Binding.ALGO) : sig
  type config = {
    n : int;
    t : int;
    instances : int;
    window : int;  (** concurrent instances in flight (client window) *)
    big_d : float;
    batch : bool;
    kill : Report.kill_spec option;
    max_rounds : int option;  (** default [t + 1] *)
    proposals : int -> int -> int;  (** instance -> node -> proposal *)
  }

  val run : config -> Report.t

  val script :
    ?proposals:int array ->
    ?max_rounds:int ->
    n:int ->
    t:int ->
    script:Live.Script.t ->
    unit ->
    Live.Transcript.t
  (** One deterministic live run.  Defaults: distinct proposals [1..n],
      [max_rounds = t + 2].  Raises [Invalid_argument] on an invalid script
      (bad pid, duplicate victim, more than [t] kills) and [Failure] on
      wire corruption (a codec bug — loopback streams cannot be damaged in
      flight). *)
end

module Rwwc : module type of Make (Binding.Rwwc)
