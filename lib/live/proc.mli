(** Process supervision for every forked fleet: the live {!Supervisor},
    the serve fleet, the distributed checker's local workers and the chaos
    proxies.

    The paper's crash semantics are realized physically: a node stops
    itself at its crash point, the supervisor answers with SIGKILL, and
    every node starts at a common round origin ([go]).  Before [go] the
    only sound self-healing step is to start the whole fleet again: each
    mesh handshake runs once per process, so a lone replacement would wait
    forever for peers that dialed its dead predecessor.  {!supervise}
    therefore answers any death before readiness by restarting every
    child, charged to the caller's {!budget}. *)

type exit =
  | Exited of int
  | Signaled of int
  | Stop_killed  (** stopped itself (SIGSTOP) and was answered with SIGKILL *)

val fork : ?log:string -> (unit -> int) -> int
(** Fork a child that exits with [body]'s return code; returns its pid.
    The child first closes every parent-side pipe end of {!spawn}ed
    siblings, so a status pipe's EOF means "this child is gone".  If
    [body] raises, the child appends [fatal: <exn>] to [log] (append mode,
    never truncating) and exits 3. *)

val wait : int -> exit
(** Block until the process ends, answering a SIGSTOP with SIGKILL.  A pid
    that is no longer a child reads as [Exited 0]. *)

val terminate : int -> unit
(** SIGKILL and reap; a no-op for a process already gone. *)

(** {1 Supervised children} *)

type ends = { status : out_channel; go : in_channel }
(** The child's side of its pipes: status lines up, a go line down. *)

type 'a child = private {
  node : int;
  state : 'a;  (** the caller's per-child bookkeeping *)
  log : string option;
  mutable pid : int;
  mutable status_fd : Unix.file_descr option;  (** [None] once at EOF *)
  mutable go_fd : Unix.file_descr option;
  buf : Buffer.t;  (** status bytes not yet split into lines *)
  mutable ready : bool;
  mutable exit : exit option;  (** [None] while the process runs *)
}

val spawn : ?log:string -> node:int -> 'a -> (ends -> unit) -> 'a child
(** Fork a child with fresh pipes; it exits 0 when [body] returns. *)

val respawn : 'a child -> (ends -> unit) -> unit
(** Replace an ended child's process, keeping its record and [state]. *)

val mark_ready : 'a child -> unit

val pump :
  timeout:float -> on_line:('a child -> string -> unit) -> 'a child array -> unit
(** Wait up to [timeout] seconds for status bytes and hand every complete
    line to [on_line]. *)

val reap : 'a child -> exit option
(** Non-blocking: how the child ended (also recorded in [exit]), [None]
    while it runs.  A self-stopped child is SIGKILLed and reaped here. *)

val kill : 'a child -> bool
(** SIGKILL a running child; [true] if a signal was sent.  A later
    {!reap} observes the death. *)

val stop : 'a child -> unit
(** SIGKILL a running child and reap it ([Signaled 9]). *)

val send : 'a child -> string -> unit
(** Write to the child's go pipe; a child that is gone is ignored. *)

type budget

val budget : limit:int -> backoff:float -> budget
(** [limit] respawn attempts; the [k]-th waits [backoff * 2^(k-1)] s. *)

val charge : budget -> float option
(** Spend one attempt: [Some delay] to wait first, [None] if exhausted. *)

val spent : budget -> int

val supervise :
  ?unlink:string list ->
  n:int ->
  spawn:(int -> 'a child) ->
  budget:budget ->
  on_line:('a child -> string -> unit) ->
  on_restart:(died:int -> attempt:int -> unit) ->
  ('a child array -> ('b, string) result) ->
  ('b, string) result
(** Spawn nodes [1..n] and pump status lines until every child is ready
    (15 s per attempt), then run [drive].  A
    death before readiness kills every child and, after the budget's
    backoff, spawns all [n] afresh and calls [on_restart]; an exhausted
    budget or the 15 s deadline is [Error].  Teardown always follows — every
    child SIGKILLed and reaped, parent pipe ends closed, [unlink] paths
    removed — also when [drive] raises, which comes back as [Error]. *)

val halt : unit -> 'a
(** A node at its crash point: stop this process (SIGSTOP) and sleep until
    the supervisor's answering SIGKILL.  The stop is the deterministic
    marker, the kill is real. *)

val mkdir_p : string -> unit

val vlog : bool -> string -> ('a, unit, string, unit) format4 -> 'a
(** [vlog verbose tag fmt]: a ["tag: ..."] line on stderr if [verbose]. *)
