(** The per-engine durable decision log.

    An append-only file the mux writes at every decide, {e before} the
    Decide frame is handed to the outbound queues: once a client can see a
    decision, the decision survives the process.  A respawned engine
    replays its WAL to re-seed the mux's decision log, so re-submitted
    instances are answered idempotently and never re-run.

    Layout: a 12-byte header — magic ["SAWL"], a be32 format version (2)
    and the be32 owning node id (a header mismatch means the file is not
    this node's log and recovery degrades to a clean fresh join) —
    followed by
    one CRC-framed {!Live.Frame.Decide} per decision, exactly the wire
    encoding.  Reads are incremental and adversarial, in the
    [Minimize.Repro.load] tradition: a torn tail (the fsync'd prefix of a
    crashed append) or any CRC/kind corruption rejects the file {e from
    that point on} — the valid prefix is kept, because every entry in it
    carried a valid CRC when written, and the suffix is discarded, never
    resurrected.  {!recover} additionally truncates the discarded suffix
    so the next append extends a clean log. *)

type t
(** An open log, positioned for appending. *)

type entry = { instance : int; value : int; round : int }

type recovery = {
  entries : entry list;  (** the valid prefix, in append order *)
  discarded : int;  (** torn/corrupt suffix bytes rejected by the read *)
}

val path : dir:string -> node:int -> string
(** The conventional location of node [node]'s log under a fleet
    workspace: [dir/wal-p<node>.bin]. *)

val load : path:string -> node:int -> (recovery, string) result
(** Read-only recovery scan.  A missing file is an empty log; a header
    mismatch (bad magic, unknown version, wrong node) is [Error].  Never
    raises. *)

val recover : path:string -> node:int -> (t * recovery, string) result
(** Open [path] for appending, creating it (with a fresh header) if
    missing.  Replays the valid prefix, truncates any rejected suffix in
    place (fsync'd), and leaves the log positioned at its end.  [Error]
    on a header mismatch — delete the file and {!recover} again for a
    fresh join. *)

val append : t -> instance:int -> value:int -> round:int -> unit
(** Append one decision and fsync before returning: when [append] returns,
    the decision is durable. *)

val appended : t -> int
(** Entries appended through this handle (excludes replayed ones). *)

val close : t -> unit
