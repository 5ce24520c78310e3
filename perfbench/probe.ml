(* Measurement primitives shared by every workload: a nanosecond
   monotonic clock, CPU and peak-RSS probes, order statistics, and the
   span tracer used by the traced runs. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
external maxrss_kb : bool -> int = "perfbench_maxrss_kb" [@@noalloc]

let now () = float_of_int (now_ns ()) *. 1e-9

(* Peak RSS of this process and of every child it has reaped (the serve
   engines), in MiB. *)
let peak_rss_mb () =
  float_of_int (max (maxrss_kb false) (maxrss_kb true)) /. 1024.0

(* CPU seconds (user + system) of this process, and of its reaped
   children. *)
let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Nearest-rank percentile, the rule {!Serve.Report} uses. *)
let percentile samples q =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  Serve.Report.percentile a q

let median samples = percentile samples 0.5

(* {1 Tracing}

   A tracer keeps, per layer, a call count, the busy time of its spans and
   their self time (busy time minus the part covered by nested spans).
   Spans nest through an explicit stack, so self time is exact for the
   synchronous call chains the benchmark wraps: a mux step that encodes a
   frame and appends it to a batch reports the encode and the append as
   its children.  The first [log_cap] spans are also kept whole (layer,
   instance or schedule id, start, end, parent) and written out as JSON
   lines when the run ends.  A tracer is single-domain; the sweep gives
   each pool shard its own and sums them. *)

type layer = {
  name : string;
  mutable calls : int;
  mutable busy : int;  (** ns *)
  mutable self : int;  (** ns *)
  keep : bool;  (** keep every span duration, for percentiles *)
  mutable samples : int array;
  mutable nsamples : int;
}

type t = {
  on : bool;
  origin : int;
  mutable layers : layer list;
  child : int array;  (** per depth: time covered by finished children *)
  span : int array;  (** per depth: index of the open span in the log *)
  mutable depth : int;
  log_cap : int;
  mutable logged : int;
  log_layer : string array;
  log_id : int array;
  log_start : int array;
  log_stop : int array;
  log_parent : int array;
}

let max_depth = 32
let log_cap = 20_000

let create ~on () =
  let cap = if on then log_cap else 0 in
  {
    on;
    origin = now_ns ();
    layers = [];
    child = Array.make max_depth 0;
    span = Array.make max_depth (-1);
    depth = 0;
    log_cap = cap;
    logged = 0;
    log_layer = Array.make cap "";
    log_id = Array.make cap 0;
    log_start = Array.make cap 0;
    log_stop = Array.make cap 0;
    log_parent = Array.make cap (-1);
  }

let layer ?(keep = false) tr name =
  let l =
    { name; calls = 0; busy = 0; self = 0; keep; samples = [||]; nsamples = 0 }
  in
  tr.layers <- tr.layers @ [ l ];
  l

(* [enter] opens a span and returns its start time; [leave] closes the
   innermost open span.  Both are no-ops (returning 0) on an untraced
   tracer, so one code path serves the traced and the untraced replay. *)
let enter tr =
  if not tr.on then 0
  else begin
    let t0 = now_ns () in
    let d = tr.depth in
    tr.child.(d) <- 0;
    if tr.logged < tr.log_cap then begin
      let k = tr.logged in
      tr.logged <- k + 1;
      tr.log_start.(k) <- t0;
      tr.log_parent.(k) <- (if d > 0 then tr.span.(d - 1) else -1);
      tr.span.(d) <- k
    end
    else tr.span.(d) <- -1;
    tr.depth <- d + 1;
    t0
  end

let leave tr l ~id t0 =
  if tr.on then begin
    let t1 = now_ns () in
    let dur = t1 - t0 in
    let d = tr.depth - 1 in
    tr.depth <- d;
    l.calls <- l.calls + 1;
    l.busy <- l.busy + dur;
    l.self <- l.self + dur - tr.child.(d);
    if d > 0 then tr.child.(d - 1) <- tr.child.(d - 1) + dur;
    let k = tr.span.(d) in
    if k >= 0 then begin
      tr.log_layer.(k) <- l.name;
      tr.log_id.(k) <- id;
      tr.log_stop.(k) <- t1
    end;
    if l.keep then begin
      if l.nsamples = Array.length l.samples then begin
        let bigger = Array.make (max 1024 (2 * l.nsamples)) 0 in
        Array.blit l.samples 0 bigger 0 l.nsamples;
        l.samples <- bigger
      end;
      l.samples.(l.nsamples) <- dur;
      l.nsamples <- l.nsamples + 1
    end
  end

let find tr name = List.find (fun l -> l.name = name) tr.layers

let sample_percentile_us l q =
  if l.nsamples = 0 then 0.0
  else
    percentile
      (Array.init l.nsamples (fun i -> float_of_int l.samples.(i) *. 1e-3))
      q

(* Write the kept spans as JSON lines, times relative to the tracer's
   creation; [parent] is the [span] number of the enclosing span, or -1. *)
let dump tr oc ~shard =
  for k = 0 to tr.logged - 1 do
    if tr.log_layer.(k) <> "" then
      Printf.fprintf oc
        "{\"shard\":%d,\"span\":%d,\"layer\":%S,\"id\":%d,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n"
        shard k tr.log_layer.(k) tr.log_id.(k)
        (tr.log_start.(k) - tr.origin)
        (tr.log_stop.(k) - tr.origin)
        tr.log_parent.(k)
  done

(* {1 Results} *)

type metric = { name : string; value : float; unit : string; samples : int }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let metric ?(samples = 1) name unit value = { name; value; unit; samples }
