(* The mc-sweep workload: the canonical (symmetry-reduced) RWWC schedule
   sweep the `check` command runs, n = 7, max_f = 4, max_round = 3, on
   two {!Parallel.Pool} domains — enumerator, abstract engine and
   property check per schedule, no serve layer anywhere. *)

let n = 7
let t = n - 2 (* the `check` command's t *)
let max_f = 4
let max_round = 3
let domains = 2
let expected_classes = 1_121_178

(* The seed picks an injective permutation of the proposal vector; the
   class count does not depend on it (RWWC pins every pid to a role, so
   the reduction never renames pids), and every verdict must still pass. *)
let proposals ~seed =
  let a = Harness.Workloads.distinct n in
  let rng = Random.State.make [| seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let space ~shards ~shard =
  Adversary.Enumerate.shard ~shards ~shard
    (Adversary.Canonical.schedules
       (Adversary.Canonical.rotating_coordinator ~n)
       ~n ~max_f ~max_round)

let checker ~proposals =
  let run =
    Harness.Runners.Rwwc_runner.runner
      (Sync_sim.Engine.config ~n ~t ~proposals ())
  in
  (run, fun res ->
     Spec.Properties.all_ok
       (Spec.Properties.uniform_consensus
          ~bound:(Harness.Runners.f_actual res + 1)
          res))

(* Latency is taken per block of [block] consecutive schedules of a shard
   (pull, run and check each), the unit of work a checker reports back.
   A single schedule's time is too short to time steadily: the canonical
   space mixes cheap and expensive classes, so a per-schedule median sits
   on the edge between the two and jumps with small speed changes.  A
   block is long enough (tens of ms) that a preemption of a few ms does
   not decide its rank; a sweep has 224 full blocks, 112 per shard. *)
let block = 5000

type shard = {
  checked : int;
  violations : int;
  blocks : int list;  (** ns per full block *)
}

(* [first] is called once, by shard 0, after its first checked schedule. *)
let untraced_shard ~first ~proposals ~shards ~shard =
  let run, ok = checker ~proposals in
  let rec go seq checked violations started blocks =
    match seq () with
    | Seq.Nil -> { checked; violations; blocks }
    | Seq.Cons (schedule, rest) ->
      let good = ok (run schedule) in
      let checked = checked + 1 in
      if checked = 1 && shard = 0 then first ();
      let violations = if good then violations else violations + 1 in
      if checked mod block = 0 then
        let now = Probe.now_ns () in
        go rest checked violations now ((now - started) :: blocks)
      else go rest checked violations started blocks
  in
  go (space ~shards ~shard) 0 0 (Probe.now_ns ()) []

let sweep ?(first = ignore) ~proposals () =
  let t0 = Probe.now () in
  let shards = Parallel.Pool.shards ~domains (untraced_shard ~first ~proposals) in
  (Probe.now () -. t0, shards)

let sweep_failures shards =
  let checked = List.fold_left (fun acc s -> acc + s.checked) 0 shards in
  List.fold_left (fun acc s -> acc + s.violations) 0 shards
  + abs (checked - expected_classes)

(* {1 Untraced sweeps, one process each}

   The untraced run starts every sweep, and every set-up probe, as a fresh
   process of this executable ([--child sweep] or [--child setup]), as a
   user starts the checker.  On the shared two-core host the speed of a
   sweep also depends on the process it runs in: in two 120 s processes
   the 40 s thirds stayed within 2% of each other, while the two
   processes differed by 8%.  A median over many processes averages
   that out. *)

let first_line = "first"

(* {2 Host speed}

   Processes alone do not remove the host's drift: in one set of ten runs
   the rate climbed from 415k to 580k schedules/s as the shared host
   quietened, with every sweep of a run moving together.  So each sweep
   child also times a fixed reference job, just before and just after its
   sweep, and the sweep's times are scaled by [reference_nominal] over the
   reference's mean time.  The job is this file's own code (an int-map
   build and a list pipeline, allocation-heavy like the checker, on two
   domains spawned directly rather than through {!Parallel.Pool}), so no
   change to the library moves it; a change to the checker moves the
   scaled times exactly as it moves the raw ones.  In eight runs of one
   quiet period, scaling cut the spread of the sweep time from 0.068 to
   0.026, and per sweep the two times correlated at 0.62. *)

module Int_map = Map.Make (Int)

let reference_unit i =
  let rec build k m keys =
    if k = 0 then (m, keys)
    else
      let key = ((i * 1103515245) + (k * 12345)) land 0xffff in
      build (k - 1) (Int_map.add key k m) (key :: keys)
  in
  let m, keys = build 2000 Int_map.empty [] in
  Int_map.fold (fun k v acc -> acc + (k lxor v)) m 0
  + List.fold_left ( + ) 0
      (List.filter (fun x -> x land 1 = 0) (List.map (fun x -> x * 3) keys))

let reference_units = 600

(* Wall seconds of [reference_units] units on each of two domains. *)
let reference () =
  let work () =
    let acc = ref 0 in
    for i = 1 to reference_units do
      acc := !acc + reference_unit i
    done;
    !acc
  in
  let t0 = Probe.now () in
  let other = Domain.spawn work in
  let mine = work () in
  let theirs = Domain.join other in
  ignore (Sys.opaque_identity (mine + theirs));
  Probe.now () -. t0

(* The reference's median time on the 2-vCPU Xeon VM the benchmark was
   tuned on (56 sweeps): scaled times read as that host's typical
   speed. *)
let reference_nominal = 0.38

(* The child: print [first_line] as soon as shard 0 has checked its first
   schedule, then, for [--child sweep], run the whole sweep between two
   reference jobs and print "sweep <wall s> <reference s> <checked>
   <violations> <block ns>...", the blocks of shard 0 then shard 1. *)
let child ~seed ~full =
  let proposals = proposals ~seed in
  let first () = print_endline first_line in
  if full then begin
    let before = reference () in
    let wall, shards = sweep ~first ~proposals () in
    let after = reference () in
    let blocks = List.concat_map (fun s -> s.blocks) shards in
    Printf.printf "sweep %.9f %.9f %d %d %s\n" wall
      ((before +. after) /. 2.0)
      (List.fold_left (fun acc s -> acc + s.checked) 0 shards)
      (List.fold_left (fun acc s -> acc + s.violations) 0 shards)
      (String.concat " " (List.map string_of_int blocks))
  end
  else
    ignore
      (Parallel.Pool.shards ~domains (fun ~shards ~shard ->
           let run, ok = checker ~proposals in
           match space ~shards ~shard () with
           | Seq.Cons (s, _) ->
             ignore (ok (run s));
             if shard = 0 then first ()
           | Seq.Nil -> ()))

type timed = {
  setup : float;  (** spawn until shard 0's first checked schedule, s *)
  wall : float;  (** the sweep's own pool call, s *)
  reference : float;  (** the reference job's mean time around it, s *)
  shards : shard list;  (** one entry holding all blocks; empty on failure *)
}

(* Run one child to its end.  A child that dies, or prints anything but
   the expected lines, comes back with no shards, so the sweep counts as
   checking no class at all. *)
let spawn ~seed mode =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Probe.now () in
  let pid =
    Unix.create_process exe
      [| exe; "--workload"; "mc-sweep"; "--seed"; string_of_int seed; "--child"; mode |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let setup =
    match In_channel.input_line ic with
    | Some l when l = first_line -> Probe.now () -. t0
    | _ -> Float.nan
  in
  let rest = In_channel.input_all ic in
  close_in ic;
  let ok = match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false in
  let failed = { setup = Float.nan; wall = Float.nan; reference = Float.nan; shards = [] } in
  if not (ok && Float.is_finite setup) then failed
  else
    match (mode, String.split_on_char ' ' (String.trim rest)) with
    | "setup", [ "" ] -> { failed with setup }
    | "sweep", "sweep" :: wall :: reference :: checked :: violations :: blocks -> (
      try
        {
          setup;
          wall = float_of_string wall;
          reference = float_of_string reference;
          shards =
            [
              {
                checked = int_of_string checked;
                violations = int_of_string violations;
                blocks = List.map int_of_string blocks;
              };
            ];
        }
      with Failure _ -> failed)
    | _ -> failed

let scale t = reference_nominal /. t.reference

(* A block is the same work in every sweep of a run: the shard's
   enumeration order is fixed, so block k of shard s holds the same
   schedules each time.  Its time is taken as its median over the run's
   sweeps, and the percentile is then taken over blocks.  A preemption or
   a stalled stop-the-world GC sync with the other domain (both common on
   a shared two-core host) lengthens one block of one sweep; the median
   drops it, so the tail that remains is the tail of the work itself,
   which is what a change to the checker moves. *)
let latency_ms sweeps q =
  let per_sweep =
    List.map
      (fun t ->
        (scale t, Array.of_list (List.concat_map (fun s -> s.blocks) t.shards)))
      sweeps
  in
  let nblocks = List.fold_left (fun acc (_, a) -> min acc (Array.length a)) max_int per_sweep in
  let block_median k =
    Probe.median
      (Array.of_list (List.map (fun (c, a) -> c *. float_of_int a.(k)) per_sweep))
  in
  Probe.percentile (Array.init nblocks block_median) q *. 1e-6

let setup_children = 200

let end_to_end ~seed ~seconds =
  let proposals = proposals ~seed in
  let setups = List.init setup_children (fun _ -> spawn ~seed "setup") in
  let start = Probe.now () in
  (* A failed sweep process ends the run: it already fails it. *)
  let rec go acc =
    match acc with
    | { shards = []; _ } :: _ -> List.rev acc
    | _ :: _ when Probe.now () -. start >= seconds -> List.rev acc
    | _ -> go (spawn ~seed "sweep" :: acc)
  in
  let sweeps = go [] in
  let good = List.filter (fun t -> t.shards <> []) sweeps in
  let setup_times =
    List.filter Float.is_finite (List.map (fun t -> t.setup) (setups @ sweeps))
  in
  let checked =
    List.fold_left
      (fun acc t -> List.fold_left (fun acc s -> acc + s.checked) acc t.shards)
      0 sweeps
  in
  let failed =
    List.fold_left (fun acc t -> acc + sweep_failures t.shards) 0 sweeps
    + List.length (List.filter (fun t -> not (Float.is_finite t.setup)) setups)
  in
  let attempted = (List.length sweeps * expected_classes) + setup_children in
  let raw_rate t =
    float_of_int (List.fold_left (fun acc s -> acc + s.checked) 0 t.shards) /. t.wall
  in
  let rates = List.map (fun t -> raw_rate t /. scale t) good in
  (* With no sweep or probe left to time the run is already failed;
     0 keeps the result printable. *)
  let median l = if l = [] then 0.0 else Probe.median (Array.of_list l) in
  let rate = median rates in
  let blocks = match good with [] -> 0 | t :: _ -> List.length (List.hd t.shards).blocks in
  let latency q = if good = [] then 0.0 else latency_ms good q in
  let m = Probe.metric in
  {
    Probe.correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        m ~samples:checked "decisions_per_s" "1/s" rate;
        m ~samples:checked "schedules_per_s" "1/s" rate;
        m ~samples:blocks "latency_p50_ms" "ms" (latency 0.50);
        m ~samples:blocks "latency_p99_ms" "ms" (latency 0.99);
        m ~samples:(List.length setup_times) "setup_s" "s" (median setup_times);
        m "peak_rss_mb" "MiB" (Probe.peak_rss_mb ());
      ];
    notes =
      [
        Printf.sprintf
          "mc-sweep: %d sweeps of the canonical rwwc space n=%d max_f=%d max_round=%d on %d domains, one process each, proposals [%s]"
          (List.length sweeps) n max_f max_round domains
          (String.concat ";" (Array.to_list (Array.map string_of_int proposals)));
        Printf.sprintf "schedules/s per sweep, as measured: %s"
          (String.concat " " (List.map (fun t -> Printf.sprintf "%.0f" (raw_rate t)) good));
        Printf.sprintf "reference job per sweep (nominal %.2f s): %s" reference_nominal
          (String.concat " " (List.map (fun t -> Printf.sprintf "%.3f" t.reference) good));
        Printf.sprintf "schedules/s per sweep, at the reference speed: %s"
          (String.concat " " (List.map (Printf.sprintf "%.0f") rates));
        Printf.sprintf
          "failed_share = %d / %d (violations + class-count deviations from %d per sweep + failed set-up probes)"
          failed attempted expected_classes;
      ];
  }

(* {1 Traced sweep}: a span around every enumerator pull, engine run and
   property check, and around each pool shard, on a tracer per shard. *)

let traced_shard ~proposals ~shards ~shard =
  let run, ok = checker ~proposals in
  let tr = Probe.create ~on:true () in
  let l_pull = Probe.layer tr "canonical.pull"
  and l_run = Probe.layer tr "sync_sim.run"
  and l_check = Probe.layer tr "spec.check"
  and l_shard = Probe.layer tr "pool.shard" in
  let s0 = Probe.enter tr in
  let rec go seq k violations =
    let id = (k * shards) + shard in
    let t0 = Probe.enter tr in
    let node = seq () in
    Probe.leave tr l_pull ~id t0;
    match node with
    | Seq.Nil -> (k, violations)
    | Seq.Cons (schedule, rest) ->
      let t0 = Probe.enter tr in
      let res = run schedule in
      Probe.leave tr l_run ~id t0;
      let t0 = Probe.enter tr in
      let good = ok res in
      Probe.leave tr l_check ~id t0;
      go rest (k + 1) (if good then violations else violations + 1)
  in
  let checked, violations = go (space ~shards ~shard) 0 0 in
  Probe.leave tr l_shard ~id:shard s0;
  (tr, { checked; violations; blocks = [] })

let per_layer ~seed ~ws =
  let proposals = proposals ~seed in
  let plain_wall, plain = sweep ~proposals () in
  let t0 = Probe.now () in
  let traced = Parallel.Pool.shards ~domains (traced_shard ~proposals) in
  let traced_wall = Probe.now () -. t0 in
  let tracers = List.map fst traced in
  let checked = List.fold_left (fun acc (_, s) -> acc + s.checked) 0 traced in
  let failed = sweep_failures plain + sweep_failures (List.map snd traced) in
  let self name =
    float_of_int
      (List.fold_left (fun acc tr -> acc + (Probe.find tr name).Probe.self) 0 tracers)
    *. 1e-9
  in
  let per_schedule name = self name *. 1e6 /. float_of_int (max 1 checked) in
  let shard_busy =
    List.map (fun tr -> float_of_int (Probe.find tr "pool.shard").Probe.busy *. 1e-9)
      tracers
  in
  let busy = List.fold_left ( +. ) 0.0 shard_busy in
  let lo = List.fold_left Float.min infinity shard_busy
  and hi = List.fold_left Float.max 0.0 shard_busy in
  let spans_path = Filename.concat ws "spans.jsonl" in
  let oc = open_out spans_path in
  List.iteri (fun shard tr -> Probe.dump tr oc ~shard) tracers;
  close_out oc;
  let m = Probe.metric in
  {
    Probe.correct = failed = 0;
    attempted = checked + List.fold_left (fun acc s -> acc + s.checked) 0 plain;
    failed;
    metrics =
      [
        m ~samples:checked "canonical.us_per_schedule" "us" (per_schedule "canonical.pull");
        m ~samples:checked "sync_sim.us_per_run" "us" (per_schedule "sync_sim.run");
        m ~samples:checked "spec.us_per_check" "us" (per_schedule "spec.check");
        m ~samples:domains "pool.busy_share" "share"
          (busy /. (float_of_int domains *. traced_wall));
        m ~samples:domains "pool.shard_skew" "share"
          ((hi -. lo) /. (busy /. float_of_int domains));
        m "trace.overhead_share" "share" ((traced_wall /. plain_wall) -. 1.0);
        m "trace.accounted_share" "share"
          ((self "canonical.pull" +. self "sync_sim.run" +. self "spec.check") /. busy);
      ];
    notes =
      [
        Printf.sprintf
          "mc-sweep traced: untraced sweep %.3fs, traced sweep %.3fs, %d classes checked per sweep"
          plain_wall traced_wall checked;
        Printf.sprintf "spans: %s kept in %s"
          (String.concat " + " (List.map (fun tr -> string_of_int tr.Probe.logged) tracers))
          spans_path;
      ];
  }
