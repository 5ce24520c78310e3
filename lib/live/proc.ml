type exit = Exited of int | Signaled of int | Stop_killed

(* Parent-side pipe ends of every live child, closed first thing in each
   freshly forked child.  Closing always goes through [close_parent_fd] so
   a recycled descriptor number is never closed out from under a later
   child. *)
let parent_fds = ref []

let close_parent_fd fd =
  parent_fds := List.filter (fun f -> f <> fd) !parent_fds;
  try Unix.close fd with Unix.Unix_error _ -> ()

let append_fatal log e =
  try
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 log in
    Printf.fprintf oc "fatal: %s\n" (Printexc.to_string e);
    close_out oc
  with _ -> ()

let fork ?log body =
  match Unix.fork () with
  | 0 ->
    let code =
      try
        List.iter
          (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
          !parent_fds;
        parent_fds := [];
        body ()
      with e ->
        Option.iter (fun log -> append_fatal log e) log;
        3
    in
    Unix._exit code
  | pid -> pid

let rec waitpid flags pid =
  match Unix.waitpid (Unix.WUNTRACED :: flags) pid with
  | 0, _ -> None
  | _, Unix.WSTOPPED _ ->
    (* a node at its scripted crash point: answer the self-stop with the
       real kill *)
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid [] pid);
    Some Stop_killed
  | _, Unix.WEXITED code -> Some (Exited code)
  | _, Unix.WSIGNALED s -> Some (Signaled s)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Exited 0)

let wait pid = Option.get (waitpid [] pid)

let terminate pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid [] pid)

(* --- Supervised children ------------------------------------------------- *)

type ends = { status : out_channel; go : in_channel }

type 'a child = {
  node : int;
  state : 'a;
  log : string option;
  mutable pid : int;
  mutable status_fd : Unix.file_descr option;
  mutable go_fd : Unix.file_descr option;
  buf : Buffer.t;
  mutable ready : bool;
  mutable exit : exit option;
}

let close_fds c =
  Option.iter close_parent_fd c.status_fd;
  Option.iter close_parent_fd c.go_fd;
  c.status_fd <- None;
  c.go_fd <- None

let respawn c body =
  close_fds c;
  let status_r, status_w = Unix.pipe () in
  let go_r, go_w = Unix.pipe () in
  parent_fds := status_r :: go_w :: !parent_fds;
  c.pid <-
    fork ?log:c.log (fun () ->
        body
          {
            status = Unix.out_channel_of_descr status_w;
            go = Unix.in_channel_of_descr go_r;
          };
        0);
  Unix.close status_w;
  Unix.close go_r;
  c.status_fd <- Some status_r;
  c.go_fd <- Some go_w;
  Buffer.clear c.buf;
  c.ready <- false;
  c.exit <- None

let spawn ?log ~node state body =
  let c =
    {
      node;
      state;
      log;
      pid = 0;
      status_fd = None;
      go_fd = None;
      buf = Buffer.create 256;
      ready = false;
      exit = None;
    }
  in
  respawn c body;
  c

let mark_ready c = c.ready <- true

let split_lines on_line c =
  let s = Buffer.contents c.buf in
  let rec go start =
    match String.index_from_opt s start '\n' with
    | Some i ->
      on_line c (String.sub s start (i - start));
      go (i + 1)
    | None ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s start (String.length s - start)
  in
  go 0

let read_status on_line c fd =
  let chunk = Bytes.create 4096 in
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 ->
    close_parent_fd fd;
    c.status_fd <- None
  | k ->
    Buffer.add_subbytes c.buf chunk 0 k;
    split_lines on_line c
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    ()

let pump ~timeout ~on_line children =
  let fds = Array.to_list children |> List.filter_map (fun c -> c.status_fd) in
  if fds = [] then (
    if timeout > 0.0 then Sockets.sleep_until (Sockets.now () +. timeout))
  else
    match Unix.select fds [] [] timeout with
    | [], _, _ -> ()
    | ready, _, _ ->
      Array.iter
        (fun c ->
          match c.status_fd with
          | Some fd when List.mem fd ready -> read_status on_line c fd
          | _ -> ())
        children
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let reap c =
  (if c.exit = None then c.exit <- waitpid [ Unix.WNOHANG ] c.pid);
  c.exit

let kill c =
  c.exit = None
  &&
  match Unix.kill c.pid Sys.sigkill with
  | () -> true
  | exception Unix.Unix_error _ -> false

let stop c =
  if c.exit = None then begin
    terminate c.pid;
    c.exit <- Some (Signaled Sys.sigkill)
  end

let send c line =
  match c.go_fd with
  | None -> ()
  | Some fd -> (
    try ignore (Unix.write_substring fd line 0 (String.length line))
    with Unix.Unix_error _ -> ())

type budget = { limit : int; backoff : float; mutable spent : int }

let budget ~limit ~backoff = { limit; backoff; spent = 0 }

let charge b =
  if b.spent >= b.limit then None
  else begin
    let delay = b.backoff *. Float.of_int (1 lsl b.spent) in
    b.spent <- b.spent + 1;
    Some delay
  end

let spent b = b.spent

let teardown ~unlink children =
  Array.iter
    (fun c ->
      stop c;
      close_fds c)
    children;
  List.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ()) unlink

(* seconds each startup attempt may take to get every node ready *)
let startup_timeout = 15.0

let supervise ?(unlink = []) ~n ~spawn ~budget ~on_line ~on_restart drive =
  let children = ref [||] in
  (* one at a time, so a failing fork still leaves its elders to the
     teardown *)
  let spawn_all () =
    children := [||];
    for i = 1 to n do
      children := Array.append !children [| spawn i |]
    done
  in
  let rec await_ready deadline =
    let kids = !children in
    if Array.for_all (fun c -> c.ready) kids then Ok ()
    else if Sockets.now () > deadline then
      Error "startup timeout — not every node became ready"
    else begin
      pump ~timeout:0.05 ~on_line kids;
      match Array.find_opt (fun c -> reap c <> None) kids with
      | None -> await_ready deadline
      | Some dead -> (
        match charge budget with
        | None ->
          Error
            (Printf.sprintf
               "node %d died during startup (respawn budget %d exhausted)"
               dead.node budget.limit)
        | Some delay ->
          teardown ~unlink kids;
          Sockets.sleep_until (Sockets.now () +. delay);
          spawn_all ();
          on_restart ~died:dead.node ~attempt:budget.spent;
          await_ready (Sockets.now () +. startup_timeout))
    end
  in
  let result =
    try
      spawn_all ();
      match await_ready (Sockets.now () +. startup_timeout) with
      | Error _ as e -> e
      | Ok () -> drive !children
    with e -> Error (Printexc.to_string e)
  in
  teardown ~unlink !children;
  result

let halt () =
  Unix.kill (Unix.getpid ()) Sys.sigstop;
  let rec forever () =
    ignore (Unix.sleep 3600);
    forever ()
  in
  forever ()

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && dir <> "" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let vlog verbose tag fmt =
  Printf.ksprintf
    (fun s -> if verbose then Printf.eprintf "%s: %s\n%!" tag s)
    fmt
