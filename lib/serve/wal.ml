let magic = "SAWL"
(* 2: entries are frames whose CRC covers the frame header as well as the
   body, so a version-1 log reads as "unknown version", not as torn. *)
let version = 2
let header_len = 12

type t = { fd : Unix.file_descr; mutable appended : int }
type entry = { instance : int; value : int; round : int }
type recovery = { entries : entry list; discarded : int }

let path ~dir ~node = Filename.concat dir (Printf.sprintf "wal-p%d.bin" node)

let be32 s off = Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF

let header ~node =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  Buffer.add_int32_be b (Int32.of_int version);
  Buffer.add_int32_be b (Int32.of_int node);
  Buffer.contents b

let check_header ~node s =
  if String.length s < header_len then Error "wal: file shorter than header"
  else if String.sub s 0 4 <> magic then Error "wal: bad magic"
  else if be32 s 4 <> version then
    Error (Printf.sprintf "wal: unknown version %d" (be32 s 4))
  else if be32 s 8 <> node then
    Error (Printf.sprintf "wal: log belongs to node %d, not %d" (be32 s 8) node)
  else Ok ()

(* Pop CRC-valid Decide frames off the byte stream after the header.  The
   first byte the decoder cannot account for — a torn tail, a flipped bit,
   or a valid frame of a kind the writer never emits — ends the scan; the
   entries popped before it are the recovered prefix. *)
let scan bytes =
  let dec = Live.Frame.decoder () in
  Live.Frame.feed dec bytes ~pos:header_len
    ~len:(String.length bytes - header_len);
  let rec go acc =
    (* Measured before the pop: a wrong-kind frame is consumed by [pop]
       but still belongs to the rejected suffix. *)
    let unread = Live.Frame.buffered dec in
    match Live.Frame.pop dec with
    | `Frame (Live.Frame.Decide { instance; value; round }) ->
      go ({ instance; value; round } :: acc)
    | `Frame _ | `Corrupt _ | `Need_more ->
      { entries = List.rev acc; discarded = unread }
  in
  go []

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let load ~path ~node =
  match read_file path with
  | None -> Ok { entries = []; discarded = 0 }
  | Some bytes -> (
    match check_header ~node bytes with
    | Error _ as e -> e
    | Ok () -> Ok (scan bytes))

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

let recover ~path ~node =
  let fresh () =
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    write_all fd (header ~node);
    Unix.fsync fd;
    ({ fd; appended = 0 }, { entries = []; discarded = 0 })
  in
  match read_file path with
  | None -> Ok (fresh ())
  | Some bytes -> (
    match check_header ~node bytes with
    | Error _ as e -> e
    | Ok () ->
      let r = scan bytes in
      let keep = String.length bytes - r.discarded in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      if r.discarded > 0 then begin
        Unix.ftruncate fd keep;
        Unix.fsync fd
      end;
      ignore (Unix.lseek fd keep Unix.SEEK_SET);
      Ok ({ fd; appended = 0 }, r))

let append t ~instance ~value ~round =
  write_all t.fd (Live.Frame.encode (Live.Frame.Decide { instance; value; round }));
  Unix.fsync t.fd;
  t.appended <- t.appended + 1

let appended t = t.appended
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
