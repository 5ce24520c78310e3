type t =
  | Hello of { node : int }
  | Data of { instance : int; round : int; payload : string }
  | Ctl of { instance : int; round : int }
  | Submit of { instance : int; proposal : int }
  | Decide of { instance : int; value : int; round : int }
  | Catchup of { instance : int; value : int; round : int }

let magic0 = '\xFA'
let version = '\xD1'
let max_body = 65536
let max_instance = (1 lsl 30) - 1

(* Ints and strings only: structural equality is exact. *)
let equal (a : t) b = a = b

let pp ppf = function
  | Hello { node } -> Format.fprintf ppf "hello(p%d)" node
  | Data { instance; round; payload } ->
    Format.fprintf ppf "data(i%d,r%d,%d bytes)" instance round
      (String.length payload)
  | Ctl { instance; round } -> Format.fprintf ppf "ctl(i%d,r%d)" instance round
  | Submit { instance; proposal } ->
    Format.fprintf ppf "submit(i%d,v%d)" instance proposal
  | Decide { instance; value; round } ->
    Format.fprintf ppf "decide(i%d,v%d,r%d)" instance value round
  | Catchup { instance; value; round } ->
    Format.fprintf ppf "catchup(i%d,v%d,r%d)" instance value round

let add_be32 buf v = Buffer.add_int32_be buf (Int32.of_int v)
let set_be32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let be32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* Instance ids ride as LEB128 varints: 7 value bits per byte, low group
   first, high bit set on every byte but the last.  The common case — low
   ids in a fresh storm — costs one byte, and the cap at [max_instance]
   bounds decoding to five bytes. *)
let add_varint buf v =
  if v < 0 || v > max_instance then
    invalid_arg "Frame: instance id out of range";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let crc b ~pos ~len = Int32.to_int (Crc32.bytes b ~pos ~len) land 0xFFFFFFFF

(* Header with a zero length placeholder, then the body; the length is
   patched in and the CRC — over header and body, so a flipped magic,
   version or length byte is caught like a flipped body byte — appended. *)
let encode frame =
  let b = Buffer.create 32 in
  Buffer.add_char b magic0;
  Buffer.add_char b version;
  add_be32 b 0;
  let tagged tag instance =
    Buffer.add_char b tag;
    add_varint b instance
  in
  (match frame with
  | Hello { node } ->
    Buffer.add_char b '\x01';
    add_be32 b node
  | Data { instance; round; payload } ->
    tagged '\x02' instance;
    add_be32 b round;
    Buffer.add_string b payload
  | Ctl { instance; round } ->
    tagged '\x03' instance;
    add_be32 b round
  | Submit { instance; proposal } ->
    tagged '\x04' instance;
    add_be32 b proposal
  | Decide { instance; value; round } ->
    tagged '\x05' instance;
    add_be32 b round;
    add_be32 b value
  | Catchup { instance; value; round } ->
    tagged '\x06' instance;
    add_be32 b round;
    add_be32 b value);
  let len = Buffer.length b - 6 in
  if len > max_body then invalid_arg "Frame.encode: body too large";
  let out = Bytes.create (6 + len + 4) in
  Buffer.blit b 0 out 0 (6 + len);
  set_be32 out 2 len;
  set_be32 out (6 + len) (crc out ~pos:0 ~len:(6 + len));
  Bytes.unsafe_to_string out

(* --- Incremental decoding ------------------------------------------------- *)

type kind = K_hello | K_data | K_ctl | K_submit | K_decide | K_catchup

type view = {
  mutable kind : kind;
  mutable node : int;
  mutable instance : int;
  mutable round : int;
  mutable value : int;  (* Submit proposal / Decide value *)
  mutable payload_buf : Bytes.t;  (* Data only: window into the decoder *)
  mutable payload_pos : int;
  mutable payload_len : int;
}

type decoder = {
  mutable buf : Bytes.t;
  mutable start : int;  (* first unconsumed byte *)
  mutable stop : int;  (* one past the last valid byte *)
  mutable corrupt : string option;  (* sticky *)
  view : view;  (* reused across pops: no per-frame allocation *)
}

let decoder () =
  {
    buf = Bytes.create 1024;
    start = 0;
    stop = 0;
    corrupt = None;
    view =
      {
        kind = K_hello;
        node = 0;
        instance = 0;
        round = 0;
        value = 0;
        payload_buf = Bytes.empty;
        payload_pos = 0;
        payload_len = 0;
      };
  }

let buffered d = d.stop - d.start

let feed d s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Frame.feed: out of bounds";
  let avail = Bytes.length d.buf - d.stop in
  if avail < len then begin
    let live = buffered d in
    let need = live + len in
    if need <= Bytes.length d.buf then begin
      (* Compact in place: sliding the live tail left is cheaper than a
         fresh allocation and keeps the buffer — and any views into it —
         at a stable capacity on the warm path. *)
      Bytes.blit d.buf d.start d.buf 0 live;
      d.start <- 0;
      d.stop <- live
    end
    else begin
      let cap = max (2 * Bytes.length d.buf) need in
      let fresh = Bytes.create cap in
      Bytes.blit d.buf d.start fresh 0 live;
      d.buf <- fresh;
      d.start <- 0;
      d.stop <- live
    end
  end;
  Bytes.blit_string s pos d.buf d.stop len;
  d.stop <- d.stop + len

let feed_string d s = feed d s ~pos:0 ~len:(String.length s)

let fail d msg =
  d.corrupt <- Some msg;
  `Corrupt msg

(* Returns [Some (value, next_off)], or [None] on truncation, a group
   beyond five bytes, or a decoded value over [max_instance]. *)
let read_varint b ~off ~stop =
  let rec go acc shift off =
    if off >= stop || shift > 28 then None
    else
      let c = Char.code (Bytes.get b off) in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then
        if acc > max_instance then None else Some (acc, off + 1)
      else go acc (shift + 7) (off + 1)
  in
  go 0 0 off

(* Parse one CRC-validated body in place: [off..stop) inside [d.buf].
   Fills the decoder's reused [view]; Data payloads stay a window into the
   receive buffer.  Every kind but Hello carries a varint instance id
   followed by fixed fields (and, for Data, the payload). *)
let parse_body d ~off ~stop =
  let v = d.view in
  if stop - off < 1 then fail d "empty frame body"
  else
    match Bytes.get d.buf off with
    | '\x01' ->
      if stop - off <> 5 then fail d "hello body has the wrong size"
      else begin
        v.kind <- K_hello;
        v.node <- be32 d.buf (off + 1);
        `View v
      end
    | '\x02' .. '\x06' as tag -> (
      match read_varint d.buf ~off:(off + 1) ~stop with
      | None -> fail d "bad varint instance id"
      | Some (instance, off) -> (
        v.instance <- instance;
        let rest = stop - off in
        match tag with
        | '\x02' when rest >= 4 ->
          v.kind <- K_data;
          v.round <- be32 d.buf off;
          v.payload_buf <- d.buf;
          v.payload_pos <- off + 4;
          v.payload_len <- rest - 4;
          `View v
        | '\x03' when rest = 4 ->
          v.kind <- K_ctl;
          v.round <- be32 d.buf off;
          `View v
        | '\x04' when rest = 4 ->
          v.kind <- K_submit;
          v.value <- be32 d.buf off;
          `View v
        | ('\x05' | '\x06') when rest = 8 ->
          v.kind <- (if tag = '\x05' then K_decide else K_catchup);
          v.round <- be32 d.buf off;
          v.value <- be32 d.buf (off + 4);
          `View v
        | _ -> fail d "frame body does not match its kind"))
    | c -> fail d (Printf.sprintf "unknown frame kind 0x%02x" (Char.code c))

let pop_view d =
  match d.corrupt with
  | Some msg -> `Corrupt msg
  | None ->
    let live = buffered d in
    if live < 6 then `Need_more
    else if Bytes.get d.buf d.start <> magic0 then fail d "bad frame magic"
    else if Bytes.get d.buf (d.start + 1) <> version then
      fail d
        (Printf.sprintf "unknown frame version 0x%02x"
           (Char.code (Bytes.get d.buf (d.start + 1))))
    else
      let len = be32 d.buf (d.start + 2) in
      if len > max_body then
        fail d (Printf.sprintf "frame length %d exceeds limit %d" len max_body)
      else if live < 6 + len + 4 then `Need_more
      else begin
        let body = d.start + 6 in
        let declared = be32 d.buf (body + len) in
        let actual = crc d.buf ~pos:d.start ~len:(6 + len) in
        if declared <> actual then
          fail d
            (Printf.sprintf "CRC mismatch (wire %08x, computed %08x)" declared
               actual)
        else begin
          match parse_body d ~off:body ~stop:(body + len) with
          | `View v ->
            (* Consuming only moves indices, never bytes, so the view's
               payload window stays valid until the next [feed]. *)
            d.start <- body + len + 4;
            if d.start = d.stop then begin
              d.start <- 0;
              d.stop <- 0
            end;
            `View v
          | `Corrupt _ as c -> c
        end
      end

let view_payload v = Bytes.sub_string v.payload_buf v.payload_pos v.payload_len

let frame_of_view v =
  match v.kind with
  | K_hello -> Hello { node = v.node }
  | K_data ->
    Data { instance = v.instance; round = v.round; payload = view_payload v }
  | K_ctl -> Ctl { instance = v.instance; round = v.round }
  | K_submit -> Submit { instance = v.instance; proposal = v.value }
  | K_decide -> Decide { instance = v.instance; value = v.value; round = v.round }
  | K_catchup ->
    Catchup { instance = v.instance; value = v.value; round = v.round }

let pop d =
  match pop_view d with
  | `View v -> `Frame (frame_of_view v)
  | `Need_more -> `Need_more
  | `Corrupt msg -> `Corrupt msg

(* Every Hello encodes its node id in four bytes. *)
let hello_size = String.length (encode (Hello { node = 1 }))

let hello_of bytes =
  let d = decoder () in
  feed_string d bytes;
  match pop d with
  | `Frame (Hello { node }) -> Ok node
  | `Frame f -> Error (Format.asprintf "handshake: unexpected %a" pp f)
  | `Corrupt why -> Error ("handshake: " ^ why)
  | `Need_more -> Error "handshake: short hello"
