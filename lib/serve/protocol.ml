(* The jstar-serve wire protocol: length-prefixed binary frames in the
   WAL's framing style — [u8 kind][u32 len][payload][u32 crc32], CRC
   over kind + len + payload — carrying tuples through the persist
   Codec.  Both directions use the same frame shape; kinds 1–15 are
   client→server, 16+ server→client.

   Framing errors (bad CRC, oversized length, truncated frame, unknown
   kind, undecodable payload) raise [Frame_error]; the server answers
   with an [Err] frame and closes, never crashes — once framing is
   wrong the byte stream has no trustworthy resynchronisation point. *)

open Jstar_core
module Codec = Jstar_persist.Codec
module Crc32 = Jstar_persist.Crc32

exception Frame_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Frame_error s)) fmt
let version = 1

let max_payload = 1 lsl 22
(* 4 MiB: far above any sane feed batch, far below "attacker asked us
   to allocate the machine". *)

type client_frame =
  | Hello of { version : int; schema_hash : int }
  | Open of string
  | Feed of Tuple.t list
  | Drain
  | Branch of string
  | Merge of string
  | Digest
  | Checkpoint
  | Bye

type watermark = {
  w_steps : int;
  w_outputs : int;
  w_seq_lanes : int * int;
  w_out_lanes : int * int;
}

type digest_info = {
  d_gamma : string;  (** Gamma fingerprint, 32 hex digits *)
  d_outputs : int;
  d_seq_lanes : int * int;
  d_out_lanes : int * int;
}

type server_frame =
  | Welcome of { version : int; schema_hash : int; max_payload : int }
  | Okay of string
  | Fed of { accepted : int; backlog : int }
  | Drained of { lines : string list; mark : watermark }
  | Digests of digest_info
  | Flow of { pause : bool; backlog : int }
  | Err of { code : int; msg : string }

(* Error codes — mnemonic over machinery. *)
let err_bad_frame = 1
let err_no_session = 2
let err_capacity = 3
let err_shutting_down = 4
let err_bad_name = 5
let err_merge = 6
let err_conflict = 7
let err_handshake = 8

(* -- kinds ------------------------------------------------------------- *)

let k_hello = 1
and k_open = 2
and k_feed = 3
and k_drain = 4
and k_branch = 5
and k_merge = 6
and k_digest = 7
and k_checkpoint = 8
and k_bye = 9

let k_welcome = 16
and k_okay = 17
and k_fed = 18
and k_drained = 19
and k_digests = 20
and k_flow = 21
and k_err = 22

(* -- framing ----------------------------------------------------------- *)

let add_frame buf kind payload =
  let framed = Buffer.create (Bytes.length payload + 5) in
  Codec.put_u8 framed kind;
  Codec.put_u32 framed (Bytes.length payload);
  Buffer.add_bytes framed payload;
  let framed = Buffer.to_bytes framed in
  Buffer.add_bytes buf framed;
  Codec.put_u32 buf (Crc32.bytes framed 0 (Bytes.length framed))

(* Pull one frame out of [b]'s bytes [!pos, limit).  [`Incomplete]
   means the bytes so far are a valid prefix of a frame — read more. *)
let frame_in b pos ~limit =
  let len = limit - !pos in
  if len < 5 then `Incomplete
  else begin
    let p = ref !pos in
    let kind = Codec.get_u8 b p in
    let plen = Codec.get_u32 b p in
    if plen > max_payload then fail "oversized frame (%d bytes)" plen;
    if len < 5 + plen + 4 then `Incomplete
    else begin
      let crc_stored =
        let cp = ref (!pos + 5 + plen) in
        Codec.get_u32 b cp
      in
      if Crc32.bytes b !pos (5 + plen) <> crc_stored then
        fail "bad frame CRC";
      let payload = Bytes.sub b (!pos + 5) plen in
      pos := !pos + 5 + plen + 4;
      `Frame (kind, payload)
    end
  end

let read_frame_bytes b pos = frame_in b pos ~limit:(Bytes.length b)

(* -- encoding ---------------------------------------------------------- *)

let payload_of f =
  let b = Buffer.create 64 in
  f b;
  Buffer.to_bytes b

let write_client buf frame =
  let kind, payload =
    match frame with
    | Hello { version; schema_hash } ->
        ( k_hello,
          payload_of (fun b ->
              Codec.put_u32 b version;
              Codec.put_u32 b (schema_hash land 0xffffffff)) )
    | Open name -> (k_open, payload_of (fun b -> Codec.put_string b name))
    | Feed tuples ->
        ( k_feed,
          payload_of (fun b ->
              Codec.put_u32 b (List.length tuples);
              List.iter (Codec.encode_tuple b) tuples) )
    | Drain -> (k_drain, Bytes.empty)
    | Branch name -> (k_branch, payload_of (fun b -> Codec.put_string b name))
    | Merge name -> (k_merge, payload_of (fun b -> Codec.put_string b name))
    | Digest -> (k_digest, Bytes.empty)
    | Checkpoint -> (k_checkpoint, Bytes.empty)
    | Bye -> (k_bye, Bytes.empty)
  in
  add_frame buf kind payload

let put_watermark b m =
  Codec.put_i64 b m.w_steps;
  Codec.put_i64 b m.w_outputs;
  Codec.put_i64 b (fst m.w_seq_lanes);
  Codec.put_i64 b (snd m.w_seq_lanes);
  Codec.put_i64 b (fst m.w_out_lanes);
  Codec.put_i64 b (snd m.w_out_lanes)

let get_watermark b pos =
  let g () = Codec.get_i64 b pos in
  let w_steps = g () in
  let w_outputs = g () in
  let seq_lo = g () in
  let seq_hi = g () in
  let out_lo = g () in
  let out_hi = g () in
  { w_steps; w_outputs; w_seq_lanes = (seq_lo, seq_hi);
    w_out_lanes = (out_lo, out_hi) }

let write_server buf frame =
  let kind, payload =
    match frame with
    | Welcome { version; schema_hash; max_payload } ->
        ( k_welcome,
          payload_of (fun b ->
              Codec.put_u32 b version;
              Codec.put_u32 b (schema_hash land 0xffffffff);
              Codec.put_u32 b max_payload) )
    | Okay info -> (k_okay, payload_of (fun b -> Codec.put_string b info))
    | Fed { accepted; backlog } ->
        ( k_fed,
          payload_of (fun b ->
              Codec.put_u32 b accepted;
              Codec.put_u32 b backlog) )
    | Drained { lines; mark } ->
        ( k_drained,
          payload_of (fun b ->
              Codec.put_u32 b (List.length lines);
              List.iter (Codec.put_string b) lines;
              put_watermark b mark) )
    | Digests d ->
        ( k_digests,
          payload_of (fun b ->
              Codec.put_string b d.d_gamma;
              Codec.put_i64 b d.d_outputs;
              Codec.put_i64 b (fst d.d_seq_lanes);
              Codec.put_i64 b (snd d.d_seq_lanes);
              Codec.put_i64 b (fst d.d_out_lanes);
              Codec.put_i64 b (snd d.d_out_lanes)) )
    | Flow { pause; backlog } ->
        ( k_flow,
          payload_of (fun b ->
              Codec.put_u8 b (if pause then 1 else 0);
              Codec.put_u32 b backlog) )
    | Err { code; msg } ->
        ( k_err,
          payload_of (fun b ->
              Codec.put_u32 b code;
              Codec.put_string b msg) )
  in
  add_frame buf kind payload

(* -- decoding ---------------------------------------------------------- *)

let wrap_codec f =
  try f () with Jstar_persist.Codec.Codec_error m -> fail "bad payload: %s" m

let decode_client ~tables kind payload =
  wrap_codec (fun () ->
      let pos = ref 0 in
      if kind = k_hello then
        let version = Codec.get_u32 payload pos in
        let schema_hash = Codec.get_u32 payload pos in
        Hello { version; schema_hash }
      else if kind = k_open then Open (Codec.get_string payload pos)
      else if kind = k_feed then begin
        let n = Codec.get_u32 payload pos in
        let out = ref [] in
        for _ = 1 to n do
          out := Codec.decode_tuple ~tables payload pos :: !out
        done;
        Feed (List.rev !out)
      end
      else if kind = k_drain then Drain
      else if kind = k_branch then Branch (Codec.get_string payload pos)
      else if kind = k_merge then Merge (Codec.get_string payload pos)
      else if kind = k_digest then Digest
      else if kind = k_checkpoint then Checkpoint
      else if kind = k_bye then Bye
      else fail "unknown client frame kind %d" kind)

let decode_server kind payload =
  wrap_codec (fun () ->
      let pos = ref 0 in
      if kind = k_welcome then
        let version = Codec.get_u32 payload pos in
        let schema_hash = Codec.get_u32 payload pos in
        let max_payload = Codec.get_u32 payload pos in
        Welcome { version; schema_hash; max_payload }
      else if kind = k_okay then Okay (Codec.get_string payload pos)
      else if kind = k_fed then begin
        let accepted = Codec.get_u32 payload pos in
        let backlog = Codec.get_u32 payload pos in
        Fed { accepted; backlog }
      end
      else if kind = k_drained then begin
        let n = Codec.get_u32 payload pos in
        let lines = List.init n (fun _ -> Codec.get_string payload pos) in
        Drained { lines; mark = get_watermark payload pos }
      end
      else if kind = k_digests then begin
        let d_gamma = Codec.get_string payload pos in
        let d_outputs = Codec.get_i64 payload pos in
        let seq_lo = Codec.get_i64 payload pos in
        let seq_hi = Codec.get_i64 payload pos in
        let out_lo = Codec.get_i64 payload pos in
        let out_hi = Codec.get_i64 payload pos in
        Digests
          {
            d_gamma;
            d_outputs;
            d_seq_lanes = (seq_lo, seq_hi);
            d_out_lanes = (out_lo, out_hi);
          }
      end
      else if kind = k_flow then begin
        let pause = Codec.get_u8 payload pos = 1 in
        let backlog = Codec.get_u32 payload pos in
        Flow { pause; backlog }
      end
      else if kind = k_err then begin
        let code = Codec.get_u32 payload pos in
        let msg = Codec.get_string payload pos in
        Err { code; msg }
      end
      else fail "unknown server frame kind %d" kind)

(* -- socket io --------------------------------------------------------- *)

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable off : int;  (* first unconsumed byte of [buf] *)
  mutable len : int;  (* end of the bytes read into [buf] *)
}

let reader fd = { fd; buf = Bytes.create 8192; off = 0; len = 0 }

(* Read more bytes after [len], first sliding the unconsumed tail to
   the front (or doubling [buf] when the tail already fills it). *)
let refill r =
  if r.off > 0 then begin
    Bytes.blit r.buf r.off r.buf 0 (r.len - r.off);
    r.len <- r.len - r.off;
    r.off <- 0
  end;
  if r.len = Bytes.length r.buf then
    r.buf <- Bytes.extend r.buf 0 (Bytes.length r.buf);
  match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
  | 0 -> false
  | n ->
      r.len <- r.len + n;
      true

(* Read one frame, parsed where it lies in [buf]; [None] on a clean EOF
   between frames.  EOF inside a frame is a torn stream — an error, not
   a shutdown. *)
let rec read_frame r =
  let pos = ref r.off in
  match frame_in r.buf pos ~limit:r.len with
  | `Frame (kind, payload) ->
      r.off <- !pos;
      Some (kind, payload)
  | `Incomplete ->
      if refill r then read_frame r
      else if r.len = r.off then None
      else fail "connection closed mid-frame"

let write_all fd b =
  let off = ref 0 in
  while !off < Bytes.length b do
    let n = Unix.write fd b !off (Bytes.length b - !off) in
    if n = 0 then fail "connection closed mid-write";
    off := !off + n
  done

let send_client fd frame =
  let b = Buffer.create 256 in
  write_client b frame;
  write_all fd (Buffer.to_bytes b)

let send_server fd frame =
  let b = Buffer.create 256 in
  write_server b frame;
  write_all fd (Buffer.to_bytes b)
