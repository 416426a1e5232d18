(* Write-ahead log: append-only frames over the Codec, group-commit
   buffering, and a reader that classifies how the file ends (clean /
   torn / corrupt) so recovery can pick the right prefix to trust. *)

exception Wal_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Wal_error s)) fmt

let magic = "JSTARWAL"
let version = 1
let header_len = String.length magic + 4 + 4 (* magic, version, schema hash *)

type fsync_policy = Always | Every of int | Every_ms of int | Never

let fsync_policy_of_string = function
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s when Filename.check_suffix s "ms" -> (
      match int_of_string_opt (Filename.chop_suffix s "ms") with
      | Some n when n > 0 -> Ok (Every_ms n)
      | _ -> Error "expected a positive window like 5ms")
  | s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Ok (Every n)
      | _ ->
          Error
            "expected always, never, a positive record count, or a window \
             like 5ms")

let pp_fsync_policy ppf = function
  | Always -> Format.pp_print_string ppf "always"
  | Never -> Format.pp_print_string ppf "never"
  | Every n -> Format.fprintf ppf "%d" n
  | Every_ms n -> Format.fprintf ppf "%dms" n

type watermark = {
  wm_step_no : int;
  wm_steps : int;
  wm_processed : int;
  wm_outputs_count : int;
  wm_seq_lanes : int * int;
  wm_out_lanes : int * int;
}

type record = Feed of Jstar_core.Tuple.t list | Watermark of watermark

let kind_feed = 1
and kind_watermark = 2

(* -- low-level io ---------------------------------------------------- *)

let write_all fd b off len =
  let off = ref off and remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write fd b !off !remaining in
    off := !off + n;
    remaining := !remaining - n
  done

let fsync_dir path =
  (* Make a create/rename durable: fsync the containing directory. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* -- writer ---------------------------------------------------------- *)

type writer = {
  path : string;
  fd : Unix.file_descr;
  buf : Buffer.t;  (* frames accumulated since the last commit *)
  policy : fsync_policy;
  mutable unsynced : int;  (* records committed but not yet fsynced *)
  mutable pending : int;  (* records sitting in [buf] *)
  mutable last_sync_ns : int;  (* when the file was last fsynced *)
  mutable fsyncs : int;  (* fsync calls since open *)
  mutable coalesced : int;  (* commits that left records unsynced *)
}

type lag = { lag_records : int; lag_seconds : float }

let lag w =
  {
    lag_records = w.unsynced + w.pending;
    lag_seconds =
      float_of_int (Jstar_obs.Monotonic.now_ns () - w.last_sync_ns) *. 1e-9;
  }

let header schema_hash =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  Codec.put_u32 b version;
  Codec.put_u32 b schema_hash;
  Buffer.to_bytes b

let create path ~schema_hash ~policy =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let h = header schema_hash in
  write_all fd h 0 (Bytes.length h);
  Unix.fsync fd;
  fsync_dir path;
  {
    path;
    fd;
    buf = Buffer.create 4096;
    policy;
    unsynced = 0;
    pending = 0;
    last_sync_ns = Jstar_obs.Monotonic.now_ns ();
    fsyncs = 0;
    coalesced = 0;
  }

let reopen path ~valid_to ~policy =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd valid_to;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  Unix.fsync fd;
  {
    path;
    fd;
    buf = Buffer.create 4096;
    policy;
    unsynced = 0;
    pending = 0;
    last_sync_ns = Jstar_obs.Monotonic.now_ns ();
    fsyncs = 0;
    coalesced = 0;
  }

let frame w kind payload =
  let b = Buffer.create (Bytes.length payload + 9) in
  Codec.put_u8 b kind;
  Codec.put_u32 b (Bytes.length payload);
  Buffer.add_bytes b payload;
  let framed = Buffer.to_bytes b in
  let crc = Crc32.bytes framed 0 (Bytes.length framed) in
  Buffer.add_bytes w.buf framed;
  Codec.put_u32 w.buf crc;
  w.pending <- w.pending + 1

let append_feed w tuples =
  let b = Buffer.create 128 in
  Codec.put_u32 b (List.length tuples);
  List.iter (Codec.encode_tuple b) tuples;
  frame w kind_feed (Buffer.to_bytes b)

let append_watermark w wm =
  let b = Buffer.create 72 in
  Codec.put_i64 b wm.wm_step_no;
  Codec.put_i64 b wm.wm_steps;
  Codec.put_i64 b wm.wm_processed;
  Codec.put_i64 b wm.wm_outputs_count;
  Codec.put_i64 b (fst wm.wm_seq_lanes);
  Codec.put_i64 b (snd wm.wm_seq_lanes);
  Codec.put_i64 b (fst wm.wm_out_lanes);
  Codec.put_i64 b (snd wm.wm_out_lanes);
  frame w kind_watermark (Buffer.to_bytes b)

let commit w =
  if w.pending > 0 then begin
    let b = Buffer.to_bytes w.buf in
    write_all w.fd b 0 (Bytes.length b);
    Buffer.clear w.buf;
    w.unsynced <- w.unsynced + w.pending;
    w.pending <- 0
  end;
  let fsync_now () =
    Unix.fsync w.fd;
    w.unsynced <- 0;
    w.fsyncs <- w.fsyncs + 1;
    w.last_sync_ns <- Jstar_obs.Monotonic.now_ns ()
  and skip () = if w.unsynced > 0 then w.coalesced <- w.coalesced + 1 in
  match w.policy with
  | Always -> if w.unsynced > 0 then fsync_now ()
  | Every n -> if w.unsynced >= n then fsync_now () else skip ()
  | Every_ms n ->
      (* Group-commit window: at most one fsync per [n] ms, however many
         sessions or records land inside the window. *)
      if
        w.unsynced > 0
        && Jstar_obs.Monotonic.now_ns () - w.last_sync_ns >= n * 1_000_000
      then fsync_now ()
      else skip ()
  | Never -> ()

let sync w =
  commit w;
  if w.unsynced > 0 then begin
    Unix.fsync w.fd;
    w.unsynced <- 0;
    w.fsyncs <- w.fsyncs + 1
  end;
  w.last_sync_ns <- Jstar_obs.Monotonic.now_ns ()

let fsyncs w = w.fsyncs
let coalesced_syncs w = w.coalesced

let close w =
  sync w;
  Unix.close w.fd

(* -- reader ---------------------------------------------------------- *)

type tail = Clean | Torn of int | Corrupt of int

let read_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let len = (Unix.fstat fd).Unix.st_size in
      let b = Bytes.create len in
      let off = ref 0 in
      while !off < len do
        let n = Unix.read fd b !off (len - !off) in
        if n = 0 then fail "%s: short read" path;
        off := !off + n
      done;
      b)

let decode_watermark payload =
  let pos = ref 0 in
  let g () = Codec.get_i64 payload pos in
  let wm_step_no = g () in
  let wm_steps = g () in
  let wm_processed = g () in
  let wm_outputs_count = g () in
  let seq_lo = g () in
  let seq_hi = g () in
  let out_lo = g () in
  let out_hi = g () in
  {
    wm_step_no;
    wm_steps;
    wm_processed;
    wm_outputs_count;
    wm_seq_lanes = (seq_lo, seq_hi);
    wm_out_lanes = (out_lo, out_hi);
  }

let decode_feed ~tables payload =
  let pos = ref 0 in
  let n = Codec.get_u32 payload pos in
  let out = ref [] in
  for _ = 1 to n do
    out := Codec.decode_tuple ~tables payload pos :: !out
  done;
  List.rev !out

let read path ~tables ~expect_hash =
  let b = read_file path in
  let len = Bytes.length b in
  if len < header_len then fail "%s: missing header" path;
  if Bytes.sub_string b 0 (String.length magic) <> magic then
    fail "%s: bad magic" path;
  let pos = ref (String.length magic) in
  let v = Codec.get_u32 b pos in
  if v <> version then fail "%s: unsupported WAL version %d" path v;
  let h = Codec.get_u32 b pos in
  if h <> expect_hash land 0xffffffff then
    fail "%s: schema hash mismatch (program changed?)" path;
  let records = ref [] in
  let tail = ref Clean in
  let p = ref header_len in
  (try
     while !p < len do
       let start = !p in
       if len - start < 5 then begin
         tail := Torn start;
         raise Exit
       end;
       let pos = ref start in
       let kind = Codec.get_u8 b pos in
       let plen = Codec.get_u32 b pos in
       if start + 5 + plen + 4 > len then begin
         tail := Torn start;
         raise Exit
       end;
       let crc_stored =
         let cp = ref (start + 5 + plen) in
         Codec.get_u32 b cp
       in
       if Crc32.bytes b start (5 + plen) <> crc_stored then begin
         tail := Corrupt start;
         raise Exit
       end;
       let payload = Bytes.sub b (start + 5) plen in
       let record =
         if kind = kind_feed then Feed (decode_feed ~tables payload)
         else if kind = kind_watermark then Watermark (decode_watermark payload)
         else begin
           (* CRC valid but unknown kind: written by a future version —
              treat like corruption and stop trusting the file here. *)
           tail := Corrupt start;
           raise Exit
         end
       in
       p := start + 5 + plen + 4;
       records := (record, !p) :: !records
     done
   with
  | Exit -> ()
  | Codec.Codec_error m ->
      (* frame intact but payload undecodable *)
      tail := Corrupt !p;
      ignore m);
  (List.rev !records, !tail)
