(** The write-ahead log.

    Input tuples are appended here (a [Feed] record) before they enter
    the Delta set; every drain writes a [Watermark] record carrying the
    session's scalar state and its determinism digests.  On restart the
    log is replayed through the normal feed/drain path, and each
    replayed drain is checked against its watermark's digests.

    Frame format (all integers little-endian):
    {v [u8 kind][u32 len][payload: len bytes][u32 crc32] v}
    with the CRC covering kind, len and payload.  The file starts with
    a magic + version + schema-hash header.  A record that stops short
    of a full frame is a {e torn tail} (the expected shape of a crash
    mid-append); a complete frame whose CRC fails is {e corruption}. *)

exception Wal_error of string
(** Bad magic, unsupported version, or schema-hash mismatch. *)

type fsync_policy =
  | Always  (** fsync on every commit — full durability *)
  | Every of int  (** fsync once per [n] records — bounded loss window *)
  | Every_ms of int
      (** group-commit window: a commit fsyncs only when [n]
          milliseconds have passed since this log's last sync, so the
          commits inside a window share the next one.  That sync runs
          inside a later commit, never on a timer: an idle log's last
          commits stay unsynced until its next commit, {!sync} or
          {!close} (a checkpoint or session close), so the loss window
          is bounded in time only while commits keep arriving *)
  | Never  (** leave durability to the OS page cache *)

type watermark = {
  wm_step_no : int;
  wm_steps : int;
  wm_processed : int;
  wm_outputs_count : int;
  wm_seq_lanes : int * int;  (** class-sequence digest after this drain *)
  wm_out_lanes : int * int;  (** output-stream digest after this drain *)
}

type record = Feed of Jstar_core.Tuple.t list | Watermark of watermark

val header_len : int
(** Byte length of the file header — the truncation offset that keeps
    nothing. *)

(** {1 Writing} *)

type writer

val create : string -> schema_hash:int -> policy:fsync_policy -> writer
(** Create (truncating) and write the header, fsync it, and fsync the
    containing directory so the file name itself is durable. *)

val reopen : string -> valid_to:int -> policy:fsync_policy -> writer
(** Open an existing log for appending after recovery, truncating any
    torn or corrupt suffix at byte offset [valid_to] first. *)

val append_feed : writer -> Jstar_core.Tuple.t list -> unit
(** Buffer a [Feed] record (group commit: frames accumulate and reach
    the file in one write at the next {!commit}). *)

val append_watermark : writer -> watermark -> unit

val commit : writer -> unit
(** Write buffered frames and apply the fsync policy. *)

val sync : writer -> unit
(** Commit and force an fsync regardless of policy (checkpoint edge). *)

val close : writer -> unit

type lag = { lag_records : int; lag_seconds : float }
(** Durability exposure right now: records appended but not yet
    fsynced (buffered or written), and seconds since the file was last
    fsynced (since open when it never was).  A monitoring lane for the
    ops heartbeat — under [Never] the age grows without bound, which is
    exactly the signal. *)

val lag : writer -> lag

val fsyncs : writer -> int
(** fsync calls issued since open (policy-driven and forced). *)

val coalesced_syncs : writer -> int
(** Commits that left records unsynced because the policy coalesced
    them into a later sync — the group-commit win: each one is an fsync
    (~27 µs/tuple under [Always] on the bench box) not paid. *)

(** {1 Reading} *)

type tail =
  | Clean  (** file ends exactly on a frame boundary *)
  | Torn of int  (** incomplete final frame starting at this offset *)
  | Corrupt of int  (** complete frame with a bad CRC at this offset *)

val read :
  string ->
  tables:Jstar_core.Schema.t array ->
  expect_hash:int ->
  (record * int) list * tail
(** Parse the log: every fully-valid record paired with the byte offset
    just past its frame (the truncation point that keeps it), plus how
    the file ends.  Stops at the first bad frame; the caller decides how
    far to trust the prefix (torn tail: keep everything; corruption:
    fall back to the last watermark).  @raise Wal_error on a bad
    header. *)
