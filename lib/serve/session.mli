(** One served session: a durable engine session owned by a single
    worker thread, commanded through a lock-free MPSC mailbox — single
    ownership, with messages instead of locks around the engine.
    Connection threads call the operations below from any domain; every
    engine touch happens on the worker.

    Backpressure contract: {!enqueue_feed} atomically reserves the
    batch against the tuple backlog before the worker sees it, parking
    (with flow-control callbacks) until the worker makes room — so
    queued-but-unapplied tuples are bounded by
    [max (quota, largest single batch)] however many connections feed
    concurrently, and a slow session slows its clients instead of
    growing the heap. *)

open Jstar_core

type t

val start :
  name:string ->
  dir:string ->
  quota:int ->
  ?checkpoint_every:int ->
  ?fsync:Jstar_persist.Wal.fsync_policy ->
  ?placement:Placement.t ->
  Program.frozen ->
  Config.t ->
  t * Jstar_persist.Durable.status
(** Open (or recover) the durable session under [dir] and spawn its
    worker: on the least-loaded slot of [placement], where it stays
    until it exits, or without [placement] on the caller's domain.
    @raise Jstar_persist.Durable.Recovery_error when existing state
    fails validation. *)

val stop : t -> (unit, string) result
(** Drain-then-checkpoint shutdown: the worker applies every queued
    command, quiesces, checkpoints, closes the engine and exits; the
    mailbox rejects everything afterwards.  Joins the worker. *)

(** {2 Operations} *)

val enqueue_feed :
  t ->
  Tuple.t list ->
  on_pause:(int -> unit) ->
  on_resume:(int -> unit) ->
  (int, string) result
(** Atomically admit a feed batch against the quota and queue it;
    returns the tuple backlog {e including} this batch.  When the batch
    would overflow a non-empty backlog the call blocks until the worker
    catches up, invoking [on_pause] once going to sleep and [on_resume]
    once admitted (both receive the backlog at that moment) — the
    caller's Flow frames.  Completion is asynchronous — durability is
    confirmed by the next {!drain} watermark. *)

val drain : t -> (string list * Protocol.watermark, string) result
val digest : t -> (Protocol.digest_info, string) result
val checkpoint : t -> (unit, string) result

val fork : t -> dir:string -> (int, string) result
(** {!Jstar_persist.Durable.fork} on the worker: quiesce, checkpoint if
    diverged, hard-link the snapshot generation into [dir]. *)

val harvest : t -> (Jstar_persist.Wal.record list, string) result
(** The session's complete divergence — since its fork for a branch,
    since creation otherwise: its current WAL, re-read and CRC-checked,
    with the final watermark verified against the live output digest.
    Refused ([Error]) when a checkpoint has truncated that window
    (generation advanced past the {!Jstar_persist.Durable.fork_base},
    or past 0 for a root session): a checkpoint empties the WAL, and a
    partial window must never merge as if it were the whole story.
    Requires quiescence. *)

val replay : t -> Jstar_persist.Wal.record list -> (int * int, string) result
(** Feed a harvested divergence into this session, preserving the
    source's feed/drain rhythm.  Returns (tuples, drains) applied. *)

(** {2 Monitoring lanes} *)

val name : t -> string
val dir : t -> string
val tables : t -> Schema.t array
val quota : t -> int
val backlog : t -> int
val peak_backlog : t -> int
val tuples_in : t -> int
val feeds : t -> int
val drains : t -> int
val idle_seconds : t -> float
val touch : t -> unit
(** Reset the idle clock (any client activity). *)

val durable : t -> Jstar_persist.Durable.t
(** Monitoring-lane access (generation, WAL lag, fsync counters); the
    worker owns all state-changing calls. *)

(** {2 Connection bookkeeping (guarded by the server's registry lock)} *)

val attached : t -> int
val set_attached : t -> int -> unit
