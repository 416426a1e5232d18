(** Shared-nothing sharded execution: single-owner tuple-space shards
    with cross-shard message passing (the IronFleet sharded-hash-table
    model — SNIPPETS.md snippet 2, ROADMAP item 2).

    Every tuple has exactly one owner shard ([hash mod N]).  Pending
    tuples live in per-shard sequential Delta trees touched only by
    their owner (one drain task per shard between fork/join barriers;
    extraction on the driving domain), so sharded runs need no
    cross-domain locking on the pending structures at all.  Producers
    ship Delta-bound puts as messages onto the owner's lock-free
    mailbox; the engine drains all mailboxes at the step barrier — the
    cross-shard watermark exchange — before the timestamp advances.

    Because the law of causality makes results schedule-independent,
    message reorderings between shards cannot change the class
    sequence: digests, output streams and lineage are bit-identical to
    unsharded runs (asserted by [test_shards] and [bench/shards.ml]). *)

type t

type msg = {
  m_tuples : Tuple.t array;
  m_ts : Timestamp.t array;
  m_len : int;
  m_src : int;  (** producing shard, or [-1] when unknown *)
  m_seq : int;  (** globally unique send stamp, one shared counter *)
}
(** One mailbox message: a batch of tuples and their timestamps (the
    first [m_len] slots), stamped with its producer and a globally
    unique sequence number.  The stamp binds the send/recv halves of
    the trace flow pair and totally orders messages across shards in a
    diagnostic bundle; the arrays belong to the message. *)

val create :
  shards:int -> nlits:int -> ts_of:(Tuple.t -> Timestamp.t) -> unit -> t
(** [shards] is clamped to at least 1; [nlits] sizes the per-shard
    Delta literal arrays; [ts_of] recomputes a pending tuple's
    timestamp during the extraction merge (pass the engine's memoised
    projection so literal-only tables hit the constant-array fast
    path). *)

val count : t -> int
val owner_of : t -> Tuple.t -> int
val delta : t -> int -> Delta.t
(** Shard [k]'s pending tree — for the owner's drain task only. *)

val post : t -> from:int -> dest:int -> Tuple.t array -> Timestamp.t array -> int -> unit
(** Ship a message to [dest]'s mailbox, taking ownership of the
    arrays.  [from] is the producing shard, or [-1] when unknown
    (external feeds, initial puts, action handlers); a known [from <>
    dest] counts as cross-shard traffic.  Every message draws the next
    sequence stamp and is reported to the {!set_on_post} observer. *)

val set_on_post : t -> (src:int -> dest:int -> seq:int -> len:int -> unit) -> unit
(** Install the post observer, called on the producing domain after
    each push with the message's stamp — the engine's flow-send trace
    emission.  Purely observational: it must not touch engine state.
    One observer; installing replaces the previous. *)

val post_partitioned :
  t -> from:int -> Tuple.t array -> Timestamp.t array -> int -> unit
(** Partition the first [len] slots of a caller-owned buffer by owner
    and ship one message per destination (fresh arrays; the buffer can
    be reused immediately). *)

val drain : t -> int -> f:(msg -> unit) -> unit
(** Drain shard [k]'s mailbox FIFO until empty, calling [f] per
    message.  Must run on shard [k]'s owner task. *)

val backlog_total : t -> int
(** Messages currently queued across all mailboxes. *)

val quiesced : t -> bool
(** All mailboxes empty — the watermark condition. *)

val size : t -> int
(** Pending tuples across all shard Deltas. *)

val depth : t -> int
val inserted_total : t -> int
val deduped_total : t -> int

val note_deduped : t -> int -> unit
(** Upstream dedup drops (scratch arenas), folded into
    {!deduped_total} like [Delta.note_deduped]. *)

val occupancy : t -> int array
(** Per-shard pending counts — the occupancy lanes. *)

val backlogs : t -> int array
(** Per-shard queued message counts. *)

val msgs_posted : t -> int
val msgs_posted_to : t -> int -> int
val msgs_cross : t -> int
(** Messages whose producer shard was known and differed from the
    owner. *)

val tuples_shipped : t -> int
val tuples_cross : t -> int

val extract_min_class : t -> Tuple.t list
(** Remove and return the globally minimal equivalence class: each
    non-empty shard surrenders its local minimal class, a recursive
    component-wise select (same descent rules as [Delta.extract])
    keeps the global class, and losers are re-inserted counter-free
    into their owner's tree.  Single-threaded, with all mailboxes
    drained ({!quiesced}). *)

val gamma_router : owner:(Tuple.t -> int) -> Store.t array -> Store.t
(** One logical Gamma store fanned over per-shard sub-stores: point
    operations route by owner, scans and probes visit shards in index
    order (so probe/scan consistency survives sharding), batches are
    repartitioned preserving input order within each shard.  With a
    single sub-store, returns it unchanged. *)
