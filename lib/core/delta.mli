(** The Delta tree: pending tuples of all tables in one multi-level
    priority structure ordered by the causality order, with duplicate
    elimination on insert.  An engine has exactly one, and it is the
    only place a put waits to run.

    Concurrency contract (matching the engine's step structure): any
    number of domains may {!insert} concurrently, but
    {!extract_min_class} must run with no concurrent operations. *)

type t

type mode = Sequential | Concurrent
(** Which family of data structures backs the tree levels: stdlib
    [Map]/[Hashtbl] (the paper's TreeMap path, single-threaded only) or
    the concurrent skip list / sharded hash map. *)

val create : mode:mode -> nlits:int -> unit -> t
(** [nlits] is the number of order literals at program freeze time; it
    fixes the width of named-branch arrays.  Leaf dedup tables are keyed
    directly by tuples with their cached structural hash
    ({!Tuple.Dset}); the legacy polymorphic (id, fields) tables are
    retired. *)

val insert : t -> Tuple.t -> Timestamp.t -> bool
(** Add a pending tuple under its timestamp.  Returns [false] (and
    leaves the tree unchanged) when an equal tuple is already pending. *)

val insert_batch : t -> Tuple.t array -> Timestamp.t array -> int -> bool array
(** [insert_batch t tuples tss n] inserts items [0..n-1] of the two
    parallel arrays at once (parallel arrays, not pairs, so batching
    buffers allocate nothing per put).  Each run of adjacent items on
    one tree path (structurally equal timestamps) pays a single descent
    and takes each leaf-shard lock at most once, so callers that keep
    same-timestamp puts together — one table's literal-orderby puts,
    one feed's batch — pay per run, not per tuple.  Result slot [i] is [true] iff item
    [i] was newly inserted; of several equal tuples in one batch, the
    first by input position wins.  Safe to run concurrently with
    {!insert}. *)

val extract_min_class : t -> Tuple.t list
(** Remove and return all minimal tuples — one equivalence class of the
    causality order, including every subtree of [par] levels.  Returns
    [[]] iff the tree is empty.  Single-threaded. *)

val size : t -> int
(** Number of pending tuples. *)

val is_empty : t -> bool

val inserted_total : t -> int
(** Lifetime count of successful inserts. *)

val deduped_total : t -> int
(** Lifetime count of duplicate tuples dropped on insert. *)

val note_deduped : t -> int -> unit
(** Add [k] duplicates dropped by an upstream dedup stage (a scratch
    arena that filtered them before insert) to the {!deduped_total}
    count, so the counter is the same whichever stage drops a
    duplicate. *)

val depth : t -> int
(** Depth of the deepest subtree still holding pending tuples (0 when
    empty) — a gauge for how far timestamps fan out at runtime.  Reads
    racing concurrent inserts may be off by a level; intended for
    metrics snapshots between steps. *)
