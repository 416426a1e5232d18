(** Low-overhead span tracer: a fixed-size event ring per domain,
    timestamped with the {!Monotonic} clock, no locks on the recording
    path, and a dropped-event count once a ring wraps.

    With the tracer below [Spans] every recording entry point is a
    single branch and allocates nothing, so instrumentation can stay in
    place in production code paths. *)

type t

val create :
  ?capacity:int ->
  ?suppress:Kind.t list ->
  ?sample:int ->
  level:Level.t ->
  unit ->
  t
(** [capacity] is events per domain ring (default 65536, rounded up to
    a power of two).  [suppress] lists kinds that are never recorded
    even at [Spans] level — the per-kind enable mask that lets a
    rule-fire-heavy run keep [step]/[extract] spans while dropping the
    per-task [rule_fire] events.  [sample] (default 1) records only
    every [N]-th event of each unmasked kind, per domain — the first
    event of each window is kept, so rare kinds still appear.
    @raise Invalid_argument when [sample < 1]. *)

val disabled : t
(** A shared [Off] tracer for components instrumented unconditionally
    (e.g. a pool created without one). *)

val level : t -> Level.t
val spans_on : t -> bool
val counters_on : t -> bool

val set_suppressed : t -> Kind.t list -> unit
(** Replace the suppress mask.  Not synchronized with recorders: meant
    for quiescent points (before a run, at a barrier). *)

val suppressed : t -> Kind.t -> bool

val enabled : t -> Kind.t -> bool
(** [spans_on t && not (suppressed t k)] — hot sites cache this per
    kind instead of re-testing the mask per event. *)

(** {1 Recording} *)

val instant : t -> ?arg:int -> Kind.t -> unit
(** A point event (steal, spawn…). *)

val start : t -> int
(** Timestamp for a span about to open; [0] when spans are off. *)

val stop : t -> ?arg:int -> Kind.t -> int -> unit
(** [stop t kind t0] records the span opened at [start]'s [t0],
    closing now. *)

val record_span : t -> ?arg:int -> Kind.t -> ts:int -> dur:int -> unit
(** Record a span from timestamps the caller already read (avoids a
    second clock read when the caller times the region itself). *)

val span : t -> ?arg:int -> Kind.t -> (unit -> 'a) -> 'a
(** Convenience wrapper for cold call sites (allocates a closure). *)

val register_kind : t -> string -> Kind.t
(** Mint (or look up) a kind for a user-supplied span name — bench
    phases, application sections.  Idempotent per name. *)

val kind_name : t -> int -> string

(** {1 Reading (at quiescence)} *)

val rings : t -> Ring.t list
(** Registration order. *)

val dropped : t -> int
(** Events lost to ring wrap, across all rings. *)

val events :
  t -> (tid:int -> kind:int -> ts:int -> dur:int -> arg:int -> unit) -> unit
(** Every retained event, ring by ring, oldest first within a ring.
    [dur = -1] marks instants. *)

val aggregate : t -> (string * int * int) list
(** Per-kind [(name, events, total span ns)] across all rings — the
    phase-breakdown view. *)
