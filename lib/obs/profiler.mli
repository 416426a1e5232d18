(** Continuous per-rule / per-table profiler for a live engine.

    Rule self-times come from [fire_start]/[fire_stop] brackets around
    each firing (striped plain-int counters, per-domain frame stacks so
    nested immediate firings are excluded from a parent's self time);
    per-table put/query rates and Gamma sizes are folded in for free at
    each step barrier from the engine's existing deterministic
    counters.  [step_barrier] turns the deltas into exponentially
    decayed per-step aggregates and also folds scheduler utilization
    and GC/allocation lanes.

    {b Determinism.}  Everything this module produces is wall-clock
    derived and therefore differs run to run; it never feeds back into
    evaluation order.  The deterministic engine counters it reads stay
    bit-identical whether or not a profiler is attached.  Striped
    hot-path counters are plain ints: cross-domain stripe collisions
    can drop an update — a documented property of the monitoring lane,
    in exchange for an atomic-free hot path. *)

type t

type sched_totals = {
  sc_tasks : int;
  sc_steals : int;
  sc_parks : int;
  sc_idle_ns : int;
}
(** Cumulative scheduler counters, mirroring [Jstar_sched.Pool.stats]
    (the record is duplicated here because the dependency arrow points
    sched → obs). *)

val create :
  ?stripes:int ->
  ?decay:float ->
  ?sample:int ->
  ?workers:int ->
  rules:string array ->
  tables:string array ->
  unit ->
  t
(** [create ~rules ~tables ()] sizes the profiler for rule ids
    [0 .. Array.length rules - 1] and likewise for tables.  [stripes]
    (default 8, rounded up to a power of two) bounds hot-path
    contention; [decay] (default 0.98) is the per-step EMA retention;
    [sample] (default 1 = time everything) times one in [sample]
    firings, scaling self-times back up at read time; [workers] is the
    pool width used for utilization. *)

(** {1 Hot path} *)

val fire_start : t -> int
(** Open a firing frame; returns the start timestamp, or [0] when this
    firing is sampled out (then [fire_stop] only counts it). *)

val fire_stop : t -> rule:int -> ?fires:int -> int -> unit
(** [fire_stop t ~rule ~fires t0] closes the frame opened by
    [fire_start]: credits [fires] firings (default 1 — batched chunks
    pass the chunk width) and, when [t0 <> 0], the bracket's wall time
    minus nested timed firings to [rule]'s self time. *)

(** {1 Barrier fold} *)

val step_barrier :
  t ->
  puts:int array ->
  queries:int array ->
  gamma:int array ->
  ?sched:sched_totals ->
  unit ->
  unit
(** Fold one step: [puts]/[queries] are cumulative per-table counters
    (indexed like [tables]), [gamma] current store sizes, [sched]
    cumulative pool counters.  Called once per step from the engine's
    barrier; single-threaded. *)

(** {1 Snapshots} *)

type rule_row = {
  pr_id : int;
  pr_name : string;
  pr_fires : int;
  pr_self_s : float;  (** cumulative self seconds, sampling-scaled *)
  pr_ema_self_s : float;  (** decayed self seconds per step *)
}

type table_row = {
  pt_name : string;
  pt_puts : int;
  pt_queries : int;
  pt_gamma : int;
  pt_ema_puts : float;
  pt_ema_queries : float;
}

type sched_row = {
  ps_tasks : int;
  ps_steals : int;
  ps_parks : int;
  ps_idle_s : float;
  ps_utilization : float;  (** decayed busy fraction, 0..1 *)
}

type gc_row = {
  pg_alloc_words : float;
  pg_ema_alloc_words : float;
  pg_minor : int;
  pg_major : int;
}

val steps : t -> int
val rules : t -> rule_row array
val tables : t -> table_row array

val top_rules : ?k:int -> t -> rule_row list
(** Rules that fired at least once, by decayed self time (descending;
    fires then rule id break ties deterministically), first [k]
    (default 10). *)

val sched : t -> sched_row option
(** [None] until a barrier has folded scheduler totals. *)

val gc : t -> gc_row
val utilization : t -> float option

val to_json : ?k:int -> t -> Json.t
(** The [/profile] payload: steps, top-[k] rules, tables, GC and (when
    available) scheduler lanes; carries ["deterministic": false]. *)
