(** Continuous per-rule / per-table profiler for a live engine.

    Rule self-times come from [fire_start]/[fire_stop] brackets around
    each firing, timed by the caller on {!Monotonic} (striped plain-int
    counters, per-domain frame stacks so nested immediate firings are
    excluded from a parent's self time);
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
  ?workers:int -> rules:string array -> tables:string array -> unit -> t
(** [create ~rules ~tables ()] sizes the profiler for rule ids
    [0 .. Array.length rules - 1] and likewise for tables; [workers] is
    the pool width used for utilization.  Aggregates decay by 0.98 per
    step. *)

(** {1 Hot path} *)

val fire_start : t -> unit
(** Open a firing frame on the calling domain. *)

val fire_stop : t -> rule:int -> fires:int -> ns:int -> unit
(** [fire_stop t ~rule ~fires ~ns] closes the frame opened by
    [fire_start]: credits [fires] firings (a batched chunk passes its
    width) and the bracket's [ns] nanoseconds, minus nested brackets,
    to [rule]'s self time.  The caller reads {!Monotonic.now_ns} at
    each end of the bracket, so a span recorded over the same readings
    agrees to the nanosecond. *)

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
  pr_self_s : float;  (** cumulative self seconds *)
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
