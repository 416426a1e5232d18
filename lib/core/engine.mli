(** The pseudo-naive bottom-up execution engine.

    Each step removes one minimal equivalence class from the Delta tree,
    inserts it into Gamma (one batched insert per table), runs
    deterministic class effects (output formatting, action handlers),
    then fires all triggered rules as chunks of [Config.grain] triggers
    (parallel barrier).  Every put lands in the scratch arena of the
    unit of work that made it — a firing chunk, a [par_iter] leaf, or
    one {!feed} or action-handler call — and reaches Delta when that
    unit ends.  Tuples already present in Gamma or Delta are dropped
    (set semantics).

    There is one pending structure, the {!Delta} tree (sequential or
    concurrent per [Config.data_structures]), and one extraction loop,
    {!drain}.  A {!run} is a session: {!start}, one {!feed} of the
    initial puts, {!drain}, then {!finish}. *)

exception Causality_violation of string
(** Raised by the runtime auditor ([Config.audit_causality]) when a put
    changes the past — its tuple's timestamp precedes its trigger's, or,
    outside any firing (a {!feed} from a step hook), the class the
    running drain executed last — or when a firing reads tuples the law
    forbids: a positive query visiting later
    than its trigger, or a negative/aggregate query visiting at or
    later. *)

exception Step_limit_exceeded of int
(** Raised when [max_steps] is configured and exceeded. *)

type digest = {
  d_gamma : string;
      (** 128-bit hex digest of every stored tuple at quiescence,
          order-independent — equal across thread counts iff the final
          databases are equal *)
  d_classes : string;
      (** digest of the per-step class sequence, step-ordered (and
          order-independent within each class, where execution order is
          the one schedule-dependent thing) *)
  d_outputs : string;
      (** print-ordered digest of the output-line stream — outputs are
          sorted within each step, so the stream is schedule-independent
          and this digest is equal across thread counts iff the printed
          lines are *)
  d_tables : (string * string) list;
      (** per stored table, declaration order *)
}

type result = {
  outputs : string list;
      (** println/output lines, deterministic regardless of schedule *)
  steps : int;  (** number of equivalence classes executed *)
  tuples_processed : int;
  elapsed : float;
      (** seconds spent inside {!feed} and {!drain}, on
          {!Jstar_obs.Monotonic}; the tracer's spans split them *)
  delta_inserted : int;
  delta_deduped : int;
  stats : Table_stats.t;
  tracer : Jstar_obs.Tracer.t;
      (** the run's span rings ({!Jstar_obs.Tracer.disabled} when
          [tracing = Off]); export with {!Jstar_obs.Export} *)
  metrics : Jstar_obs.Metrics.t;
      (** registry over the engine, Delta and Gamma — gauges and
          histograms alongside the {!Table_stats} counters *)
  lineage : Lineage.t option;
      (** merged derivation records when [Config.provenance] was on —
          feed to [Jstar_prov.Explain] together with the frozen
          program *)
  digest : digest option;  (** when [Config.digest] was on *)
}

val run : ?init:Tuple.t list -> Program.frozen -> Config.t -> result
(** Execute a frozen program from the initial puts to quiescence: a
    session fed [init] once, drained and finished.  The pool shuts down
    even when the run raises. *)

val run_with_gamma :
  ?init:Tuple.t list ->
  Program.frozen ->
  Config.t ->
  result * (Schema.t -> Store.t)
(** Like {!run}, additionally returning an accessor for the final Gamma
    stores (for inspecting results). *)

val run_program : ?init:Tuple.t list -> Program.t -> Config.t -> result
(** Freeze and run in one call. *)

(** {1 Event-driven sessions}

    External input tuples arrive over time (§3): a session keeps the
    engine alive between input batches. *)

type session

val start : Program.frozen -> Config.t -> session
val feed : session -> Tuple.t list -> unit
(** Enqueue external input tuples (routed like any put).  One call is
    one unit of work: its puts reach Delta when it returns. *)

val drain : session -> string list
(** Run to quiescence — the engine's one extraction loop, where
    [max_steps] is checked against the session's step count — and
    return the outputs produced by this drain. *)

val session_gamma : session -> Schema.t -> Store.t
(** Inspect a table's Gamma store between drains. *)

val finish : session -> result
(** Shut the session's pool down and summarise: [steps] counts every
    class the session ran, [elapsed] its time inside {!feed} and
    {!drain}.  Idempotent. *)

(** {2 Live introspection}

    Accessors the ops plane ([Jstar_ops], the [--ops-port] server)
    reads from a monitoring thread while the driving thread feeds and
    drains.  Each is either immutable after {!start} or a safe-stale
    read of monotone state: concurrent scrapes can lag the engine by
    in-flight updates but never crash it or perturb evaluation. *)

val session_metrics : session -> Jstar_obs.Metrics.t
(** The live metrics registry (the [/metrics] source). *)

val session_lineage : session -> Lineage.t option
(** The lineage arenas when [Config.provenance] is on — the bridge
    [/explain] uses ({!Jstar_prov.Explain.derive} wants it frozen at a
    drain barrier; between drains reads see the last merge). *)

val session_profiler : session -> Jstar_obs.Profiler.t option
(** The continuous profiler when [Config.profile] is on (the
    [/profile] source). *)

val session_frozen : session -> Program.frozen
(** The frozen program this session runs (schema lookup for query
    parsing). *)

val session_journal : session -> Jstar_obs.Journal.t
(** The always-on structured event journal (step seals, drains,
    violations) — the flight recorder's first bundle section and a
    [/dump] input.  Safe-stale monitoring reads, like every accessor
    here. *)

val session_violation : session -> (string * Tuple.t list) option
(** The last causality violation's message and the tuples it names,
    captured just before [Causality_violation] raised — the flight
    recorder resolves these into explain trees.  [None] until a
    violation occurs. *)

val session_delta : session -> int * int
(** Current pending (size, depth) — heartbeat fields. *)

(** {1 Durability hooks}

    Just enough session state for a persistence layer (jstar_persist,
    which depends on this library and therefore cannot be called from
    here) to snapshot a quiescent session and rebuild it on restore.
    Everything below assumes quiescence: call only between a {!drain}
    and the next {!feed}. *)

type session_state = {
  ss_step_no : int;  (** global step counter (timestamps lineage) *)
  ss_steps : int;  (** classes executed in this session *)
  ss_processed : int;
  ss_outputs_count : int;  (** total output lines so far *)
  ss_outputs : string list;
      (** all output lines, oldest first; [[]] when elided *)
  ss_seq_lanes : int * int;  (** class-sequence digest lanes *)
}

val session_state : ?with_outputs:bool -> session -> session_state
(** Capture the session state for a checkpoint manifest.
    [~with_outputs:false] (default [true]) elides the output-line list
    (leaving [ss_outputs_count] valid) — per-drain watermark records
    only need the scalars, and copying every line there would make a
    long session's drains quadratic. *)

val restore_session_state : session -> session_state -> unit
(** Overwrite a fresh session's counters/digest with checkpointed
    values.  Restored output lines count as already drained. *)

val load_tuple : session -> Tuple.t -> unit
(** Insert a checkpointed tuple directly into its Gamma store — no
    Delta, no rule firing, no output formatting (all of that already
    happened before the snapshot was taken) — and counts it as a Gamma
    insert in {!Table_stats}.  @raise Invalid_argument for [-noGamma]
    tables, whose tuples are never snapshotted. *)

val session_pending : session -> int
(** Tuples waiting in Delta.  Zero after a drain; a checkpoint taken
    while nonzero would silently drop them, so the persistence layer
    refuses. *)

val stored_tables : session -> Schema.t list
(** Tables whose Gamma is retained (not [-noGamma]), declaration
    order — the tables a snapshot serializes. *)

val gamma_digest : session -> string
(** 128-bit hex digest of every stored tuple right now, independent of
    [Config.digest].  Recovery compares this against the snapshot
    manifest to prove the rebuilt database is bit-identical. *)
