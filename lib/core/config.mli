(** Runtime configuration — the JStar compiler flags as runtime options,
    so strategy and data-structure choices never touch program text. *)

type data_structures =
  | Auto  (** sequential structures iff [threads = 1] *)
  | Sequential_ds  (** the TreeMap/TreeSet family; single-threaded only *)
  | Concurrent_ds  (** skip list / sharded hash family *)

type grain =
  | Auto_grain
      (** adaptive: [max 1 (n / (2 * workers))] per leaf — the "chunked
          leaves" strategy *)
  | Fixed of int
      (** fixed leaf size; [Fixed 1] is one task per (tuple, rule), the
          §5.2 strategy *)

type t = {
  threads : int;  (** fork/join pool size ([--threads=N]); 1 = caller only *)
  data_structures : data_structures;
      (** the structure family of the engine's one Delta tree (and of
          default Gamma stores): the paper's sequential-vs-concurrent
          ablation *)
  no_delta : string list;
      (** [-noDelta T]: put T straight into Gamma, firing its rules
          immediately (§5.1) *)
  no_gamma : string list;
      (** [-noGamma T]: never store T (trigger-only tables, §5.1) *)
  stores : (string * Store.kind_spec) list;
      (** per-table Gamma store overrides.  A table's store is its only
          access path: a table read by its first [k] columns wants
          [Hash_index k] *)
  grain : grain;
      (** fork/join granularity under a pool: triggers per Phase-B
          firing chunk (each (rule, table) run of a class is split into
          chunks, each sorted by the rule's declared join key and fired
          as one unit of work) and iterations per [par_iter] leaf.
          Without a pool each run fires as one chunk *)
  max_steps : int option;  (** abort runaway programs *)
  tracing : Jstar_obs.Level.t;
      (** [Off]: zero-cost; [Counters]: metrics registry only; [Spans]:
          also record per-domain span rings for Chrome-trace export *)
  trace_sample : int;
      (** record only every [N]-th span of each kind at [Spans] level
          (per domain, per kind; 1 = record everything) — the one span
          filter, for rule-fire-heavy runs; rare kinds keep their first
          span of each window *)
  provenance : bool;
      (** capture tuple lineage: one candidate derivation record per
          put into per-domain arenas, merged at step barriers into a
          deterministic derivation per tuple (read by [Jstar_prov.Explain]
          and the [--explain] CLI flag) *)
  audit_causality : bool;
      (** runtime causality-law auditor: validate every firing
          dynamically — positive queries at timestamps [<= T],
          negative/aggregate strictly [< T], puts [>= T], where [T] is
          the trigger's timestamp — catching unsound [Custom] stores
          and hand-written rules the static checker cannot see.  Puts
          outside any firing (a feed from a step hook) are checked
          against the class the running drain executed last; a drain
          that reaches quiescence ends that run.  Violations raise
          [Engine.Causality_violation] *)
  digest : bool;
      (** compute order-independent 128-bit digests of the final Gamma
          contents (per table and overall) and of the per-step class
          sequence, exposed in [Engine.result.digest] and the metrics
          snapshot — CI can assert equality across thread counts *)
  profile : bool;
      (** continuous profiler ({!Jstar_obs.Profiler}): self-time
          brackets per rule firing plus a per-step barrier fold of
          table / scheduler / GC deltas into exponentially decayed
          aggregates, served by [/profile] and the [/health] heartbeat.
          Timing lanes are non-deterministic by nature; deterministic
          counters, outputs and digests are unaffected (asserted by
          [test_ops]) *)
  step_hook : (int -> Jstar_obs.Metrics.t -> unit) option;
      (** called on the driving domain at the end of every step with
          the step number and live metrics registry — powers the CLI's
          [--metrics-every] periodic flush so crashed runs still leave
          a trail.  Runs inside the barrier: keep it cheap *)
}

val default : t
(** Sequential: one thread, automatic (sequential) data structures, no
    optimisations. *)

val sequential : t
(** Alias of {!default} — the [-sequential] compiler flag. *)

val parallel : ?threads:int -> unit -> t
(** {!default} with a [threads]-worker pool ([threads] defaults to 4)
    and the continuous profiler ({!field-profile}) on.  The profiler is
    not free: [BENCH_hotpath.json] prices it at +8.6% on the hot-path
    workload. *)

val effective_mode : t -> Delta.mode
(** Which structure family the configuration resolves to. *)

exception Invalid of string

val validate : t -> unit
(** @raise Invalid for nonsensical combinations (0 threads, sequential
    structures with a multi-threaded pool, grain < 1,
    [trace_sample < 1]). *)

val resolve_grain : t -> workers:int -> n:int -> int
(** The fork/join leaf size for [n] items on [workers] workers under
    this configuration's {!field-grain} — the engine's one grain
    formula, for firing chunks and [par_iter] leaves alike. *)
