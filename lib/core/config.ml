(* Runtime configuration: the JStar compiler flags, reproduced as runtime
   options so that — exactly as the paper argues — parallelisation
   strategy and data-structure choices change without touching the
   program text. *)

type data_structures =
  | Auto (* sequential structures iff threads = 1 *)
  | Sequential_ds (* TreeMap/TreeSet family, single-threaded only *)
  | Concurrent_ds (* skip list / sharded hash family *)

type grain =
  | Auto_grain (* max 1 (n / (2 * workers)): chunked leaves, adaptive *)
  | Fixed of int
      (* fixed fork/join leaf size; [Fixed 1] = one task per (tuple,
         rule), the §5.2 strategy *)

type t = {
  threads : int;
      (* Fork/join pool size (--threads=N); 1 = run on the caller only,
         the "-sequential" code path. *)
  data_structures : data_structures;
  no_delta : string list;
      (* -noDelta T: put T tuples straight into Gamma and fire their
         rules immediately (§5.1). *)
  no_gamma : string list;
      (* -noGamma T: never store T tuples in Gamma (§5.1). *)
  stores : (string * Store.kind_spec) list;
      (* per-table Gamma store overrides *)
  grain : grain;
      (* triggers per Phase-B firing chunk and iterations per [par_iter]
         leaf under a pool *)
  max_steps : int option; (* safety valve for runaway programs *)
  tracing : Jstar_obs.Level.t;
      (* Off: zero-cost; Counters: metrics registry only; Spans: also
         record per-domain span rings for Chrome-trace export *)
  trace_sample : int;
      (* 1-in-N sampling of each span kind at Spans level (1 = record
         everything) — the one span filter, for rule-fire-heavy runs *)
  provenance : bool;
      (* record a lineage candidate per put into per-domain arenas,
         merged at step barriers into one deterministic derivation per
         tuple (Lineage; the Explain API and --explain read it) *)
  audit_causality : bool;
      (* runtime causality-law auditor: validate every firing's queries
         (positive <= T, negative/aggregate < T) and puts (>= T)
         against the trigger's timestamp — the dynamic check that
         catches unsound Custom stores and hand-written rules the
         static pass can't see.  Puts outside any firing (a feed from
         a step hook) are checked against the class the running drain
         executed last *)
  digest : bool;
      (* cross-run determinism digests: order-independent 128-bit
         hashes of final Gamma contents and of the per-step class
         sequence, exposed in the result and the metrics snapshot *)
  profile : bool;
      (* continuous profiler (Jstar_obs.Profiler): per-rule self-time
         brackets on the firing hot path plus a per-step barrier fold of
         table/scheduler/GC deltas into decayed aggregates — the lane
         /profile and the heartbeat read.  Timing lanes are
         non-deterministic; deterministic counters and digests are
         unaffected *)
  step_hook : (int -> Jstar_obs.Metrics.t -> unit) option;
      (* called at the end of every engine step with the step number and
         the live metrics registry — the CLI's --metrics-every periodic
         flush; keep it cheap, it runs on the driving domain inside the
         barrier *)
}

let default =
  {
    threads = 1;
    data_structures = Auto;
    no_delta = [];
    no_gamma = [];
    stores = [];
    grain = Auto_grain;
    max_steps = None;
    tracing = Jstar_obs.Level.Off;
    trace_sample = 1;
    provenance = false;
    audit_causality = false;
    digest = false;
    profile = false;
    step_hook = None;
  }

let sequential = default

(* The parallel defaults: a pool and the continuous profiler, which
   /profile and the heartbeat read. *)
let parallel ?(threads = 4) () = { default with threads; profile = true }

let effective_mode t =
  match t.data_structures with
  | Auto -> if t.threads > 1 then Delta.Concurrent else Delta.Sequential
  | Sequential_ds -> Delta.Sequential
  | Concurrent_ds -> Delta.Concurrent

exception Invalid of string

let validate t =
  if t.threads < 1 then raise (Invalid "threads must be >= 1");
  if t.threads > 1 && t.data_structures = Sequential_ds then
    raise (Invalid "sequential data structures require threads = 1");
  (match t.grain with
  | Fixed g when g < 1 -> raise (Invalid "grain must be >= 1")
  | _ -> ());
  if t.trace_sample < 1 then raise (Invalid "trace_sample must be >= 1")

(* The engine's one grain formula.  Adaptive: coarse enough that each
   chunk amortises its fixed costs (arena, frame, fork), fine enough (2
   leaves per worker) that stealing can still balance skewed rules. *)
let resolve_grain t ~workers ~n =
  match t.grain with
  | Fixed g -> max 1 g
  | Auto_grain -> max 1 (n / (2 * max 1 workers))
