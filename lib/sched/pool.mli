(** Work-stealing fork/join pool on OCaml 5 domains.

    This substrate plays the role of the Java Fork/Join framework in the
    original JStar runtime: a fixed set of workers with per-worker
    Chase-Lev deques, random stealing, an injector queue for external
    submissions, and help-first joining.

    A pool of [num_workers] = n uses n-1 spawned domains plus the caller:
    call {!run} to execute a computation with the calling domain occupying
    worker slot 0.  [num_workers = 1] therefore runs everything on the
    caller with no domains spawned — the "-sequential" configuration. *)

type t

exception Shutdown
(** Raised by {!submit} and {!fork} after {!shutdown}. *)

val create : num_workers:int -> ?tracer:Jstar_obs.Tracer.t -> unit -> t
(** [create ~num_workers ()] spawns [num_workers - 1] worker domains.
    When [tracer] records spans, the pool emits pool-spawn / pool-steal
    instants and a pool-idle span per parked wait; the default
    {!Jstar_obs.Tracer.disabled} costs one dead branch per steal.
    @raise Invalid_argument if [num_workers < 1]. *)

val size : t -> int
(** Total parallelism of the pool, including the caller slot. *)

type stats = {
  tasks : int;  (** tasks executed by registered workers *)
  steals : int;  (** successful Chase-Lev steals *)
  parks : int;  (** condition-variable waits (real sleeps only) *)
  idle_ns : int;  (** total wall time spent in those waits *)
}
(** Cumulative scheduler counters, summed over worker slots.  Each field
    is owner-written by its worker's domain (no atomics on the hot
    path), so a concurrent read may lag by a few events — a monitoring
    lane, {e not} a deterministic one.  Spin-waiting and steal scans
    count as busy time: [idle_ns] only accumulates across parked
    condition waits.  Work executed by an unregistered caller inside
    {!join} (the temporary-thief path) is not counted. *)

val stats : t -> stats
(** Snapshot of the pool's scheduler counters since {!create}. *)

val shutdown : t -> unit
(** Stop all workers and join their domains.  Idempotent.  Tasks still
    queued are dropped. *)

val submit : t -> (unit -> unit) -> unit
(** Fire-and-forget task submission.  Exceptions raised by the task are
    swallowed; use {!fork} when the result or failure matters. *)

val run : t -> (unit -> 'a) -> 'a
(** [run pool f] executes [f] with the calling domain registered as
    worker 0 of the pool, so that {!fork} inside [f] uses a local deque.
    Re-entrant from a domain already registered with this pool. *)

(** {1 Futures} *)

type 'a future

val fork : t -> (unit -> 'a) -> 'a future
(** Schedule a computation; its result (or exception) is captured in the
    returned future. *)

val join : t -> 'a future -> 'a
(** Wait for a future, executing other pool tasks while it is pending
    (help-first joining).  Re-raises the task's exception with its
    original backtrace. *)

val peek : 'a future -> ('a, exn) result option
(** Non-blocking check of a future's state. *)
