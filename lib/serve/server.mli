(** The jstar-serve reactor: one process serving many concurrent named
    engine sessions over the binary {!Protocol}.

    One acceptor thread multiplexes the listening socket against a
    shutdown self-pipe; each accepted connection gets a thread that
    decodes frames and posts commands into per-session single-owner
    workers ({!Session}).  Workers are spread over the server's
    {!Placement} slots — the domain that called {!start} plus
    [Domain.recommended_domain_count () - 1] executor domains — so
    independent sessions run in parallel.  Sessions are addressed like branches
    ([proj/main]) and live under [root] as durable directories —
    opening a name that exists on disk recovers it.

    Admission control front-loads every resource decision:
    - [max_connections] connections (excess refused with a capacity
      error at accept);
    - [max_sessions] live sessions (excess [Open]s refused);
    - [feed_quota] queued tuples per session — past it the connection
      gets a [Flow] pause frame and its thread parks until the worker
      catches up, so a slow session slows its clients instead of
      growing the heap;
    - idle sessions (no attached connections, empty backlog) are
      checkpointed and evicted after [idle_timeout] seconds.

    Shutdown is drain-then-checkpoint: {!request_shutdown} (signal-safe)
    stops accepting, {!wait} unblocks and joins every connection, then
    stops each session — applying queued feeds, quiescing,
    checkpointing, closing — before the process exits. *)

type config = {
  root : string;  (** session directories live under here *)
  addr : string;
  port : int;  (** 0 = ephemeral, read back with {!port} *)
  max_sessions : int;
  max_connections : int;
  feed_quota : int;  (** queued-tuple cap per session *)
  idle_timeout : float;  (** seconds; <= 0 disables idle eviction *)
  checkpoint_every : int;  (** auto-checkpoint after N drains; 0 = manual *)
  fsync : Jstar_persist.Wal.fsync_policy;
  engine : Jstar_core.Config.t;
  ops_port : int option;  (** HTTP ops plane (/metrics, /health, ...) *)
  flight_dir : string option;  (** flight-recorder bundles (needs ops) *)
}

val default_config : root:string -> config
(** Loopback, ephemeral port, 64 sessions / 128 connections, 32 Ki tuple
    quota, 5 min idle eviction, [Every_ms 5] group-commit fsync. *)

type t

val start : config -> Jstar_core.Program.frozen -> t
(** Bind, spawn the executor domains and serve.  All sessions share
    [frozen] — one program, many independently evolving databases.
    @raise Unix.Unix_error when the bind fails. *)

val port : t -> int
val ops_port : t -> int option

val request_shutdown : t -> unit
(** Begin graceful shutdown; async-signal-safe (a write to the
    acceptor's self-pipe), so it can run inside a SIGTERM handler. *)

val wait : t -> unit
(** Join the acceptor, then drain: close connections, stop every
    session (apply queue → quiesce → checkpoint → close), join the
    executor domains, stop the ops plane.  Returns when the server is
    fully down. *)

val stop : t -> unit
(** {!request_shutdown} then {!wait}. *)

(** {2 Introspection (tests, bench)} *)

val metrics : t -> Jstar_obs.Metrics.t
val journal : t -> Jstar_obs.Journal.t
val sessions_open : t -> int
val connections : t -> int
val flow_pauses : t -> int

val slot_load : t -> int array
(** Live session workers per placement slot, slot 0 (the domain that
    called {!start}) first; its length is the slot count. *)
