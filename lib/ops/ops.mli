(** The runtime introspection server: HTTP endpoints over a live engine
    session, served from a single background thread.

    {v /                              endpoint index
       /metrics                       Prometheus text format 0.0.4
                                      (+ ALERTS samples when alerting)
       /health                        JSON heartbeat
       /profile?k=N                   continuous-profiler top-K table
       /explain?table=T&tuple=v1,v2   derivation trees (provenance)
       /alerts                        threshold-alert statuses
       /dump                          write a flight-recorder bundle v}

    Handlers read only the engine's monitoring-lane accessors
    ([Engine.session_*]), which are safe to call concurrently with the
    driving thread; responses may be one step stale, never torn in a
    way that matters.  Attaching a server does not perturb the
    deterministic lanes: digests stay bit-identical with or without a
    scraper attached. *)

type t

val make_recorder :
  ?journal_tail:int ->
  dir:string ->
  Jstar_core.Engine.session ->
  Jstar_obs.Recorder.t
(** A flight recorder over [session] with the standard engine sections
    registered: session scalars, profiler top-k, and explain trees for
    the tuples named by a captured causality violation.  Add subsystem
    sections (WAL lag…) with [Jstar_obs.Recorder.add_section];
    triggers (signal, exception wrap, [/dump]) are the caller's. *)

val attach :
  ?addr:string ->
  port:int ->
  ?extra_health:(unit -> (string * Jstar_obs.Json.t) list) ->
  ?alerts:Jstar_obs.Alerts.t ->
  ?recorder:Jstar_obs.Recorder.t ->
  Jstar_core.Engine.session ->
  t
(** Start serving [session] on [addr] (default loopback) and [port]
    ([0] = ephemeral; read back with {!port}).  [extra_health] is
    re-evaluated per scrape and merged into the heartbeat — the hook
    by which a durable session reports WAL/fsync lag without this
    library depending on jstar.persist.  [alerts] enables [/alerts]
    and appends [ALERTS] samples to [/metrics]; [recorder] enables
    [/dump].
    @raise Unix.Unix_error when the bind fails. *)

val port : t -> int
val stop : t -> unit
(** Graceful shutdown: wake and join the acceptor, close the socket.
    Call once, after the last drain. *)
