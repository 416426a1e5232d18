(** The flight recorder: black-box diagnostics for a live run.

    Holds references to the journal and metrics registry plus caller-
    registered JSON section thunks (profiler top-k, WAL lag, explain
    trees…), and on demand — uncaught exception,
    [Causality_violation], SIGUSR1, or the ops plane's [/dump] — writes
    one atomic, self-contained diagnostic bundle
    ([flight-<pid>-<n>.json], temp + rename) into its directory.

    Engine-agnostic: anything engine-shaped arrives as a section thunk
    (registered by lib/ops or bin/ glue).  Thunks run under an
    exception guard at dump time; a failing section becomes an
    ["error"] object inside the bundle, never a lost bundle. *)

val schema_version : string
(** The bundle's ["schema"] field — ["jstar-flight-1"]. *)

type t

val create :
  ?journal:Journal.t ->
  ?metrics:Metrics.t ->
  ?journal_tail:int ->
  dir:string ->
  unit ->
  t
(** [journal_tail] (default 512) bounds the journal entries embedded
    per bundle.  [dir] is created on first dump. *)

val dir : t -> string
val dumps : t -> int
(** Bundles written so far. *)

val last_path : t -> string option

val add_section : t -> string -> (unit -> Json.t) -> unit
(** Register a named bundle section, evaluated lazily at dump time. *)

val dump : ?detail:(string * Json.t) list -> t -> reason:string -> string
(** Write one bundle; returns its path.  [detail] fields are spliced
    into the bundle top level (e.g. the failure message).  Journaled as
    an ["recorder"/"dump"] Info event. *)

val on_signal : ?signal:int -> t -> unit
(** Install a signal handler (default SIGUSR1) that dumps a bundle with
    reason ["signal"] — the live-process post-mortem trigger. *)
