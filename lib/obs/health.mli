(** The [/health] heartbeat: a compact JSON summary of a live session.

    A pure builder — the engine-facing glue (lib/ops, bin/) supplies
    the numbers and threads subsystem extras (e.g. WAL/fsync lag for a
    durable session) through [extra].  Fields left [None] are omitted
    so the payload stays honest about what is attached. *)

val make :
  ?step:int ->
  ?steps:int ->
  ?processed:int ->
  ?outputs:int ->
  ?pending:int ->
  ?delta:int * int ->
  ?gamma:(string * int) list ->
  ?top_rules:(string * float * int) list ->
  ?utilization:float ->
  ?extra:(string * Json.t) list ->
  unit ->
  Json.t
(** [delta] is (size, depth); [top_rules] entries are
    (rule, decayed self seconds per step, fires).  Always includes
    ["status": "ok"] (the process answered) and process ["uptime_s"]. *)

val render :
  ?step:int ->
  ?steps:int ->
  ?processed:int ->
  ?outputs:int ->
  ?pending:int ->
  ?delta:int * int ->
  ?gamma:(string * int) list ->
  ?top_rules:(string * float * int) list ->
  ?utilization:float ->
  ?extra:(string * Json.t) list ->
  unit ->
  string
(** {!make} composed with [Json.to_string]. *)
