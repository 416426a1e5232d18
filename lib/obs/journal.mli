(** Structured event journal: severity-tagged, ring-buffered JSON-line
    events (step seals, drains, checkpoint/recovery, audit
    violations) — the narrative companion to the
    numeric {!Metrics} registry, and the first section of every flight
    recorder bundle ({!Recorder}).

    Observational only: nothing reads the journal back into evaluation,
    so recording leaves every deterministic digest lane bit-identical
    (the same argument as the profiler's). *)

type severity = Debug | Info | Warn | Error

val severity_rank : severity -> int
val severity_name : severity -> string
val severity_of_name : string -> severity option

type entry = {
  j_seq : int;  (** monotonic sequence number, 0-based, never reused *)
  j_ts_ns : int;  (** {!Monotonic} timestamp at record time *)
  j_sev : severity;
  j_comp : string;  (** emitting layer: ["engine"], ["persist"]… *)
  j_event : string;  (** event name: ["step-seal"], ["checkpoint"]… *)
  j_fields : (string * Json.t) list;
}

type t

val create : ?capacity:int -> ?min_severity:severity -> unit -> t
(** [capacity] (default 2048, rounded up to a power of two) bounds the
    retained window; older entries are overwritten and counted in
    {!dropped}.  Events below [min_severity] (default [Debug]) are
    counted in {!offered} but never stored. *)

val capacity : t -> int
val min_severity : t -> severity
val set_min_severity : t -> severity -> unit

val log :
  t ->
  severity ->
  comp:string ->
  event:string ->
  (string * Json.t) list ->
  unit

val debug : t -> comp:string -> event:string -> (string * Json.t) list -> unit
val info : t -> comp:string -> event:string -> (string * Json.t) list -> unit
val warn : t -> comp:string -> event:string -> (string * Json.t) list -> unit
val error : t -> comp:string -> event:string -> (string * Json.t) list -> unit

val recorded : t -> int
(** Entries accepted past the severity filter, ever. *)

val offered : t -> int
(** Entries offered, including filtered ones. *)

val dropped : t -> int
(** Accepted entries lost to ring wrap. *)

val entries : t -> entry list
(** Retained entries, oldest first — a consistent copy taken under the
    journal mutex, safe from a monitoring thread. *)

val tail : ?n:int -> t -> entry list
(** The last [n] retained entries (all of them when [n] is omitted). *)

val entry_json : entry -> Json.t
val to_json : ?n:int -> t -> Json.t

val to_lines : ?n:int -> t -> string
(** One JSON object per line, oldest first — the on-disk form. *)
