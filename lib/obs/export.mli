(** Exporters over a tracer and a metrics registry. *)

val chrome_trace : Buffer.t -> Tracer.t -> unit
(** Chrome trace-event JSON (object form, ["traceEvents"]): one track
    per domain (tid = domain id), spans as balanced B/E pairs, instants
    as ['i'] events, thread-name metadata per track.  Loadable in
    Perfetto or chrome://tracing. *)

val write_chrome_trace : string -> Tracer.t -> unit

val metrics_csv : Buffer.t -> Metrics.t -> unit
(** [name,kind,field,value] CSV of a snapshot. *)

val write_metrics_csv : string -> Metrics.t -> unit

val console : Format.formatter -> ?metrics:Metrics.t -> Tracer.t -> unit
(** Pretty report: per-kind span breakdown with percentages, then the
    metrics snapshot — the unified successor of [Phase_timer.pp] and
    [Table_stats.pp_snapshot]. *)
