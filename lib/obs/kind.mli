(** Event kinds recorded in span rings.  The builtin set covers the
    engine's step machinery and the pool's scheduling events; tracers
    mint further kinds for user-registered names
    ({!Tracer.register_kind}). *)

type t = private int

val step : t  (** one engine step (minimal equivalence class) *)

val extract : t  (** Delta extract-min-class *)

val gamma_insert : t  (** Phase A: class insertion into Gamma *)

val rule_fire : t
(** immediate firing of one -noDelta tuple's rules, inside the unit
    that put it (chunked Phase B firing records {!batch_fire}) *)

val drain : t  (** one session drain to quiescence *)

val spawn : t  (** pool worker came online (instant) *)

val steal : t  (** successful deque steal (instant) *)

val idle : t  (** pool worker parked waiting for work *)

val prov_merge : t  (** lineage arenas merged at a step barrier *)

val audit : t
(** runtime causality auditor found a violation (instant, recorded just
    before the exception is raised) *)

val batch_fire : t
(** Phase B firing: one (rule, table)-chunk unit of a class execution;
    the span arg is the chunk width *)

val builtin_count : int
val builtin_name : int -> string option

val to_int : t -> int

val custom : int -> t
(** [custom i] is the kind id of the [i]-th tracer-registered name
    (used by {!Tracer.register_kind}; ids start after the builtins). *)
