(** Tuple lineage capture ([Config.provenance]): per-domain append-only
    arenas of candidate derivation records, merged at the engine's
    step barriers into one deterministic minimum candidate per tuple.
    The chosen derivation of every tuple is identical at any thread
    count; see lineage.ml for the argument. *)

type record = {
  r_tuple : Tuple.t;
  r_rule : int;
      (** producing rule id ([Program.rule_name] resolves it), or
          {!Prov_frame.seed_rule} / {!Prov_frame.action_rule} *)
  r_step : int;  (** 0 for initial puts; classes count from 1 *)
  r_domain : int;  (** putting domain — display only, schedule-dependent *)
  r_parents : Tuple.t array;
      (** input tuples the body literals had bound: trigger first *)
}

type t

val create : stripes:int -> t
(** [stripes] must be a power of two (the engine scales it with its
    thread count). *)

val record :
  t -> rule:int -> step:int -> parents:Tuple.t array -> Tuple.t -> unit
(** Append a candidate for [tuple].  Called per put, from any domain. *)

val merge : t -> unit
(** Drain the arenas into the per-tuple minimum-candidate table.  Must
    run at a barrier (no concurrent {!record}). *)

val find : t -> Tuple.t -> record option
(** The merged canonical derivation of [tuple], if it was ever put. *)

val tuples_tracked : t -> int
val records_merged : t -> int

val iter : t -> (record -> unit) -> unit
(** Every merged record, in unspecified order. *)
