(** Rules — the [foreach (Table t) { ... }] construct — and the
    execution context their bodies receive. *)

type ctx = {
  put : Tuple.t -> unit;
      (** Add a tuple to the database (via Delta unless -noDelta).
          Must respect the law of causality: the tuple's timestamp may
          not precede the executing class. *)
  iter_prefix : Schema.t -> Value.t array -> (Tuple.t -> unit) -> unit;
      (** Positive query: visit Gamma tuples matching a leading prefix
          (used through the {!Query} combinators). *)
  store_of : Schema.t -> Store.t;
      (** Direct access to a table's Gamma store — the hook custom
          stores are reached through. *)
  println : string -> unit;
      (** Debug output; collected and ordered deterministically per
          step ("we allow it for temporary debugging", §6.2). *)
  class_ts : unit -> Timestamp.t option;
      (** Timestamp of the equivalence class being executed. *)
  par_iter : int -> int -> (int -> unit) -> unit;
      (** [par_iter lo hi f]: an intra-rule parallel loop (§5.2) over
          [lo, hi).  Iterations must be independent; runs sequentially
          when the engine has no pool. *)
}

type t = {
  name : string;
  trigger : Schema.t;
  body : ctx -> Tuple.t -> unit;
  reads : Spec.read_spec list;
  puts : Spec.put_spec list;
  assumes : Spec.constr list;
  prov : bool;
      (** capture lineage for this rule's puts under
          [Config.provenance]; [false] = opted out ([~provenance:false]) *)
  mutable rid : int;
      (** program-wide id in declaration order, set by [Program.freeze];
          -1 before.  Identifies the rule in lineage records. *)
}

val make :
  ?reads:Spec.read_spec list ->
  ?puts:Spec.put_spec list ->
  ?assumes:Spec.constr list ->
  ?provenance:bool ->
  name:string ->
  trigger:Schema.t ->
  (ctx -> Tuple.t -> unit) ->
  t
(** [provenance] defaults to [true]; pass [false] to exempt a hot
    rule's puts from lineage capture ([Config.provenance]) — its
    output tuples then report as untracked in [Jstar_prov.Explain]. *)

val pp : Format.formatter -> t -> unit
