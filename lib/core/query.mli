(** Query combinators over a rule context — the [get] forms of §3-§4.

    [prefix] matches leading fields exactly (how stores index);
    [where] is the residual boolean-lambda predicate.  All queries run
    against Gamma; the causality checker verifies per rule that their
    results are already fixed when the rule executes. *)

val iter :
  Rule.ctx ->
  Schema.t ->
  ?prefix:Value.t array ->
  ?where:(Tuple.t -> bool) ->
  (Tuple.t -> unit) ->
  unit

val fold :
  Rule.ctx ->
  Schema.t ->
  ?prefix:Value.t array ->
  ?where:(Tuple.t -> bool) ->
  init:'a ->
  f:('a -> Tuple.t -> 'a) ->
  unit ->
  'a

val list :
  Rule.ctx ->
  Schema.t ->
  ?prefix:Value.t array ->
  ?where:(Tuple.t -> bool) ->
  unit ->
  Tuple.t list
(** Matching tuples in the store's iteration order. *)

val count :
  Rule.ctx ->
  Schema.t ->
  ?prefix:Value.t array ->
  ?where:(Tuple.t -> bool) ->
  unit ->
  int
(** The number of matching tuples: an aggregate, so matches must be
    strictly earlier than the trigger. *)

exception Not_unique of string

val uniq :
  Rule.ctx ->
  Schema.t ->
  ?prefix:Value.t array ->
  ?where:(Tuple.t -> bool) ->
  unit ->
  Tuple.t option
(** [get uniq? T(...)]: at most one distinct matching tuple expected.
    @raise Not_unique when several distinct tuples match. *)

val is_empty :
  Rule.ctx ->
  Schema.t ->
  ?prefix:Value.t array ->
  ?where:(Tuple.t -> bool) ->
  unit ->
  bool
(** The negative query form ([get uniq? ... == null]). *)

val min_by :
  Rule.ctx ->
  Schema.t ->
  ?prefix:Value.t array ->
  ?where:(Tuple.t -> bool) ->
  key:(Tuple.t -> 'a) ->
  unit ->
  Tuple.t option
(** [get min T(...)] under a key function.  Key ties break by tuple
    order ({!Tuple.fast_compare}), so the answer does not depend on the
    table's store or on the thread count. *)

val reduce :
  Rule.ctx ->
  Schema.t ->
  ?prefix:Value.t array ->
  ?where:(Tuple.t -> bool) ->
  monoid:'a Reducer.monoid ->
  f:(Tuple.t -> 'a) ->
  unit ->
  'a
(** Aggregate query with a reducer monoid (the [Statistics] loop of the
    PvWatts program).  The monoid must be commutative: stores visit
    tuples in different orders, and a hash store's order depends on the
    schedule that filled it. *)
