(** Immutable tuples — rows of a relation. *)

type t = private {
  schema : Schema.t;
  fields : Value.t array;
  mutable hcache : int;  (** lazily-cached structural hash; use {!hash} *)
}

exception Tuple_error of string

val make : Schema.t -> Value.t array -> t
(** Positional construction; checks arity and field types ([Int] widens
    to a [TFloat] column).  @raise Tuple_error on mismatch. *)

val build : Schema.t -> (string * Value.t) list -> t
(** By-name construction; unassigned fields take their type's default —
    the [new Ship() [x=10; dx=150]] form. *)

val with_fields : t -> (string * Value.t) list -> t
(** Builder copy: a new tuple equal to [t] with some fields replaced. *)

val schema : t -> Schema.t
val fields : t -> Value.t array
val get : t -> int -> Value.t
val get_name : t -> string -> Value.t

val int : t -> string -> int
(** Typed field access by name. @raise Value.Type_error on wrong type. *)

val float : t -> string -> float
val str : t -> string -> string
val bool : t -> string -> bool
val int_at : t -> int -> int
val float_at : t -> int -> float

val key : t -> Value.t array
(** The leading key fields (empty array when the table has no key). *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** By table id, then fields lexicographically. *)

val fast_compare : t -> t -> int
(** Same total order as {!compare}, but through the schema-compiled
    monomorphic comparator ({!Schema.fields_compare}) — the only
    comparator the runtime uses on hot paths since the generic path was
    retired. *)

val hash : t -> int
(** Structural hash, computed once per tuple and cached. *)

(** Hash tables keyed by tuples, using the cached hash — the dedup-probe
    fast path for Delta leaves and hash-indexed Gamma stores. *)
module Tbl : Hashtbl.S with type key = t

(** Chained hash set specialised for set-semantics dedup: one hash (a
    cached-field read after the first probe of a tuple) and one bucket
    walk per operation, with stored-vs-probe cached-hash comparison
    short-circuiting the field comparison on non-duplicates. *)
module Dset : sig
  type tuple = t
  type t

  val create : int -> t
  val add_if_absent : t -> tuple -> bool
  (** [true] iff the tuple was absent and has been added. *)

  val mem : t -> tuple -> bool
  val length : t -> int
  val fold : ('a -> tuple -> 'a) -> t -> 'a -> 'a
  val clear : t -> unit
  (** Empty the set, in time proportional to its size (a sparse bucket
      array is replaced rather than filled). *)
end

val pp : Format.formatter -> t -> unit
val show : t -> string

val matches_prefix : t -> Value.t array -> bool
(** Whether the tuple's leading fields equal the given prefix. *)
