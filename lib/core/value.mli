(** Dynamically-typed scalar field values of JStar tuples. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = TInt | TFloat | TStr | TBool

exception Type_error of string

val int : int -> t
(** [int n] is a value equal to [Int n].  For [n] in [\[0, 8192)] it is
    one shared, immutable box per [n], so tuples of small ints do not
    each keep private boxes; otherwise it is a fresh box. *)

val type_of : t -> ty
val ty_name : ty -> string

val compare : t -> t -> int
(** Total order; same-type values compare naturally, mixed types by a
    fixed type-tag order (only reachable from ill-typed programs). *)

val equal : t -> t -> bool
val hash : t -> int

val default_of_ty : ty -> t
(** The value used for fields omitted from a by-name builder:
    [0], [0.0], [""] or [false]. *)

val to_int : t -> int
(** @raise Type_error when the value is not an [Int]. *)

val to_float : t -> float
(** Accepts [Float] and widens [Int].  @raise Type_error otherwise. *)

val to_string : t -> string
val to_bool : t -> bool

val pp : Format.formatter -> t -> unit
val show : t -> string

val compare_arrays : t array -> t array -> int
(** Lexicographic; a strict prefix orders before its extensions. *)

val equal_arrays : t array -> t array -> bool
val hash_array : t array -> int

val hash_prefix : t array -> int -> int
(** [hash_prefix a k] = [hash_array (Array.sub a 0 k)] without
    allocating the sub-array.  Both arguments must satisfy
    [k <= Array.length a]. *)

val equal_prefix : t array -> t array -> int -> bool
(** [equal_prefix a b k]: the first [k] slots of [a] and [b] are equal.
    Both arrays must have at least [k] slots. *)
