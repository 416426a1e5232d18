(** Concurrent navigable set (Java's [ConcurrentSkipListSet]): ordered,
    duplicate-free, safe for concurrent insertion and traversal. *)

type 'a t

val create : compare:('a -> 'a -> int) -> unit -> 'a t

val add : 'a t -> 'a -> bool
(** [true] iff the element was absent and has been inserted. *)

val mem : 'a t -> 'a -> bool
val remove : 'a t -> 'a -> bool
val length : 'a t -> int
val is_empty : 'a t -> bool
val min_elt_opt : 'a t -> 'a option
val pop_min_opt : 'a t -> 'a option
val iter : 'a t -> ('a -> unit) -> unit
val fold : 'a t -> 'b -> ('b -> 'a -> 'b) -> 'b
val to_list : 'a t -> 'a list

val iter_from : 'a t -> 'a -> ('a -> bool) -> unit
(** Visit elements >= the given one, in order, while the callback returns
    [true]. *)
