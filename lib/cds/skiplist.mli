(** Lazy lock-based concurrent skip list map — the stand-in for Java's
    [ConcurrentSkipListMap].

    Lookups are wait-free; insertion and removal lock only the affected
    predecessor nodes and retry on interference.  Ordered traversals are
    weakly consistent under concurrency and exact at quiescence. *)

type ('k, 'v) t

val create : compare:('k -> 'k -> int) -> unit -> ('k, 'v) t
(** An empty map ordered by [compare]. *)

val add : ('k, 'v) t -> 'k -> 'v -> bool
(** [add t k v] inserts the binding if [k] is absent; returns whether the
    insert happened ([false] = key already present, map unchanged). *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Atomically: return the value bound to [k], inserting [mk ()] first if
    [k] is absent.  [mk] may be called and its result discarded when a
    concurrent insert wins the race, so it must be side-effect free. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Wait-free; allocates only the [Some] of a hit. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Wait-free; allocates nothing. *)

val remove : ('k, 'v) t -> 'k -> bool
(** [remove t k] logically then physically deletes [k]; returns whether
    this call removed it. *)

val min_binding_opt : ('k, 'v) t -> ('k * 'v) option
(** Smallest binding, or [None] when empty. *)

val pop_min_opt : ('k, 'v) t -> ('k * 'v) option
(** Atomically remove and return the smallest binding. *)

val length : ('k, 'v) t -> int
(** Number of bindings (exact at quiescence). *)

val is_empty : ('k, 'v) t -> bool

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
(** In-order traversal over unmarked bindings. *)

val fold : ('k, 'v) t -> 'a -> ('a -> 'k -> 'v -> 'a) -> 'a
val to_list : ('k, 'v) t -> ('k * 'v) list

val iter_from : ('k, 'v) t -> 'k -> ('k -> 'v -> bool) -> unit
(** [iter_from t k f] visits bindings with key >= [k] in order while [f]
    returns [true] — the substrate for ordered range queries. *)
