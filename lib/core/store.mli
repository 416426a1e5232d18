(** Gamma table stores — the pluggable data-structure layer behind each
    relation ("late commitment to data structures", §1.4). *)

type t = {
  kind : string;  (** human-readable store family, for reports *)
  insert : Tuple.t -> bool;
      (** Set-semantics insert: [false] = duplicate, store unchanged. *)
  insert_batch : Tuple.t array -> int -> int -> bool array;
      (** [insert_batch arr lo hi] inserts [arr.(lo)..arr.(hi-1)]; slot
          [i] of the result reports [arr.(lo+i)].  Semantically equal to
          element-wise {!field-insert} (first of equal tuples wins), but
          stores amortise locks and descents over a sorted run — feed it
          runs sorted by tuple order.  Build custom stores' default with
          {!seq_batch}. *)
  mem : Tuple.t -> bool;
  iter_prefix : Value.t array -> (Tuple.t -> unit) -> unit;
      (** Visit every tuple whose leading fields equal the prefix. *)
  probe_prefix : Value.t array -> Tuple.t list option;
      (** Batched hash-join probe: [Some matches] — the tuples
          {!field-iter_prefix} would visit, in the same order, as a
          value the engine's firing cursor can cache across equal
          probes.  Hash stores answer covered prefixes in O(bucket);
          ordered stores ([tree], [skiplist]) and under-specified hash
          prefixes materialise the scan in visit order, so negative and
          aggregate probes amortise one scan per distinct prefix
          instead of one per trigger.  [None] means no access path at
          all (native arrays, windowed/custom stores) — callers then
          fall back to {!field-iter_prefix}.  Build custom stores'
          default with {!no_probe}. *)
  iter : (Tuple.t -> unit) -> unit;
  size : unit -> int;
}

type kind_spec =
  | Tree  (** Ordered set (TreeSet) — sequential default. *)
  | Skiplist
      (** Concurrent ordered set (ConcurrentSkipListSet) — parallel
          default. *)
  | Hash_index of int
      (** Hash map keyed by the first [n] fields (ConcurrentHashMap);
          prefix queries of length >= [n] hit one bucket, shorter ones
          scan every bucket — key it on the prefix the rules read. *)
  | Custom of (Schema.t -> t)
      (** Application-supplied store — the "override the factory method"
          hook of §6.2. *)

val seq_batch :
  (Tuple.t -> bool) -> Tuple.t array -> int -> int -> bool array
(** Element-wise batch fallback: [seq_batch insert arr lo hi] applies
    [insert] in order.  The default [insert_batch] of every store that
    has nothing to amortise. *)

val no_probe : Value.t array -> Tuple.t list option
(** Always [None]: the [probe_prefix] of stores without an O(bucket)
    prefix access path. *)

(** The builders below always use the schema-compiled comparator and
    the cached-hash dedup tables.  (They once took a [?specialized]
    flag selecting a generic [Value.compare] / polymorphic-hash path;
    that path is retired.) *)

val tree : Schema.t -> t
val skiplist : Schema.t -> t

val hash_index : prefix_len:int -> Schema.t -> t
(** @raise Schema.Schema_error when [prefix_len] exceeds the arity. *)

type int_array_handle = {
  ia_get : int array -> int;
  ia_set_raw : int array -> int -> unit;
      (** Direct write bypassing the tuple interface; keeps the presence
          bitmap consistent but skips dedup accounting. *)
  ia_present : int array -> bool;
  ia_data : int array;  (** The backing flat array, row-major in [dims]. *)
}

val native_int_array : dims:int array -> Schema.t -> t * int_array_handle
(** The "native-arrays" optimisation (§6.4): a dense
    [(int keys -> int value)] table stored as a flat [int array] plus a
    presence bitmap.  Returns the store and a typed O(1) handle.
    @raise Schema.Schema_error unless the schema is keys + one value. *)

type float_array_handle = {
  fa_get : int array -> float;
  fa_set_raw : int array -> float -> unit;
  fa_present : int array -> bool;
  fa_data : float array;  (** the backing flat array, row-major *)
}

val native_float_array : dims:int array -> Schema.t -> t * float_array_handle
(** The float twin of {!native_int_array}: a dense
    [(int keys -> double value)] table over a flat [float array] — the
    Median program's [double[2][100000000]] Gamma. *)

val of_spec : kind_spec -> Schema.t -> t
val default_for : parallel:bool -> Schema.t -> t
(** [Skiplist] when parallel, [Tree] otherwise. *)

val flat_index : int array -> int array -> int
(** Row-major flattening of a multi-dimensional key; exposed for custom
    stores.  @raise Invalid_argument when out of range. *)

val windowed :
  field:string -> width:int -> (Schema.t -> t) -> Schema.t -> t
(** [windowed ~field ~width inner schema]: a manual tuple-lifetime hint
    (step 4 of the lifecycle, Fig 3).  Tuples are bucketed by the
    integer [field]; only buckets within [width] of the largest value
    seen stay queryable, older buckets are dropped wholesale (the
    Median program's keep-iter-and-iter+1 Gamma, generalised).  Inserts
    older than the window are refused.
    @raise Invalid_argument when [width < 1]. *)
