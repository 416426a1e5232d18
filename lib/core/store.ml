(* Gamma table stores.

   The paper's point about "late commitment to data structures" is that
   the store behind each relation is chosen *after* the program is
   written, via compiler hints or runtime flags, without touching the
   program text.  We reproduce that with a first-class store interface
   and the paper's four families:

   - [tree]       : ordered set — TreeSet, the sequential default;
   - [skiplist]   : concurrent ordered set — ConcurrentSkipListSet,
                    the parallel default;
   - [hash_index] : hash map keyed by the first [prefix_len] fields —
                    the HashSet / ConcurrentHashMap optimisation used
                    for the PvWatts(year, month) queries;
   - [native_int_array] / [native_float_array]: dense int-keyed tables
     with a single dependent value — the "native-arrays" optimisation of
     §6.4/§6.6 (Java 2D arrays for Matrix, double[2][100M] for Median);
   - [custom]     : anything the application supplies, the equivalent of
     overriding the store factory method by inheritance (§6.2). *)

type t = {
  kind : string;
  insert : Tuple.t -> bool; (* false = duplicate; store unchanged *)
  insert_batch : Tuple.t array -> int -> int -> bool array;
      (* insert arr.(lo..hi-1); slot i reports arr.(lo+i).  Stores that
         can amortise work across a sorted run (one bucket lock, one
         descent) override the element-wise default. *)
  mem : Tuple.t -> bool;
  iter_prefix : Value.t array -> (Tuple.t -> unit) -> unit;
      (* all tuples whose leading fields equal the prefix *)
  probe_prefix : Value.t array -> Tuple.t list option;
      (* [Some matches] — the same tuples (same order) [iter_prefix]
         would visit, as a cacheable value for the batched hash-join
         cursor; [None] = no O(bucket) access path for this prefix,
         fall back to [iter_prefix] *)
  iter : (Tuple.t -> unit) -> unit;
  size : unit -> int;
}

let seq_batch insert arr lo hi = Array.init (hi - lo) (fun k -> insert arr.(lo + k))
let no_probe _ = None

type kind_spec =
  | Tree
  | Skiplist
  | Hash_index of int (* prefix length *)
  | Custom of (Schema.t -> t)

(* ------------------------------------------------------------------ *)
(* Ordered stores: prefix queries become range scans.                  *)

(* Lower bound tuple for a prefix: prefix fields followed by each
   remaining column's minimal value. *)
let min_value_of_ty = function
  | Value.TInt -> Value.Int min_int
  | Value.TFloat -> Value.Float neg_infinity
  | Value.TStr -> Value.Str ""
  | Value.TBool -> Value.Bool false

let lower_bound_fields schema prefix =
  Array.init (Schema.arity schema) (fun i ->
      if i < Array.length prefix then prefix.(i)
      else min_value_of_ty (Schema.field_ty schema i))

(* The comparator is bound once at store creation: the schema-compiled
   field comparator, so the per-comparison cost is one closure call with
   monomorphic fast paths — no option lookup, no per-field dispatch.
   (The generic [Tuple.compare] alternative was retired after the
   hot-path ablation priced it.) *)
let tuple_cmp schema =
  let fc = Schema.fields_compare schema in
  fun a b ->
    if a == b then 0
    else
      let c =
        Int.compare (Tuple.schema a).Schema.id (Tuple.schema b).Schema.id
      in
      if c <> 0 then c else fc (Tuple.fields a) (Tuple.fields b)

let tree schema =
  let module TSet = Set.Make (struct
    type t = Tuple.t

    let compare = tuple_cmp schema
  end) in
  let set = ref TSet.empty in
  let insert t =
    if TSet.mem t !set then false
    else (
      set := TSet.add t !set;
      true)
  in
  {
    kind = "tree";
    insert;
    insert_batch = seq_batch insert;
    mem = (fun t -> TSet.mem t !set);
    iter_prefix =
      (fun prefix f ->
        let low =
          (* The lower bound needs no type check, so build it unsafely
             through the same constructor path as ordinary tuples. *)
          Tuple.make schema (lower_bound_fields schema prefix)
        in
        let seq = TSet.to_seq_from low !set in
        let rec go s =
          match s () with
          | Seq.Nil -> ()
          | Seq.Cons (t, rest) ->
              if Tuple.matches_prefix t prefix then (
                f t;
                go rest)
        in
        go seq);
    probe_prefix =
      (fun prefix ->
        (* Ordered stores batch too: materialise the range scan in
           visit order as a cacheable value, so negative/aggregate
           probes pay one scan per distinct prefix instead of one per
           trigger. *)
        let low = Tuple.make schema (lower_bound_fields schema prefix) in
        let seq = TSet.to_seq_from low !set in
        let rec go s acc =
          match s () with
          | Seq.Cons (t, rest) when Tuple.matches_prefix t prefix ->
              go rest (t :: acc)
          | _ -> List.rev acc
        in
        Some (go seq []));
    iter = (fun f -> TSet.iter f !set);
    size = (fun () -> TSet.cardinal !set);
  }

let skiplist schema =
  let set = Jstar_cds.Cset.create ~compare:(tuple_cmp schema) () in
  let insert t = Jstar_cds.Cset.add set t in
  {
    kind = "skiplist";
    insert;
    insert_batch = seq_batch insert;
    mem = (fun t -> Jstar_cds.Cset.mem set t);
    iter_prefix =
      (fun prefix f ->
        let low = Tuple.make schema (lower_bound_fields schema prefix) in
        Jstar_cds.Cset.iter_from set low (fun t ->
            if Tuple.matches_prefix t prefix then (
              f t;
              true)
            else false));
    probe_prefix =
      (fun prefix ->
        (* Same materialised range scan as [tree]: the engine only
           probes stores whose Gamma is static for the phase, so the
           snapshot is a safe cacheable value. *)
        let low = Tuple.make schema (lower_bound_fields schema prefix) in
        let acc = ref [] in
        Jstar_cds.Cset.iter_from set low (fun t ->
            if Tuple.matches_prefix t prefix then (
              acc := t :: !acc;
              true)
            else false);
        Some (List.rev !acc));
    iter = (fun f -> Jstar_cds.Cset.iter set f);
    size = (fun () -> Jstar_cds.Cset.length set);
  }

(* ------------------------------------------------------------------ *)
(* Hash-indexed store                                                  *)

(* Buckets are keyed by the *hash* of the first [prefix_len] fields —
   an immediate int, so neither inserts nor probes allocate a key
   sub-array (the old keys copied the prefix with [Array.sub] on every
   [insert]/[mem]).  Two prefixes colliding into one bucket is safe:
   dedup probes the full-tuple [seen] set and every read filters with
   [Tuple.matches_prefix]. *)
type bucket = {
  b_mutex : Mutex.t;
  b_seen : Tuple.Dset.t; (* full-tuple dedup, cached structural hash *)
  mutable b_items : Tuple.t list; (* reverse insertion order *)
}

let hash_index ~prefix_len schema =
  if prefix_len < 1 || prefix_len > Schema.arity schema then
    raise
      (Schema.Schema_error
         (Fmt.str "%s: hash index prefix length %d out of range"
            schema.Schema.name prefix_len));
  let buckets : (int, bucket) Jstar_cds.Chashmap.t =
    Jstar_cds.Chashmap.create ~hash:(fun (h : int) -> h) ()
  in
  let total = Atomic.make 0 in
  let bucket_of h =
    Jstar_cds.Chashmap.find_or_add buckets h (fun () ->
        {
          b_mutex = Mutex.create ();
          b_seen = Tuple.Dset.create 16;
          b_items = [];
        })
  in
  let with_bucket b f =
    Mutex.lock b.b_mutex;
    Fun.protect f ~finally:(fun () -> Mutex.unlock b.b_mutex)
  in
  let key_of_tuple t = Value.hash_prefix (Tuple.fields t) prefix_len in
  (* Unlocked primitive; callers hold [b.b_mutex]. *)
  let bucket_insert b t =
    if Tuple.Dset.add_if_absent b.b_seen t then (
      b.b_items <- t :: b.b_items;
      Atomic.incr total;
      true)
    else false
  in
  {
    kind = Fmt.str "hash[%d]" prefix_len;
    insert =
      (fun t ->
        let b = bucket_of (key_of_tuple t) in
        with_bucket b (fun () -> bucket_insert b t));
    insert_batch =
      (fun arr lo hi ->
        (* Batches arrive sorted, so equal prefixes are contiguous: pay
           one bucket lookup and one lock acquisition per run instead of
           one per tuple. *)
        let res = Array.make (hi - lo) false in
        let k = ref lo in
        while !k < hi do
          let pf = Tuple.fields arr.(!k) in
          let e = ref (!k + 1) in
          while
            !e < hi
            && Value.equal_prefix (Tuple.fields arr.(!e)) pf prefix_len
          do
            incr e
          done;
          let b = bucket_of (Value.hash_prefix pf prefix_len) in
          with_bucket b (fun () ->
              for j = !k to !e - 1 do
                if bucket_insert b arr.(j) then res.(j - lo) <- true
              done);
          k := !e
        done;
        res);
    mem =
      (fun t ->
        match Jstar_cds.Chashmap.find_opt buckets (key_of_tuple t) with
        | None -> false
        | Some b -> with_bucket b (fun () -> Tuple.Dset.mem b.b_seen t));
    iter_prefix =
      (fun prefix f ->
        if Array.length prefix >= prefix_len then (
          (* Exact or over-specified prefix: one bucket (+ filter). *)
          match
            Jstar_cds.Chashmap.find_opt buckets
              (Value.hash_prefix prefix prefix_len)
          with
          | None -> ()
          | Some b ->
              let items = with_bucket b (fun () -> b.b_items) in
              List.iter
                (fun t -> if Tuple.matches_prefix t prefix then f t)
                items)
        else
          (* Under-specified prefix: full scan.  Legal but defeats the
             hash; a table read by its first k columns wants
             [Hash_index k] (or an ordered store) instead. *)
          Jstar_cds.Chashmap.iter buckets (fun _ b ->
              let items = with_bucket b (fun () -> b.b_items) in
              List.iter
                (fun t -> if Tuple.matches_prefix t prefix then f t)
                items));
    probe_prefix =
      (fun prefix ->
        (* The batched hash-join path: exactly [iter_prefix]'s bucket
           case, returned as a value.  [b_items] is immutable once read
           (inserts cons a fresh head), so no copy is needed. *)
        if Array.length prefix < prefix_len then begin
          (* Under-specified prefix: the same full scan [iter_prefix]
             takes, materialised in the same traversal order — one scan
             per distinct prefix amortised by the firing cursor rather
             than one per trigger (the negative/aggregate batch path). *)
          let acc = ref [] in
          Jstar_cds.Chashmap.iter buckets (fun _ b ->
              let items = with_bucket b (fun () -> b.b_items) in
              List.iter
                (fun t -> if Tuple.matches_prefix t prefix then acc := t :: !acc)
                items);
          Some (List.rev !acc)
        end
        else
          match
            Jstar_cds.Chashmap.find_opt buckets
              (Value.hash_prefix prefix prefix_len)
          with
          | None -> Some []
          | Some b ->
              let items = with_bucket b (fun () -> b.b_items) in
              Some
                (List.filter (fun t -> Tuple.matches_prefix t prefix) items));
    iter =
      (fun f ->
        Jstar_cds.Chashmap.iter buckets (fun _ b ->
            let items = with_bucket b (fun () -> b.b_items) in
            List.iter f items));
    size = (fun () -> Atomic.get total);
  }

(* ------------------------------------------------------------------ *)
(* Native dense arrays                                                 *)

(* A table (int k1, ..., int kn -> int v) whose keys are dense within
   known dimensions maps to a flat int array plus a presence bitmap.
   The returned [handle] gives the application O(1) unboxed access —
   the equivalent of the Java 2D-array Gamma stores of §6.4. *)

type int_array_handle = {
  ia_get : int array -> int;
  ia_set_raw : int array -> int -> unit; (* bypasses the store interface *)
  ia_present : int array -> bool;
  ia_data : int array;
}

let flat_index dims keys =
  let n = Array.length dims in
  if Array.length keys <> n then invalid_arg "native store: key arity";
  let rec go i acc =
    if i >= n then acc
    else
      let k = keys.(i) in
      if k < 0 || k >= dims.(i) then
        invalid_arg
          (Fmt.str "native store: key %d out of range [0,%d)" k dims.(i))
      else go (i + 1) ((acc * dims.(i)) + k)
  in
  go 0 0

let total_size dims = Array.fold_left ( * ) 1 dims

let native_int_array ~dims schema =
  let nkeys = Array.length dims in
  if Schema.arity schema <> nkeys + 1 then
    raise
      (Schema.Schema_error
         (schema.Schema.name
        ^ ": native int store needs one dependent value column"));
  let data = Array.make (total_size dims) 0 in
  let present = Bytes.make (total_size dims) '\000' in
  let count = Atomic.make 0 in
  let keys_of_tuple t =
    Array.init nkeys (fun i -> Tuple.int_at t i)
  in
  let handle =
    {
      ia_get = (fun keys -> data.(flat_index dims keys));
      ia_set_raw =
        (fun keys v ->
          let i = flat_index dims keys in
          data.(i) <- v;
          if Bytes.get present i = '\000' then (
            Bytes.set present i '\001';
            Atomic.incr count));
      ia_present = (fun keys -> Bytes.get present (flat_index dims keys) <> '\000');
      ia_data = data;
    }
  in
  let tuple_at idx =
    let keys = Array.make nkeys 0 in
    let rec unflatten i rem =
      if i >= 0 then (
        keys.(i) <- rem mod dims.(i);
        unflatten (i - 1) (rem / dims.(i)))
    in
    unflatten (nkeys - 1) idx;
    Tuple.make schema
      (Array.append
         (Array.map (fun k -> Value.Int k) keys)
         [| Value.Int data.(idx) |])
  in
  let insert t =
    let keys = keys_of_tuple t in
    let i = flat_index dims keys in
    if Bytes.get present i <> '\000' then false
    else (
      data.(i) <- Tuple.int_at t nkeys;
      Bytes.set present i '\001';
      Atomic.incr count;
      true)
  in
  let store =
    {
      kind = "native-int";
      insert;
      insert_batch = seq_batch insert;
      mem =
        (fun t ->
          let i = flat_index dims (keys_of_tuple t) in
          Bytes.get present i <> '\000' && data.(i) = Tuple.int_at t nkeys);
      iter_prefix =
        (fun prefix f ->
          (* Reconstructs tuples on the fly; applications needing speed
             use the typed handle instead. *)
          let n = total_size dims in
          for i = 0 to n - 1 do
            if Bytes.get present i <> '\000' then
              let t = tuple_at i in
              if Tuple.matches_prefix t prefix then f t
          done);
      probe_prefix = no_probe;
      iter =
        (fun f ->
          let n = total_size dims in
          for i = 0 to n - 1 do
            if Bytes.get present i <> '\000' then f (tuple_at i)
          done);
      size = (fun () -> Atomic.get count);
    }
  in
  (store, handle)

(* The float twin of [native_int_array]: (int keys -> double value)
   over a flat [float array] — the Median program's double[2][100M]. *)
type float_array_handle = {
  fa_get : int array -> float;
  fa_set_raw : int array -> float -> unit;
  fa_present : int array -> bool;
  fa_data : float array;
}

let native_float_array ~dims schema =
  let nkeys = Array.length dims in
  if Schema.arity schema <> nkeys + 1 then
    raise
      (Schema.Schema_error
         (schema.Schema.name
        ^ ": native float store needs one dependent value column"));
  let data = Array.make (total_size dims) 0.0 in
  let present = Bytes.make (total_size dims) '\000' in
  let count = Atomic.make 0 in
  let keys_of_tuple t = Array.init nkeys (fun i -> Tuple.int_at t i) in
  let handle =
    {
      fa_get = (fun keys -> data.(flat_index dims keys));
      fa_set_raw =
        (fun keys v ->
          let i = flat_index dims keys in
          data.(i) <- v;
          if Bytes.get present i = '\000' then (
            Bytes.set present i '\001';
            Atomic.incr count));
      fa_present =
        (fun keys -> Bytes.get present (flat_index dims keys) <> '\000');
      fa_data = data;
    }
  in
  let tuple_at idx =
    let keys = Array.make nkeys 0 in
    let rec unflatten i rem =
      if i >= 0 then (
        keys.(i) <- rem mod dims.(i);
        unflatten (i - 1) (rem / dims.(i)))
    in
    unflatten (nkeys - 1) idx;
    Tuple.make schema
      (Array.append
         (Array.map (fun k -> Value.Int k) keys)
         [| Value.Float data.(idx) |])
  in
  let insert t =
    let keys = keys_of_tuple t in
    let i = flat_index dims keys in
    if Bytes.get present i <> '\000' then false
    else (
      data.(i) <- Tuple.float_at t nkeys;
      Bytes.set present i '\001';
      Atomic.incr count;
      true)
  in
  let store =
    {
      kind = "native-float";
      insert;
      insert_batch = seq_batch insert;
      mem =
        (fun t ->
          let i = flat_index dims (keys_of_tuple t) in
          Bytes.get present i <> '\000' && data.(i) = Tuple.float_at t nkeys);
      iter_prefix =
        (fun prefix f ->
          let n = total_size dims in
          for i = 0 to n - 1 do
            if Bytes.get present i <> '\000' then
              let t = tuple_at i in
              if Tuple.matches_prefix t prefix then f t
          done);
      probe_prefix = no_probe;
      iter =
        (fun f ->
          let n = total_size dims in
          for i = 0 to n - 1 do
            if Bytes.get present i <> '\000' then f (tuple_at i)
          done);
      size = (fun () -> Atomic.get count);
    }
  in
  (store, handle)

let of_spec spec schema =
  match spec with
  | Tree -> tree schema
  | Skiplist -> skiplist schema
  | Hash_index k -> hash_index ~prefix_len:k schema
  | Custom f -> f schema

let default_for ~parallel schema =
  if parallel then skiplist schema else tree schema

(* ------------------------------------------------------------------ *)
(* Windowed stores: manual lifetime hints                              *)

(* Step 4 of the tuple lifecycle (Fig 3) is garbage collection of tuples
   that can never be queried again.  "Currently, this program analysis
   is not automated, so we simply retain all tuples, or use manual
   lifetime hints from the user" — [windowed] is that hint, generalised
   from the Median program's keep-only-iter-and-iter+1 trick: tuples are
   bucketed by an integer field, and only the buckets within [width] of
   the largest value seen remain queryable; older buckets are dropped
   wholesale. *)

let windowed ~field ~width inner schema =
  if width < 1 then invalid_arg "Store.windowed: width < 1";
  let pos = Schema.field_pos schema field in
  let buckets : (int, t) Hashtbl.t = Hashtbl.create 8 in
  let mutex = Mutex.create () in
  let high = ref min_int in
  let with_lock f =
    Mutex.lock mutex;
    Fun.protect f ~finally:(fun () -> Mutex.unlock mutex)
  in
  let evict_older_than keep_from =
    Hashtbl.iter
      (fun k _ -> if k < keep_from then Hashtbl.remove buckets k)
      (Hashtbl.copy buckets)
  in
  let bucket_of v =
    match Hashtbl.find_opt buckets v with
    | Some b -> b
    | None ->
        let b = inner schema in
        Hashtbl.replace buckets v b;
        b
  in
  let live () =
    Hashtbl.fold (fun _ b acc -> b :: acc) buckets []
  in
  let insert t =
    let v = Value.to_int (Tuple.get t pos) in
    with_lock (fun () ->
        if !high <> min_int && v <= !high - width then
          (* The tuple is already outside the window: dropping it is
             the caller's declared intent, and [false] keeps the
             set-semantics contract ("not newly stored"). *)
          false
        else begin
          if v > !high then begin
            high := v;
            evict_older_than (v - width + 1)
          end;
          (bucket_of v).insert t
        end)
  in
  {
    kind = Fmt.str "windowed[%s,%d]" field width;
    insert;
    insert_batch = seq_batch insert;
    mem =
      (fun t ->
        let v = Value.to_int (Tuple.get t pos) in
        with_lock (fun () ->
            match Hashtbl.find_opt buckets v with
            | Some b -> b.mem t
            | None -> false));
    iter_prefix =
      (fun prefix f ->
        let bs = with_lock live in
        List.iter (fun b -> b.iter_prefix prefix f) bs);
    probe_prefix = no_probe;
    iter =
      (fun f ->
        let bs = with_lock live in
        List.iter (fun b -> b.iter f) bs);
    size =
      (fun () ->
        with_lock (fun () ->
            Hashtbl.fold (fun _ b acc -> acc + b.size ()) buckets 0));
  }
