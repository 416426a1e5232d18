(* Immutable tuples: one row of a relation.

   Construction mirrors the three forms in §3 of the paper:
   - by position:        [make schema [| Int 0; Int 10; ... |]]
   - by name + defaults: [build schema ["x", Int 10; "dx", Int 150]]
   - builder copy:       [with_fields t ["x", Int 20]]                 *)

(* [hcache] memoises the structural hash ([no_hash] = not yet computed).
   Writes are a benign race: every domain computes the same word-sized
   value, so concurrent lazy initialisation cannot tear or diverge. *)
type t = { schema : Schema.t; fields : Value.t array; mutable hcache : int }

let no_hash = min_int

exception Tuple_error of string

let check_types schema fields =
  for i = 0 to Array.length fields - 1 do
    let want = Schema.field_ty schema i in
    let got = Value.type_of (Array.unsafe_get fields i) in
    (* Int widens to Float implicitly, as OCaml ints do in to_float. *)
    if not (got = want || (want = Value.TFloat && got = Value.TInt)) then
      raise
        (Tuple_error
           (Fmt.str "%s.%s: expected %s, got %s" schema.Schema.name
              schema.Schema.columns.(i).Schema.col_name
              (Value.ty_name want) (Value.ty_name got)))
  done

let make schema fields =
  if Array.length fields <> Schema.arity schema then
    raise
      (Tuple_error
         (Fmt.str "%s: expected %d fields, got %d" schema.Schema.name
            (Schema.arity schema) (Array.length fields)));
  check_types schema fields;
  { schema; fields; hcache = no_hash }

let build schema assignments =
  let fields =
    Array.map
      (fun c -> Value.default_of_ty c.Schema.col_ty)
      schema.Schema.columns
  in
  List.iter
    (fun (name, v) -> fields.(Schema.field_pos schema name) <- v)
    assignments;
  make schema fields

let with_fields t assignments =
  let fields = Array.copy t.fields in
  List.iter
    (fun (name, v) -> fields.(Schema.field_pos t.schema name) <- v)
    assignments;
  make t.schema fields

let schema t = t.schema
let fields t = t.fields
let get t i = t.fields.(i)
let get_name t name = t.fields.(Schema.field_pos t.schema name)
let int t name = Value.to_int (get_name t name)
let float t name = Value.to_float (get_name t name)
let str t name = Value.to_string (get_name t name)
let bool t name = Value.to_bool (get_name t name)
let int_at t i = Value.to_int t.fields.(i)
let float_at t i = Value.to_float t.fields.(i)

let key t = Array.sub t.fields 0 t.schema.Schema.key_arity

let equal a b =
  a == b
  || (a.schema.Schema.id = b.schema.Schema.id
     && Value.equal_arrays a.fields b.fields)

(* Total order within and across tables: by table id, then fields
   lexicographically.  This is the order of the default tree-set Gamma
   store, which also makes leading-prefix queries range queries. *)
let compare a b =
  let c = Stdlib.compare a.schema.Schema.id b.schema.Schema.id in
  if c <> 0 then c else Value.compare_arrays a.fields b.fields

(* Same order as [compare], through the schema-compiled monomorphic
   comparator — the hot-path variant. *)
let fast_compare a b =
  if a == b then 0
  else
    let c = Int.compare a.schema.Schema.id b.schema.Schema.id in
    if c <> 0 then c else Schema.fields_compare a.schema a.fields b.fields

let compute_hash t =
  let h = (t.schema.Schema.id * 0x01000193) + Value.hash_array t.fields in
  (* [Value.hash_array] is a linear fold with no avalanche; its low bits
     barely move for small-int fields, and [Hashtbl.Make] masks with the
     (power-of-two) table size.  Finalize with an xorshift-multiply mix
     so every input bit reaches the low bits. *)
  let h = h lxor (h lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  if h = no_hash then h + 1 else h

let hash t =
  let h = t.hcache in
  if h <> no_hash then h
  else
    let h = compute_hash t in
    t.hcache <- h;
    h

(* Dedup tables keyed directly by tuples: probes reuse the cached hash
   instead of re-walking the boxed field array. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* The set-semantics hot path is "add unless present", which a generic
   hashtable spells as mem + replace — two bucket walks and three hash
   calls per probe.  [Dset] is a chained hash set doing it in ONE probe:
   hash once (usually a cached-field read), walk the bucket once, and
   skip the field comparison entirely whenever the stored tuple's cached
   hash differs from the probe's. *)
module Dset = struct
  type tuple = t

  (* A chain cell.  [next] is mutable so that [resize] relinks the
     cells into the new bucket array instead of re-consing every chain:
     the only allocation of a resize is the bucket array itself. *)
  type node = Nil | Node of { v : tuple; mutable next : node }

  type t = {
    mutable buckets : node array;
    mutable size : int;
  }

  let create n =
    let cap = max 8 n in
    (* round up to a power of two so masking replaces mod *)
    let cap =
      let c = ref 8 in
      while !c < cap do
        c := !c * 2
      done;
      !c
    in
    { buckets = Array.make cap Nil; size = 0 }

  (* The chain walks are top-level functions with explicit arguments,
     so a probe allocates no closure. *)
  let rec chain_mem t h = function
    | Nil -> false
    | Node n ->
        n.v == t || (n.v.hcache = h && equal n.v t) || chain_mem t h n.next

  (* Move each cell of a chain to the head of its bucket in [fresh]. *)
  let rec relink fresh mask = function
    | Nil -> ()
    | Node n as cell ->
        let next = n.next in
        let i = n.v.hcache land mask in
        n.next <- Array.unsafe_get fresh i;
        Array.unsafe_set fresh i cell;
        relink fresh mask next

  let resize s =
    let old = s.buckets in
    let fresh = Array.make (2 * Array.length old) Nil in
    for i = 0 to Array.length old - 1 do
      relink fresh (Array.length fresh - 1) (Array.unsafe_get old i)
    done;
    s.buckets <- fresh

  let mem s t =
    let h = hash t in
    chain_mem t h s.buckets.(h land (Array.length s.buckets - 1))

  (* Cons [t] onto bucket [i]; grow past two cells per bucket. *)
  let push s i t =
    s.buckets.(i) <- Node { v = t; next = s.buckets.(i) };
    s.size <- s.size + 1;
    if s.size > 2 * (Array.length s.buckets - 1) then resize s

  let add_if_absent s t =
    let h = hash t in
    let i = h land (Array.length s.buckets - 1) in
    if chain_mem t h s.buckets.(i) then false else (push s i t; true)

  let add s t = push s (hash t land (Array.length s.buckets - 1)) t

  let length s = s.size

  let rec fold_chain f acc = function
    | Nil -> acc
    | Node n -> fold_chain f (f acc n.v) n.next

  let fold f s acc = Array.fold_left (fold_chain f) acc s.buckets

  (* Costs what the set holds, not what it once held: capacities only
     grow, so a sparse table is replaced by one sized to its contents
     instead of being filled end to end. *)
  let clear s =
    if s.size > 0 then begin
      let cap = Array.length s.buckets in
      if cap > 8 * s.size then s.buckets <- (create s.size).buckets
      else Array.fill s.buckets 0 cap Nil;
      s.size <- 0
    end
end

let pp ppf t =
  Fmt.pf ppf "%s(%a)" t.schema.Schema.name
    (Fmt.array ~sep:(Fmt.any ", ") Value.pp)
    t.fields

let show t = Fmt.str "%a" pp t

(* Does the tuple start with the given prefix of field values?  Used by
   leading-field queries such as [get PvWatts(year, month)]. *)
let matches_prefix t prefix =
  let n = Array.length prefix in
  n <= Array.length t.fields && Value.equal_prefix t.fields prefix n
