(* Dynamically-typed field values.

   JStar tuples are rows of a relation whose columns carry one of a small
   set of scalar types.  The original compiles each table to a Java class
   with typed fields; our embedded runtime stores rows as [value array],
   which is exactly the boxed representation the paper complains about in
   the MatrixMult study (XText generating boxed Integers) — the
   "native-arrays" Gamma stores recover the unboxed representation. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ty = TInt | TFloat | TStr | TBool

(* Shared boxes for small non-negative ints: years, months, hours, sites
   and most CSV readings fit, so a tuple of them shares its field boxes
   instead of keeping private ones.  Sharing is safe because values are
   immutable and nothing compares them physically.  The table is built
   on first use, not at module initialisation: filling it costs about
   half a millisecond (every young box stored into the major-heap array
   goes through the write barrier), which a process that never asks for
   a shared box should not pay.  Two domains racing to build it agree
   through the CAS. *)
let small_ints = 8192
let small_boxes : t array Atomic.t = Atomic.make [||]

let shared_boxes () =
  let a = Atomic.get small_boxes in
  if Array.length a > 0 then a
  else begin
    let fresh = Array.init small_ints (fun i -> Int i) in
    ignore (Atomic.compare_and_set small_boxes a fresh);
    Atomic.get small_boxes
  end

let int n =
  if n >= 0 && n < small_ints then Array.unsafe_get (shared_boxes ()) n
  else Int n

let type_of = function
  | Int _ -> TInt
  | Float _ -> TFloat
  | Str _ -> TStr
  | Bool _ -> TBool

let ty_name = function
  | TInt -> "int"
  | TFloat -> "double"
  | TStr -> "String"
  | TBool -> "boolean"

(* Total order: values of the same type compare naturally; values of
   different types (ill-typed programs only) order by type tag so that
   comparison stays a total order. *)
let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Str x, Str y -> Stdlib.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | _ ->
      let rank = function Int _ -> 0 | Float _ -> 1 | Str _ -> 2 | Bool _ -> 3 in
      Stdlib.compare (rank a) (rank b)

(* Same equivalence as [compare ... = 0] (including nan = nan for
   floats, via the float compare), without the rank detour. *)
let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Float x, Float y -> Stdlib.compare x y = 0
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | _ -> false

let hash = function
  | Int x -> x * 0x9e3779b1
  | Float x -> Hashtbl.hash x
  | Str s -> Hashtbl.hash s
  | Bool b -> if b then 0x5bd1e995 else 0x1b873593

let default_of_ty = function
  | TInt -> Int 0
  | TFloat -> Float 0.0
  | TStr -> Str ""
  | TBool -> Bool false

exception Type_error of string

let to_int = function
  | Int x -> x
  | v -> raise (Type_error ("expected int, got " ^ ty_name (type_of v)))

let to_float = function
  | Float x -> x
  | Int x -> float_of_int x
  | v -> raise (Type_error ("expected double, got " ^ ty_name (type_of v)))

let to_string = function
  | Str s -> s
  | v -> raise (Type_error ("expected String, got " ^ ty_name (type_of v)))

let to_bool = function
  | Bool b -> b
  | v -> raise (Type_error ("expected boolean, got " ^ ty_name (type_of v)))

let pp ppf = function
  | Int x -> Fmt.int ppf x
  | Float x -> Fmt.float ppf x
  | Str s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b

let show v = Fmt.str "%a" pp v

(* Array helpers used pervasively for tuple fields and query prefixes.
   The walks are top-level functions with explicit arguments, not local
   closures, so no comparison or probe on the put path allocates. *)
let rec compare_from a b i =
  let la = Array.length a and lb = Array.length b in
  if i >= la then if i >= lb then 0 else -1
  else if i >= lb then 1
  else
    let c = compare (Array.unsafe_get a i) (Array.unsafe_get b i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare_arrays a b = compare_from a b 0

(* Do slots [i, k) of [a] and [b] hold equal values? *)
let rec equal_upto a b i k =
  i >= k
  || equal (Array.unsafe_get a i) (Array.unsafe_get b i)
     && equal_upto a b (i + 1) k

let equal_arrays a b =
  let la = Array.length a in
  la = Array.length b && equal_upto a b 0 la

let hash_array a =
  let n = Array.length a in
  let h = ref n in
  for i = 0 to n - 1 do
    h := (!h * 31) + hash (Array.unsafe_get a i)
  done;
  !h

(* Same recipe as [hash_array] restricted to the first [k] slots, so
   [hash_prefix a k = hash_array (Array.sub a 0 k)] without the copy. *)
let hash_prefix a k =
  let h = ref k in
  for i = 0 to k - 1 do
    h := (!h * 31) + hash (Array.unsafe_get a i)
  done;
  !h

let equal_prefix a b k = equal_upto a b 0 k
