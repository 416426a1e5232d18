(* Table schemas: the [table Name(cols -> cols) orderby (...)] declaration.

   Columns before the [->] form the primary key (the ShipTable invariant
   that only one Ship exists per frame); the orderby list defines which
   fields and literals make up the tuple's causality timestamp. *)

type orderby_entry =
  | Lit of string (* capitalised literal, ranked by the order declarations *)
  | Seq of string (* [seq f]: this level is processed in field order *)
  | Par of string (* [par f]: subtrees at this level run in parallel *)

type column = { col_name : string; col_ty : Value.ty }

type t = {
  id : int; (* dense unique id, assigned by the program registry *)
  name : string;
  columns : column array;
  key_arity : int; (* leading columns forming the primary key; 0 = none *)
  orderby : orderby_entry array;
  index : (string, int) Hashtbl.t; (* column name -> position *)
  orderby_fields : int array; (* column position per orderby entry; -1 = Lit *)
  mutable fields_cmp : (Value.t array -> Value.t array -> int) option;
      (* schema-specialized field comparator, compiled on first use;
         a racy double compile is benign (both closures are equivalent) *)
}

exception Schema_error of string

let orderby_entry_field = function Lit _ -> None | Seq f | Par f -> Some f

let pp_orderby_entry ppf = function
  | Lit l -> Fmt.string ppf l
  | Seq f -> Fmt.pf ppf "seq %s" f
  | Par f -> Fmt.pf ppf "par %s" f

let column name ty = { col_name = name; col_ty = ty }
let int_col name = column name Value.TInt
let float_col name = column name Value.TFloat
let string_col name = column name Value.TStr
let bool_col name = column name Value.TBool

let make ~id ~name ~columns ~key_arity ~orderby =
  if name = "" then raise (Schema_error "table name must be non-empty");
  let columns = Array.of_list columns in
  if Array.length columns = 0 then
    raise (Schema_error (name ^ ": a table needs at least one column"));
  if key_arity < 0 || key_arity > Array.length columns then
    raise (Schema_error (name ^ ": key arity out of range"));
  let index = Hashtbl.create (Array.length columns) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem index c.col_name then
        raise (Schema_error (name ^ ": duplicate column " ^ c.col_name));
      Hashtbl.replace index c.col_name i)
    columns;
  let orderby = Array.of_list orderby in
  let orderby_fields =
    Array.map
      (fun entry ->
        match orderby_entry_field entry with
        | None -> -1
        | Some f -> (
            match Hashtbl.find_opt index f with
            | Some i -> i
            | None ->
                raise
                  (Schema_error
                     (Fmt.str "%s: orderby refers to unknown field %s" name f))))
      orderby
  in
  { id; name; columns; key_arity; orderby; index; orderby_fields;
    fields_cmp = None }

let arity t = Array.length t.columns

let field_pos t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> i
  | None -> raise (Schema_error (t.name ^ ": unknown field " ^ name))

let field_ty t i = t.columns.(i).col_ty

let key_columns t = Array.sub t.columns 0 t.key_arity

let has_key t = t.key_arity > 0

(* -- schema-specialized field comparison ----------------------------- *)

(* Per-column monomorphic comparators.  Each must induce exactly the
   order of [Value.compare]: in particular a TFloat column may legally
   hold an [Int] (the widening rule), and [Value.compare] orders mixed
   [Int]/[Float] by constructor rank, so the float fast path only fires
   on a [Float]/[Float] pair. *)
let column_cmp = function
  | Value.TInt -> (
      fun a b ->
        match (a, b) with
        | Value.Int x, Value.Int y -> Int.compare x y
        | _ -> Value.compare a b)
  | Value.TFloat -> (
      fun a b ->
        match (a, b) with
        | Value.Float x, Value.Float y -> Float.compare x y
        | Value.Int x, Value.Int y -> Int.compare x y
        | _ -> Value.compare a b)
  | Value.TStr -> (
      fun a b ->
        match (a, b) with
        | Value.Str x, Value.Str y -> String.compare x y
        | _ -> Value.compare a b)
  | Value.TBool -> (
      fun a b ->
        match (a, b) with
        | Value.Bool x, Value.Bool y -> Bool.compare x y
        | _ -> Value.compare a b)

(* The compiled comparators' walks, top-level so that a comparison
   allocates no closure.  [compare_ints] is the common all-int schema:
   one tight loop, no per-field closure call. *)
let rec compare_ints a b i n =
  if i >= n then 0
  else
    match (Array.unsafe_get a i, Array.unsafe_get b i) with
    | Value.Int x, Value.Int y ->
        if x < y then -1 else if x > y then 1 else compare_ints a b (i + 1) n
    | va, vb ->
        let c = Value.compare va vb in
        if c <> 0 then c else compare_ints a b (i + 1) n

let rec compare_columns cmps a b i n =
  if i >= n then 0
  else
    let c =
      (Array.unsafe_get cmps i) (Array.unsafe_get a i) (Array.unsafe_get b i)
    in
    if c <> 0 then c else compare_columns cmps a b (i + 1) n

let compile_fields_compare columns =
  let n = Array.length columns in
  if Array.for_all (fun c -> c.col_ty = Value.TInt) columns then fun a b ->
    if Array.length a <> n || Array.length b <> n then Value.compare_arrays a b
    else compare_ints a b 0 n
  else
    let cmps = Array.map (fun c -> column_cmp c.col_ty) columns in
    fun a b ->
      if Array.length a <> n || Array.length b <> n then Value.compare_arrays a b
      else compare_columns cmps a b 0 n

let fields_compare t =
  match t.fields_cmp with
  | Some f -> f
  | None ->
      let f = compile_fields_compare t.columns in
      t.fields_cmp <- Some f;
      f

let pp ppf t =
  let pp_col ppf c = Fmt.pf ppf "%s %s" (Value.ty_name c.col_ty) c.col_name in
  let keys = Array.to_list (Array.sub t.columns 0 t.key_arity) in
  let rest =
    Array.to_list (Array.sub t.columns t.key_arity (arity t - t.key_arity))
  in
  (match keys with
  | [] -> Fmt.pf ppf "table %s(%a)" t.name (Fmt.list ~sep:Fmt.comma pp_col) rest
  | _ ->
      Fmt.pf ppf "table %s(%a -> %a)" t.name
        (Fmt.list ~sep:Fmt.comma pp_col)
        keys
        (Fmt.list ~sep:Fmt.comma pp_col)
        rest);
  if Array.length t.orderby > 0 then
    Fmt.pf ppf " orderby (%a)"
      (Fmt.array ~sep:Fmt.comma pp_orderby_entry)
      t.orderby
