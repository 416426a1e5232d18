(* Declarative rule metadata: what a rule reads and puts, described
   symbolically in terms of the trigger tuple's fields.

   This is the information the original JStar compiler extracts from the
   rule source and hands to the SMT solvers (§4).  In the embedded
   runtime, rule bodies are opaque OCaml functions, so the programmer
   states the same facts here; the causality checker then discharges the
   proof obligations with a difference-logic solver, and the dependency
   graph tools use the table names. *)

(* Integer-valued symbolic expression over the trigger tuple's fields.
   The difference-logic fragment: a field plus a constant, or a constant.
   [Unknown] means "no information" — obligations mentioning it fail,
   producing the paper's warning. *)
type iexpr =
  | Field of string (* value of a trigger field *)
  | Const of int
  | Add of iexpr * int
  | Unknown

let rec normalise = function
  | Add (e, 0) -> normalise e
  | Add (Add (e, a), b) -> normalise (Add (e, a + b))
  | Add (Const a, b) -> Const (a + b)
  | Add (Unknown, _) -> Unknown
  | e -> e

(* Decompose into (base field, offset): Field f + c, or a pure constant,
   or unknown. *)
type flat = FField of string * int | FConst of int | FUnknown

let flatten e =
  match normalise e with
  | Field f -> FField (f, 0)
  | Const c -> FConst c
  | Add (Field f, c) -> FField (f, c)
  | Add (Const a, c) -> FConst (a + c)
  | Add (Add _, _) | Add (Unknown, _) -> FUnknown
  | Unknown -> FUnknown

(* A symbolic timestamp: for each orderby entry of the target table,
   either the literal (implied by the table) or the int expression the
   rule assigns to that seq/par field. *)
type ts_binding = { field : string; expr : iexpr }

type read_kind =
  | Positive (* plain [get]: allowed at timestamps <= trigger *)
  | Negative (* [get uniq? ... == null] tests: must be < trigger *)
  | Aggregate (* min/count/sum/reduce queries: must be < trigger *)

type read_spec = {
  rd_table : string;
  rd_kind : read_kind;
  rd_ts : ts_binding list;
      (* known bindings for the read's orderby fields; missing fields are
         unconstrained *)
  rd_prefix : iexpr list;
      (* the leading key fields the rule's body passes as the query
         prefix, as expressions over the trigger tuple ([Field] entries
         for a plain hash join).  Purely descriptive for the checker;
         Phase B uses it to sort each (rule, table) run by join key so
         equal probes become one cursor hit.  Empty = undeclared (no sort). *)
}

type put_spec = {
  pt_table : string;
  pt_ts : ts_binding list;
  pt_when : string option; (* human label of the condition guarding it *)
}

(* Extra difference constraints known to hold when the rule fires —
   tuple invariants and rule guards, e.g. "distance >= 0" as
   [Ge (Field "distance", Const 0)]. *)
type constr =
  | Le of iexpr * iexpr (* a <= b *)
  | Lt of iexpr * iexpr
  | Eq of iexpr * iexpr

let read ?(kind = Positive) ?(ts = []) ?(prefix = []) table =
  { rd_table = table; rd_kind = kind; rd_ts = ts; rd_prefix = prefix }

let put ?when_ ?(ts = []) table = { pt_table = table; pt_ts = ts; pt_when = when_ }

let bind field expr = { field; expr }

let pp_iexpr ppf e =
  let rec go ppf = function
    | Field f -> Fmt.string ppf f
    | Const c -> Fmt.int ppf c
    | Add (e, c) when c >= 0 -> Fmt.pf ppf "%a+%d" go e c
    | Add (e, c) -> Fmt.pf ppf "%a-%d" go e (-c)
    | Unknown -> Fmt.string ppf "?"
  in
  go ppf (normalise e)
