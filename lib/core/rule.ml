(* Rules: the [foreach (Table t) { ... }] construct.

   A rule is triggered by one table; its body receives an execution
   context (the window onto the engine: queries against Gamma and [put])
   and the trigger tuple.  The body must follow the law of causality —
   every put into the present or future, every negative/aggregate query
   strictly in the past — which the causality checker verifies from the
   rule's declared [reads]/[puts] metadata, and which the engine can also
   assert dynamically per put. *)

type ctx = {
  put : Tuple.t -> unit;
      (* Add a tuple to the database (routed through Delta unless the
         table is configured -noDelta). *)
  iter_prefix : Schema.t -> Value.t array -> (Tuple.t -> unit) -> unit;
      (* Positive query: visit Gamma tuples matching a leading prefix. *)
  store_of : Schema.t -> Store.t;
      (* Direct access to a table's Gamma store (for custom stores). *)
  println : string -> unit;
      (* Debug output, collected deterministically per step. *)
  class_ts : unit -> Timestamp.t option;
      (* Timestamp of the equivalence class being executed. *)
  par_iter : int -> int -> (int -> unit) -> unit;
      (* [par_iter lo hi f]: run [f] over [lo, hi) using the engine's
         pool when one exists — the §5.2 "embarrassingly parallel for
         loops within rules".  The iterations must be independent (no
         reducer object); falls back to a sequential loop at 1 thread. *)
}

type t = {
  name : string;
  trigger : Schema.t;
  body : ctx -> Tuple.t -> unit;
  reads : Spec.read_spec list;
  puts : Spec.put_spec list;
  assumes : Spec.constr list;
      (* invariants/guards the causality checker may use *)
  prov : bool;
      (* capture lineage for this rule's puts when Config.provenance is
         on?  [~provenance:false] opts a hot rule out: its puts skip
         the per-put candidate record (the +55% worst case), at the
         price of its tuples showing as untracked in Explain *)
  mutable rid : int;
      (* program-wide rule id in declaration order, assigned at freeze;
         -1 until then.  Lineage records carry it instead of the name *)
}

let make ?(reads = []) ?(puts = []) ?(assumes = []) ?(provenance = true) ~name
    ~trigger body =
  { name; trigger; body; reads; puts; assumes; prov = provenance; rid = -1 }

let pp ppf r =
  Fmt.pf ppf "foreach (%s %s) { ... }" r.trigger.Schema.name r.name
