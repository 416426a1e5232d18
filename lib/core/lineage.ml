(* Tuple lineage capture (Config.provenance).

   Every put — accepted or deduplicated away — appends one candidate
   derivation record to a per-domain-striped arena: producing rule id,
   step number, firing domain, and the input tuples the rule's body
   literals had bound when it put (trigger last).  The multiset of puts
   a run performs is schedule-independent (it is a function of the
   class sequence, which the law of causality fixes), so the candidate
   multiset is too.

   At each end-of-step barrier the engine drains the arenas into a
   per-tuple table keeping only the *minimum* candidate under a
   deterministic order — (step, rule id, parents lexicographically) —
   which makes the chosen derivation of every tuple identical at any
   thread count, and bounds memory by distinct tuples rather than total
   puts.  Minimum-step also means the chosen candidate is one recorded
   when the tuple was first created, so following parent links always
   moves to tuples created no later — derivations bottom out in seed
   puts (step 0, rule [Prov_frame.seed_rule]) instead of cycling.
   ([Explain] still carries a path guard for defence in depth.)

   Hot-path cost when enabled: one record allocation and one striped
   mutex push per put.  When [Config.provenance] is off the engine never
   calls in here. *)

type record = {
  r_tuple : Tuple.t;
  r_rule : int;  (* >= 0, or Prov_frame.seed_rule / action_rule *)
  r_step : int;  (* 0 = initial puts, classes count from 1 *)
  r_domain : int;  (* domain id that performed the put *)
  r_parents : Tuple.t array;  (* trigger first, then outer-to-inner bindings *)
}

type arena = {
  a_mutex : Mutex.t;
  mutable a_records : record list; (* newest first *)
}

type t = {
  arenas : arena array; (* striped by domain id *)
  best : record Tuple.Tbl.t; (* merged minimum candidate per tuple *)
  mutable recorded : int; (* candidates appended, lifetime *)
  mutable merged : int; (* candidates drained through [merge] *)
}

let create ~stripes =
  {
    arenas =
      Array.init stripes (fun _ ->
          { a_mutex = Mutex.create (); a_records = [] });
    best = Tuple.Tbl.create 4096;
    recorded = 0;
    merged = 0;
  }

let record t ~rule ~step ~parents tuple =
  let a =
    t.arenas.((Domain.self () :> int) land (Array.length t.arenas - 1))
  in
  let r = { r_tuple = tuple; r_rule = rule; r_step = step;
            r_domain = (Domain.self () :> int); r_parents = parents }
  in
  Mutex.lock a.a_mutex;
  a.a_records <- r :: a.a_records;
  Mutex.unlock a.a_mutex

(* The deterministic candidate order.  Domain id is deliberately not
   part of it — it is the one schedule-dependent field, kept for
   display only. *)
let cmp_candidate a b =
  let c = Int.compare a.r_step b.r_step in
  if c <> 0 then c
  else
    let c = Int.compare a.r_rule b.r_rule in
    if c <> 0 then c
    else begin
      let la = Array.length a.r_parents and lb = Array.length b.r_parents in
      let n = min la lb in
      let rec go i =
        if i = n then Int.compare la lb
        else
          let c = Tuple.fast_compare a.r_parents.(i) b.r_parents.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0
    end

(* Drain every arena into [best].  Runs single-threaded at a barrier;
   min is associative/commutative, so drain order cannot matter. *)
let merge t =
  Array.iter
    (fun a ->
      Mutex.lock a.a_mutex;
      let rs = a.a_records in
      a.a_records <- [];
      Mutex.unlock a.a_mutex;
      List.iter
        (fun r ->
          t.recorded <- t.recorded + 1;
          t.merged <- t.merged + 1;
          (* A candidate listing the tuple among its own parents is a
             re-put of an already-derived tuple — never a minimal
             derivation, and a self-cycle if chosen.  Drop it. *)
          if not (Array.exists (Tuple.equal r.r_tuple) r.r_parents) then
            match Tuple.Tbl.find_opt t.best r.r_tuple with
            | Some cur when cmp_candidate cur r <= 0 -> ()
            | _ -> Tuple.Tbl.replace t.best r.r_tuple r)
        rs)
    t.arenas

let find t tuple = Tuple.Tbl.find_opt t.best tuple
let tuples_tracked t = Tuple.Tbl.length t.best
let records_merged t = t.merged
let iter t f = Tuple.Tbl.iter (fun _ r -> f r) t.best
