(* The pseudo-naive bottom-up execution engine (§3, §5, Fig 3).

   Lifecycle of a tuple:
     1. a rule (or an initial put) creates it; it enters the Delta tree
        unless its table is configured -noDelta;
     2. when its equivalence class becomes minimal, the engine removes
        the whole class from Delta, inserts the tuples into their Gamma
        tables, runs any registered external-action handlers, and then
        fires every rule triggered by them — all tuples of the class in
        parallel under the all-minimums strategy;
     3. other rules may query it in Gamma;
     4. garbage collection of dead tuples is the responsibility of the
        table's store (manual lifetime hints, as in the Median study).

   Each step is two barriers: first the whole class is inserted into
   Gamma (one batched insert per table), then all rules fire.  Rules of
   the same class therefore observe the *entire* class in Gamma, never a
   fraction of it — this is what makes positive queries at the trigger's
   own timestamp deterministic under any schedule.

   There is one firing path: each (rule, table) run of the class is
   split into chunks of [Config.grain] triggers ([Fixed 1] is the §5.2
   task per (tuple, rule)), and each chunk is a unit of work.  Every put
   lands in the scratch arena of the unit that made it — a firing chunk,
   a [par_iter] leaf, or one feed or action-handler call — and the arena
   flushes into the one Delta tree when its unit ends.  There is one
   extraction loop, [drain]: a whole run is a session fed its initial
   puts once and drained.

   Set semantics: a put whose tuple is already in Gamma or already
   pending in Delta is dropped.  Duplicate drops are what terminate
   recursive programs (the SumMonth dedup of §6.2).

   -noDelta T tuples bypass Delta: they are inserted into Gamma and
   their rules fire immediately, inside the putting unit (§5.1).
   -noGamma T tuples are never stored (they are trigger-only). *)

exception Causality_violation of string
exception Step_limit_exceeded of int

type phase_times = {
  mutable t_extract : float;
  mutable t_gamma : float;
  mutable t_rules : float;
}

type digest = {
  d_gamma : string;
      (* order-independent 128-bit hex digest of every stored tuple *)
  d_classes : string;
      (* step-ordered digest of the class sequence (order-independent
         within a class, where execution order is schedule-dependent) *)
  d_outputs : string;
      (* print-ordered digest of the output-line stream — the third
         determinism promise (outputs are already sorted within each
         step, so the stream is schedule-independent too) *)
  d_tables : (string * string) list; (* per stored table, declaration order *)
}

type result = {
  outputs : string list; (* deterministic order *)
  steps : int;
  tuples_processed : int;
  elapsed : float;
  delta_inserted : int;
  delta_deduped : int;
  stats : Table_stats.t;
  phases : phase_times;
  tracer : Jstar_obs.Tracer.t;
  metrics : Jstar_obs.Metrics.t;
  lineage : Lineage.t option; (* Config.provenance *)
  digest : digest option; (* Config.digest *)
}

(* The scratch arena of one unit of work: pending Delta inserts in a
   growable array.  An arena belongs to exactly one open unit on one
   domain, so pushes are plain stores, and it keeps its capacity across
   units, so after warmup a put allocates nothing.  Timestamps are
   projected at the flush: a put that dies as a duplicate never needs
   one, and none outlives its flush (so none is promoted by the
   arena's long-lived array). *)
type scratch = {
  mutable sc_tuples : Tuple.t array;
  mutable sc_len : int;
  sc_seen : Tuple.Dset.t;
      (* Unit-local dedup: any tuple pushed once this unit is already
         pending in Delta for the rest of the class, so later puts of
         it are dropped here with one lock-free probe instead of riding
         through the flush.  Valid across mid-unit flushes (flushed
         tuples stay pending until the class barrier); cleared when the
         unit closes, at a cost proportional to what it holds. *)
  mutable sc_dups : int; (* drops by [sc_seen], reported at unit end *)
  sc_cursor : (Value.t array * Tuple.t list) option array;
      (* by table id: the last probe of a probe-stable table in this
         unit.  A join-key-sorted chunk probes equal keys back to back,
         so a run of lookups against a hash-indexed table costs one
         bucket probe *)
  mutable sc_cursor_used : bool; (* any [sc_cursor] slot set *)
}

(* The units open on one domain for one engine, innermost last.  Units
   nest on a domain in strict LIFO order (a -noDelta put fires inside
   its unit; a fork/join join runs stolen tasks to completion before
   the joiner resumes), so the innermost open unit is always the one
   making the put. *)
type lane = {
  l_domain : int;
  mutable l_open : scratch array; (* arenas, reused by depth *)
  mutable l_depth : int; (* open units; [l_open.(l_depth - 1)] is current *)
}

(* Flush a scratch arena into Delta once it holds this many puts (or at
   unit end).  Large enough that [Delta.insert_batch]'s one descent and
   lock round per same-timestamp run dominate, small enough to stay resident
   in cache; exposed as the [engine.put_flush_threshold] gauge. *)
let scratch_flush_threshold = 32_768

(* Arenas start small: [Array.make] of a major-heap-sized array whose
   fill value is young forces a minor collection, which a fresh
   session's first units would otherwise pay at the tail of their
   latency. *)
let scratch_push sc tuple =
  let cap = Array.length sc.sc_tuples in
  if sc.sc_len = cap then begin
    let bigger = Array.make (if cap = 0 then 16 else 2 * cap) tuple in
    Array.blit sc.sc_tuples 0 bigger 0 cap;
    sc.sc_tuples <- bigger
  end;
  sc.sc_tuples.(sc.sc_len) <- tuple;
  sc.sc_len <- sc.sc_len + 1

type state = {
  frozen : Program.frozen;
  config : Config.t;
  order : Order_rel.t;
  delta : Delta.t;
  gamma : Store.t array; (* by table id *)
  no_delta : bool array;
  no_gamma : bool array;
  const_ts : Timestamp.t option array;
      (* memoised timestamp for tables whose orderby is literal-only:
         every tuple of such a table has the same timestamp, so there is
         no need to project it per put (PvWatts-style tables put millions
         of tuples through this path) *)
  stats : Table_stats.t;
  pool : Jstar_sched.Pool.t option;
  out_buf : string Jstar_cds.Treiber_stack.t; (* per-step println sink *)
  outputs : string list ref; (* accumulated, reverse order *)
  outputs_count : int ref; (* length of [outputs], kept incrementally *)
  lanes : lane array Atomic.t;
      (* one per domain that has opened a unit of this engine; appended
         under [lanes_mutex] (once per domain), read lock-free *)
  lanes_mutex : Mutex.t;
  current_ts : Timestamp.t option ref;
  processed : int ref;
  phases : phase_times;
  obs : Jstar_obs.Tracer.t;
  metrics : Jstar_obs.Metrics.t;
  trace_spans : bool;
      (* [Tracer.spans_on obs], cached: recording sites test one
         immutable bool instead of chasing the tracer's level *)
  counters_on : bool; (* likewise [Tracer.counters_on obs] *)
  trace_rule_fire : bool;
      (* [Tracer.enabled obs Kind.rule_fire]: the per -noDelta firing
         span kind, separately cached so the suppress mask can drop it
         while step/extract spans stay on *)
  h_rule_latency : Jstar_obs.Metrics.histogram;
      (* seconds per -noDelta immediate firing *)
  h_class_width : Jstar_obs.Metrics.histogram; (* tuples per class *)
  lineage : Lineage.t option; (* Config.provenance: candidate arenas *)
  prov_mask : bool array;
      (* by rule id: capture lineage for this rule's puts?  All-true
         unless some rule was declared [~provenance:false] — the
         per-rule opt-out from worst-case capture cost.  Seed and
         action pseudo-ids (< 0) are always captured *)
  prov_on : bool; (* lineage <> None, cached for the put path *)
  audit_on : bool; (* Config.audit_causality, cached likewise *)
  prov_or_audit : bool;
      (* either feature needs the per-domain Prov_frame maintained
         around firings; with both off the frame is never touched *)
  digest_on : bool; (* Config.digest *)
  seq_digest : Fingerprint.t;
      (* class-sequence digest, fed one class per step in step order *)
  step_no : int ref;
      (* current step number for lineage records: 0 during initial
         puts, then counts classes from 1.  Monotonic across session
         drains *)
  probe_ok : bool array;
      (* by table id: may a unit cache this table's probe results?
         Requires Gamma to grow only at Phase-A barriers and never evict:
         a Delta-bound, stored table whose store is not custom *)
  rule_sort_pos : int array option array;
      (* by rule id: trigger-field positions of the rule's first
         positive read with a declared all-[Field] [Spec.rd_prefix].
         Phase B sorts each (rule, table) run by these fields so
         triggers probing the same join key run adjacently and the
         one-entry probe cursor hits *)
  trace_batch_fire : bool; (* [Tracer.enabled obs Kind.batch_fire] *)
  h_batch_width : Jstar_obs.Metrics.histogram;
      (* triggers per (rule, table) run entering Phase B *)
  profiler : Jstar_obs.Profiler.t option;
      (* Config.profile: continuous per-rule/per-table cost attribution.
         Firing sites bracket rule bodies with [fire_start]/[fire_stop];
         [run_step] folds table/scheduler/GC deltas at its barrier.
         Purely observational: never read by evaluation, so digests and
         deterministic counters are bit-identical with it on or off *)
  journal : Jstar_obs.Journal.t;
      (* always-on structured event journal (step seals, drains,
         violations) — barrier-frequency mutex + small alloc, never read
         by evaluation *)
  last_violation : (string * Tuple.t list) option ref;
      (* set just before a Causality_violation raises: the message and
         the tuples it names, for the flight recorder's explain-tree
         section (raising unwinds the stack, so capture happens here) *)
}

let store_for config ~parallel schema =
  (* Returns the store plus whether it is one of the built-in families:
     custom stores (windowed, native arrays, application-supplied)
     manage their own lifetime and may evict, so a unit must not cache
     their probe results. *)
  let name = schema.Schema.name in
  match List.assoc_opt name config.Config.stores with
  | Some (Store.Custom _ as spec) -> (Store.of_spec spec schema, false)
  | Some spec -> (Store.of_spec spec schema, true)
  | None -> (Store.default_for ~parallel schema, true)

let null_store schema =
  (* -noGamma: accept and forget.  [mem] is always false, so set-dedup
     for this table relies on Delta alone — the flag is only safe for
     trigger-only tables, as the paper notes. *)
  let cannot_query () =
    raise
      (Schema.Schema_error
         (schema.Schema.name ^ " is -noGamma and cannot be queried"))
  in
  let insert _ = true in
  {
    Store.kind = "none";
    insert;
    insert_batch = Store.seq_batch insert;
    mem = (fun _ -> false);
    iter_prefix = (fun _ _ -> cannot_query ());
    probe_prefix = (fun _ -> cannot_query ());
    iter = (fun _ -> cannot_query ());
    size = (fun () -> 0);
  }

let make_state frozen config =
  Config.validate config;
  let parallel = Config.effective_mode config = Delta.Concurrent in
  let tables = frozen.Program.tables in
  let in_list l s = List.mem s.Schema.name l in
  let no_gamma = Array.map (in_list config.Config.no_gamma) tables in
  let no_delta = Array.map (in_list config.Config.no_delta) tables in
  let nt = Array.length tables in
  let builtin = Array.make nt false in
  let order = Program.order_rel frozen.Program.program in
  let const_ts =
    Array.map
      (fun s ->
        if
          Array.for_all
            (function Schema.Lit _ -> true | _ -> false)
            s.Schema.orderby
        then
          (* any tuple projects to the same literal-only timestamp *)
          Some
            (Array.map
               (function
                 | Schema.Lit l -> Timestamp.CLit (Order_rel.rank order l, l)
                 | Schema.Seq _ | Schema.Par _ -> assert false)
               s.Schema.orderby)
        else None)
      tables
  in
  let gamma =
    Array.mapi
      (fun i s ->
        if no_gamma.(i) then null_store s
        else begin
          let store, is_builtin = store_for config ~parallel s in
          builtin.(i) <- is_builtin;
          store
        end)
      tables
  in
  let obs =
    match config.Config.tracing with
    | Jstar_obs.Level.Off -> Jstar_obs.Tracer.disabled
    | level ->
        Jstar_obs.Tracer.create
          ~suppress:
            (List.filter_map Jstar_obs.Kind.of_name
               config.Config.trace_suppress)
          ~sample:config.Config.trace_sample ~level ()
  in
  let metrics = Jstar_obs.Metrics.create () in
  let lineage =
    if config.Config.provenance then
      (* arena stripes scale with the pool so domains rarely share one *)
      Some
        (Lineage.create
           ~stripes:
             (Jstar_sched.Bits.next_pow2 (max 8 (2 * config.Config.threads))))
    else None
  in
  let prov_mask =
    let m = Array.make (Array.length frozen.Program.rule_names) true in
    List.iter
      (fun r -> if r.Rule.rid >= 0 then m.(r.Rule.rid) <- r.Rule.prov)
      (Program.rules frozen.Program.program);
    m
  in
  let probe_ok =
    Array.init nt (fun i ->
        builtin.(i) && (not no_delta.(i)) && not no_gamma.(i))
  in
  let rule_sort_pos =
    (* Resolve each rule's declared hash-join key ([Spec.rd_prefix] of
       its first positive read, when every entry is a plain [Field]) to
       trigger-field positions once, at freeze time. *)
    let arr = Array.make (Array.length frozen.Program.rule_names) None in
    List.iter
      (fun r ->
        if r.Rule.rid >= 0 then
          arr.(r.Rule.rid) <-
            List.find_map
              (fun rd ->
                match (rd.Spec.rd_kind, rd.Spec.rd_prefix) with
                | Spec.Positive, (_ :: _ as pfx) -> (
                    try
                      Some
                        (Array.of_list
                           (List.map
                              (function
                                | Spec.Field f ->
                                    Schema.field_pos r.Rule.trigger f
                                | _ -> raise Exit)
                              pfx))
                    with Exit | Schema.Schema_error _ -> None)
                | _ -> None)
              r.Rule.reads)
      (Program.rules frozen.Program.program);
    arr
  in
  let st = {
    frozen;
    config;
    order;
    delta =
      Delta.create
        ~mode:(Config.effective_mode config)
        ~nlits:frozen.Program.nlits ();
    gamma;
    no_delta;
    no_gamma;
    const_ts;
    stats =
      Table_stats.create
        (Array.to_list (Array.map (fun s -> s.Schema.name) tables));
    pool =
      (if config.Config.threads > 1 then
         Some
           (Jstar_sched.Pool.create ~num_workers:config.Config.threads
              ~tracer:obs ())
       else None);
    out_buf = Jstar_cds.Treiber_stack.create ();
    outputs = ref [];
    outputs_count = ref 0;
    lanes =
      (* the creating (driving) domain's lane up front: its units never
         take the registration mutex *)
      Atomic.make
        [|
          { l_domain = (Domain.self () :> int); l_open = [||]; l_depth = 0 };
        |];
    lanes_mutex = Mutex.create ();
    current_ts = ref None;
    processed = ref 0;
    phases = { t_extract = 0.0; t_gamma = 0.0; t_rules = 0.0 };
    obs;
    metrics;
    trace_spans = Jstar_obs.Tracer.spans_on obs;
    counters_on = Jstar_obs.Tracer.counters_on obs;
    trace_rule_fire = Jstar_obs.Tracer.enabled obs Jstar_obs.Kind.rule_fire;
    h_rule_latency =
      Jstar_obs.Metrics.histogram metrics ~name:"engine.rule_fire_latency_s";
    h_class_width =
      Jstar_obs.Metrics.histogram metrics ~name:"engine.class_width";
    lineage;
    prov_mask;
    prov_on = lineage <> None;
    audit_on = config.Config.audit_causality;
    prov_or_audit = lineage <> None || config.Config.audit_causality;
    digest_on = config.Config.digest;
    seq_digest = Fingerprint.create ();
    step_no = ref 0;
    probe_ok;
    rule_sort_pos;
    trace_batch_fire = Jstar_obs.Tracer.enabled obs Jstar_obs.Kind.batch_fire;
    h_batch_width =
      Jstar_obs.Metrics.histogram metrics ~name:"engine.batch_width";
    profiler =
      (if config.Config.profile then
         Some
           (Jstar_obs.Profiler.create ~workers:config.Config.threads
              ~rules:frozen.Program.rule_names
              ~tables:(Array.map (fun s -> s.Schema.name) tables)
              ())
       else None);
    journal = Jstar_obs.Journal.create ();
    last_violation = ref None;
  }
  in
  (* Pull-based registry sources: closures read live engine state only
     when a snapshot is taken, so registration costs nothing per put. *)
  Jstar_obs.Metrics.register_gauge metrics ~name:"delta.size" (fun () ->
      Jstar_obs.Metrics.Int (Delta.size st.delta));
  Jstar_obs.Metrics.register_gauge metrics ~name:"delta.depth" (fun () ->
      Jstar_obs.Metrics.Int (Delta.depth st.delta));
  Jstar_obs.Metrics.register_gauge metrics ~name:"engine.put_flush_threshold"
    (fun () -> Jstar_obs.Metrics.Int scratch_flush_threshold);
  Array.iteri
    (fun id s ->
      let table = s.Schema.name in
      let c = Table_stats.counters st.stats id in
      let reg field counter =
        Jstar_obs.Metrics.register_counter metrics
          ~name:(String.concat "." [ "table"; table; field ])
          (fun () -> Table_stats.read counter)
      in
      reg "puts" c.Table_stats.puts;
      reg "delta_inserts" c.Table_stats.delta_inserts;
      reg "delta_dups" c.Table_stats.delta_dups;
      reg "gamma_inserts" c.Table_stats.gamma_inserts;
      reg "gamma_dups" c.Table_stats.gamma_dups;
      reg "triggers" c.Table_stats.triggers;
      reg "queries" c.Table_stats.queries;
      if not st.no_gamma.(id) then
        Jstar_obs.Metrics.register_gauge metrics
          ~name:(String.concat "." [ "gamma"; table; "size" ])
          (fun () -> Jstar_obs.Metrics.Int (st.gamma.(id).Store.size ())))
    tables;
  (match st.lineage with
  | Some l ->
      Jstar_obs.Metrics.register_gauge metrics ~name:"prov.tuples" (fun () ->
          Jstar_obs.Metrics.Int (Lineage.tuples_tracked l));
      Jstar_obs.Metrics.register_gauge metrics ~name:"prov.records" (fun () ->
          Jstar_obs.Metrics.Int (Lineage.records_merged l))
  | None -> ());
  if st.digest_on then begin
    (* 63-bit lanes, emitted as two Int gauges per digest.  Gamma lanes
       rescan the stores, so reading them is a snapshot-time cost only. *)
    let gamma_lanes () =
      let d = Fingerprint.create () in
      Array.iteri
        (fun id _ ->
          if not st.no_gamma.(id) then
            st.gamma.(id).Store.iter (fun t -> Fingerprint.add_tuple d t))
        st.gamma;
      Fingerprint.lanes d
    in
    let reg name f =
      Jstar_obs.Metrics.register_gauge metrics ~name (fun () ->
          Jstar_obs.Metrics.Int (f ()))
    in
    let output_lanes () =
      let d = Fingerprint.create () in
      List.iter (Fingerprint.mix_string d) (List.rev !(st.outputs));
      Fingerprint.lanes d
    in
    reg "digest.gamma.lo" (fun () -> fst (gamma_lanes ()));
    reg "digest.gamma.hi" (fun () -> snd (gamma_lanes ()));
    reg "digest.classes.lo" (fun () -> fst (Fingerprint.lanes st.seq_digest));
    reg "digest.classes.hi" (fun () -> snd (Fingerprint.lanes st.seq_digest));
    reg "digest.outputs.lo" (fun () -> fst (output_lanes ()));
    reg "digest.outputs.hi" (fun () -> snd (output_lanes ()))
  end;
  (* Scheduler lanes whenever a pool exists: owner-written counters,
     non-deterministic but monotone.  Utilization/GC lanes need the
     profiler's barrier folds. *)
  (match st.pool with
  | Some pool ->
      let reg name f =
        Jstar_obs.Metrics.register_counter metrics ~name (fun () ->
            f (Jstar_sched.Pool.stats pool))
      in
      reg "sched.tasks" (fun s -> s.Jstar_sched.Pool.tasks);
      reg "sched.steals" (fun s -> s.Jstar_sched.Pool.steals);
      reg "sched.parks" (fun s -> s.Jstar_sched.Pool.parks);
      Jstar_obs.Metrics.register_gauge metrics ~name:"sched.idle_s" (fun () ->
          Jstar_obs.Metrics.Float
            (float_of_int (Jstar_sched.Pool.stats pool).Jstar_sched.Pool.idle_ns
            *. 1e-9))
  | None -> ());
  Jstar_obs.Metrics.register_counter metrics ~name:"journal.recorded"
    (fun () -> Jstar_obs.Journal.recorded st.journal);
  Jstar_obs.Metrics.register_counter metrics ~name:"journal.dropped"
    (fun () -> Jstar_obs.Journal.dropped st.journal);
  (match st.profiler with
  | Some p ->
      Jstar_obs.Metrics.register_gauge metrics ~name:"profiler.steps" (fun () ->
          Jstar_obs.Metrics.Int (Jstar_obs.Profiler.steps p));
      Jstar_obs.Metrics.register_gauge metrics ~name:"sched.utilization"
        (fun () ->
          Jstar_obs.Metrics.Float
            (Option.value ~default:1.0 (Jstar_obs.Profiler.utilization p)));
      Jstar_obs.Metrics.register_gauge metrics ~name:"gc.alloc_words" (fun () ->
          Jstar_obs.Metrics.Float (Jstar_obs.Profiler.gc p).Jstar_obs.Profiler.pg_alloc_words);
      Jstar_obs.Metrics.register_gauge metrics ~name:"gc.minor_collections"
        (fun () ->
          Jstar_obs.Metrics.Int (Jstar_obs.Profiler.gc p).Jstar_obs.Profiler.pg_minor);
      Jstar_obs.Metrics.register_gauge metrics ~name:"gc.major_collections"
        (fun () ->
          Jstar_obs.Metrics.Int (Jstar_obs.Profiler.gc p).Jstar_obs.Profiler.pg_major)
  | None -> ());
  st

(* ------------------------------------------------------------------ *)
(* Put routing and rule firing                                         *)

let timestamp_of st id tuple =
  match st.const_ts.(id) with
  | Some ts -> ts
  | None -> Timestamp.of_tuple st.order tuple

(* Lineage capture: one candidate per put, accepted or not — the put
   multiset is schedule-independent, so recording before routing keeps
   the candidate set (and hence the merged minimum) deterministic.
   Rules declared [~provenance:false] skip the record entirely (their
   puts stay untracked); whether a rule is masked is a static program
   property, so the candidate set stays deterministic. *)
let record_lineage st l tuple =
  let fr = Prov_frame.get () in
  let rid = fr.Prov_frame.rule in
  if rid < 0 || st.prov_mask.(rid) then begin
    let parents =
      match (fr.Prov_frame.bound, fr.Prov_frame.past) with
      | [], [] -> [||]
      | [ t ], [] -> [| t |]
      | bound, [] -> Array.of_list (List.rev bound) (* trigger first *)
      | bound, past ->
          (* A put after a positive scan completed still depends on the
             tuples that scan bound (PR-4 recorded only the trigger
             here).  [past] arrives in store-visit order, which is
             schedule-dependent for hash stores — sort and dedup so the
             parent array is a function of the visited *set*, and drop
             tuples already in [bound] (a parent once is a parent). *)
          let past = List.sort_uniq Tuple.fast_compare past in
          let past =
            List.filter
              (fun p -> not (List.exists (Tuple.equal p) bound))
              past
          in
          Array.of_list (List.rev_append bound past)
          (* = List.rev bound @ past: trigger first, then completed
             scans' bindings in tuple order *)
    in
    Lineage.record l ~rule:rid ~step:!(st.step_no) ~parents tuple
  end

let audit_fail st ?(tuples = []) msg =
  Jstar_obs.Tracer.instant st.obs Jstar_obs.Kind.audit;
  (* Capture before raising: the exception unwinds through the firing
     machinery, but the flight recorder needs the offending tuples to
     build explain trees for the bundle.  Merge the lineage arenas too —
     the violating put's record is still domain-local (merges normally
     run at step barriers this raise will never reach), and [merge] is
     arena-mutex-safe against concurrent recording while no barrier
     merge can be running during a firing. *)
  (match st.lineage with Some l -> Lineage.merge l | None -> ());
  st.last_violation := Some (msg, tuples);
  Jstar_obs.Journal.error st.journal ~comp:"engine"
    ~event:"causality-violation"
    [
      ("message", Jstar_obs.Json.Str msg);
      ("step", Jstar_obs.Json.Num (float_of_int !(st.step_no)));
      ( "tuples",
        Jstar_obs.Json.Arr
          (List.map
             (fun t -> Jstar_obs.Json.Str (Fmt.str "%a" Tuple.pp t))
             tuples) );
    ];
  raise (Causality_violation msg)

(* The auditor's put-side check.  Inside a firing it is relative to the
   *trigger's* timestamp (the frame), which is later than the class
   timestamp inside -noDelta chains.  Outside any firing — a feed from a
   step hook — it is relative to the class the running drain executed
   last: a put behind it would change a past that rules have already
   read.  A drain that reaches quiescence ends its run and clears
   [current_ts], so a session's next feed may sort before the classes
   already run (§3's event streams do, tick after tick); a firing of the
   new run that reads something later than its trigger is caught by
   the read-side check below. *)
let audit_put st tuple ts =
  let fr = Prov_frame.get () in
  let now =
    match fr.Prov_frame.now with
    | Some _ as now -> now
    | None -> !(st.current_ts)
  in
  match now with
  | Some now when not (Timestamp.leq now ts) ->
      audit_fail st ~tuples:[ tuple ]
        (Fmt.str "audit: rule %s at %a put %a into the past (%a)"
           (Program.rule_name st.frozen fr.Prov_frame.rule)
           Timestamp.pp now Tuple.pp tuple Timestamp.pp ts)
  | _ -> ()

(* The auditor's read-side check, run per visited tuple: positive
   queries may see [<= T]; inside a strict ([Query] negative/aggregate)
   scope the law demands [< T]. *)
let audit_visit st fr tuple =
  match fr.Prov_frame.now with
  | None -> ()
  | Some now ->
      let ts = timestamp_of st (Tuple.schema tuple).Schema.id tuple in
      let strict = fr.Prov_frame.strict > 0 in
      let ok = if strict then Timestamp.lt ts now else Timestamp.leq ts now in
      if not ok then
        audit_fail st ~tuples:[ tuple ]
          (Fmt.str "audit: rule %s at %a %s query visited %a at %a%s"
             (Program.rule_name st.frozen fr.Prov_frame.rule)
             Timestamp.pp now
             (if strict then "negative/aggregate" else "positive")
             Tuple.pp tuple Timestamp.pp ts
             (if strict then " (must be strictly earlier)" else ""))

(* Run [f fr] on the domain's firing frame and restore every field
   afterwards.  Firings nest on one domain — -noDelta puts fire rules
   inside the putting unit, and a blocking fork/join join can run a
   stolen task — so each must leave the frame as it found it. *)
let in_frame f =
  let fr = Prov_frame.get () in
  let rule = fr.Prov_frame.rule
  and now = fr.Prov_frame.now
  and bound = fr.Prov_frame.bound
  and strict = fr.Prov_frame.strict
  and past = fr.Prov_frame.past in
  let restore () =
    fr.Prov_frame.rule <- rule;
    fr.Prov_frame.now <- now;
    fr.Prov_frame.bound <- bound;
    fr.Prov_frame.strict <- strict;
    fr.Prov_frame.past <- past
  in
  match f fr with
  | () -> restore ()
  | exception e ->
      restore ();
      raise e

(* Point the frame at one firing of [rule], triggered by [t] at [now]. *)
let enter_firing fr ~rule ~now t =
  fr.Prov_frame.rule <- rule;
  fr.Prov_frame.now <- now;
  fr.Prov_frame.bound <- [ t ];
  fr.Prov_frame.past <- []

(* ------------------------------------------------------------------ *)
(* Units of work and their scratch arenas                              *)

let rec find_lane lanes d i =
  if i = Array.length lanes then raise Not_found
  else if lanes.(i).l_domain = d then lanes.(i)
  else find_lane lanes d (i + 1)

(* This engine's lane on the calling domain, registered on first use.
   Only the registering domain ever looks its own lane up, so the
   append needs no re-check under the mutex. *)
let lane st =
  let d = (Domain.self () :> int) in
  try find_lane (Atomic.get st.lanes) d 0
  with Not_found ->
    let l = { l_domain = d; l_open = [||]; l_depth = 0 } in
    Mutex.lock st.lanes_mutex;
    Atomic.set st.lanes (Array.append (Atomic.get st.lanes) [| l |]);
    Mutex.unlock st.lanes_mutex;
    l

let flush_scratch st sc =
  let n = sc.sc_len in
  if n > 0 then begin
    (* filled from the static empty array, so no minor collection is
       forced however large the flush *)
    let tss = Array.make n [||] in
    for i = 0 to n - 1 do
      let t = sc.sc_tuples.(i) in
      tss.(i) <- timestamp_of st (Tuple.schema t).Schema.id t
    done;
    (* [Delta.insert_batch] is safe under concurrent insertion, so units
       flush without coordination; stats are aggregated per table first
       — two atomic ops per table, not one per put. *)
    let res = Delta.insert_batch st.delta sc.sc_tuples tss n in
    let ntab = Array.length st.gamma in
    let ins = Array.make ntab 0 and dup = Array.make ntab 0 in
    for i = 0 to n - 1 do
      let id = (Tuple.schema sc.sc_tuples.(i)).Schema.id in
      if res.(i) then ins.(id) <- ins.(id) + 1 else dup.(id) <- dup.(id) + 1
    done;
    sc.sc_len <- 0;
    for id = 0 to ntab - 1 do
      if ins.(id) > 0 || dup.(id) > 0 then begin
        let c = Table_stats.counters st.stats id in
        Table_stats.add c.Table_stats.delta_inserts ins.(id);
        Table_stats.add c.Table_stats.delta_dups dup.(id)
      end
    done
  end

(* Empty an arena for its next unit.  Each reset costs what the arena
   holds: an arena once used by a wide class must not pay its old width
   again for every narrow unit (a [Fixed 1] chunk). *)
let reset sc =
  sc.sc_len <- 0;
  sc.sc_dups <- 0;
  Tuple.Dset.clear sc.sc_seen;
  if sc.sc_cursor_used then begin
    Array.fill sc.sc_cursor 0 (Array.length sc.sc_cursor) None;
    sc.sc_cursor_used <- false
  end

(* Run [f ()] as one unit of work on the calling domain, in the arena at
   its nesting depth; the arena flushes when [f] returns.  An exception
   abandons the unit's pending puts along with the run it escapes. *)
let in_unit st f =
  let lane = lane st in
  let d = lane.l_depth in
  if d = Array.length lane.l_open then
    lane.l_open <-
      Array.append lane.l_open
        [|
          {
            sc_tuples = [||];
            sc_len = 0;
            sc_seen = Tuple.Dset.create 64;
            sc_dups = 0;
            sc_cursor = Array.make (Array.length st.gamma) None;
            sc_cursor_used = false;
          };
        |];
  let sc = lane.l_open.(d) in
  lane.l_depth <- d + 1;
  (match f () with
  | () ->
      flush_scratch st sc;
      if sc.sc_dups > 0 then Delta.note_deduped st.delta sc.sc_dups
  | exception e ->
      reset sc;
      lane.l_depth <- d;
      raise e);
  reset sc;
  lane.l_depth <- d

(* The arena of the calling domain's innermost open unit.  Every put
   and probe runs inside a unit: rule bodies in a firing chunk or a
   [par_iter] leaf, feeds (a run's initial puts are one) and action
   handlers. *)
let current st =
  let lane = lane st in
  lane.l_open.(lane.l_depth - 1)

(* Fork/join leaf size for [n] items: [Config.grain] under a pool; with
   no pool there is nothing to balance, so one leaf. *)
let grain_for st n =
  match st.pool with
  | Some pool ->
      Config.resolve_grain st.config ~workers:(Jstar_sched.Pool.size pool) ~n
  | None -> max 1 n

(* Run [f a b] over [lo, hi) in [grain]-sized chunks: as fork/join
   tasks when there is a pool and more than one chunk, inline
   otherwise. *)
let run_chunks st ~grain lo hi f =
  match st.pool with
  | Some pool when hi - lo > grain ->
      let n = (hi - lo + grain - 1) / grain in
      Jstar_sched.Forkjoin.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
          let a = lo + (i * grain) in
          f a (min hi (a + grain)))
  | _ ->
      let rec go a =
        if a < hi then begin
          let b = min hi (a + grain) in
          f a b;
          go b
        end
      in
      go lo

(* ------------------------------------------------------------------ *)
(* Put routing                                                         *)

let push_put st sc c tuple =
  if not (Tuple.Dset.add_if_absent sc.sc_seen tuple) then begin
    (* Duplicate of a put already pending from this unit: drop it here,
       with the counter totals [Delta.insert_batch] would have given. *)
    Table_stats.incr c.Table_stats.delta_dups;
    sc.sc_dups <- sc.sc_dups + 1
  end
  else begin
    scratch_push sc tuple;
    if sc.sc_len >= scratch_flush_threshold then flush_scratch st sc
  end

let rec route_put st ctx tuple =
  let schema = Tuple.schema tuple in
  let id = schema.Schema.id in
  let c = Table_stats.counters st.stats id in
  Table_stats.incr c.Table_stats.puts;
  (match st.lineage with
  | Some l -> record_lineage st l tuple
  | None -> ());
  if st.audit_on then audit_put st tuple (timestamp_of st id tuple);
  if st.no_delta.(id) then (
    (* §5.1: straight to Gamma, fire immediately in this unit. *)
    if st.gamma.(id).Store.insert tuple then (
      Table_stats.incr c.Table_stats.gamma_inserts;
      fire_rules st ctx tuple)
    else Table_stats.incr c.Table_stats.gamma_dups)
  else if st.gamma.(id).Store.mem tuple then
    (* Already processed: set semantics drop. *)
    Table_stats.incr c.Table_stats.gamma_dups
  else
    (* Into the unit's arena.  Gamma of a Delta-bound table only changes
       at Phase A, so the [mem] check above cannot go stale before the
       arena flushes. *)
    push_put st (current st) c tuple

(* Immediate firing of a -noDelta tuple's rules (§5.1), inside the unit
   that put it — the one per-tuple firing left, and so the only one
   that records rule-fire spans and [engine.rule_fire_latency_s]. *)
and fire_rules st ctx tuple =
  let id = (Tuple.schema tuple).Schema.id in
  match st.frozen.Program.rules_by_trigger.(id) with
  | [] -> ()
  | rules ->
      let c = Table_stats.counters st.stats id in
      let t0 = if st.counters_on then Jstar_obs.Monotonic.now_ns () else 0 in
      let fire r =
        Table_stats.incr c.Table_stats.triggers;
        match st.profiler with
        | Some p ->
            let p0 = Jstar_obs.Profiler.fire_start p in
            r.Rule.body ctx tuple;
            Jstar_obs.Profiler.fire_stop p ~rule:r.Rule.rid p0
        | None -> r.Rule.body ctx tuple
      in
      (if st.prov_or_audit then begin
         let now = Some (timestamp_of st id tuple) in
         in_frame (fun fr ->
             List.iter
               (fun r ->
                 enter_firing fr ~rule:r.Rule.rid ~now tuple;
                 fire r)
               rules)
       end
       else List.iter fire rules);
      if st.counters_on then begin
        let dur = Jstar_obs.Monotonic.now_ns () - t0 in
        Jstar_obs.Metrics.observe st.h_rule_latency (float_of_int dur *. 1e-9);
        if st.trace_rule_fire then
          Jstar_obs.Tracer.record_span st.obs Jstar_obs.Kind.rule_fire ~arg:id
            ~ts:t0 ~dur
      end

(* Positive-scan wrapping: audit each visited tuple, bind it for the
   duration of the body [f], and — once the scan has completed — retain
   the visited set in [fr.past] so later puts of the same firing still
   see the scan's bindings as parents.  Strict (negative/aggregate)
   scans are not retained: their contribution is the aggregate, not the
   tuples, and the visited set would be unbounded. *)
let scan_wrapped st iter f =
  let fr = Prov_frame.get () in
  if fr.Prov_frame.rule = Prov_frame.seed_rule then
    (* outside any firing (inspection after a run) *)
    iter f
  else begin
    let retain = st.prov_on && fr.Prov_frame.strict = 0 in
    let visited = ref [] in
    iter (fun t ->
        if st.audit_on then audit_visit st fr t;
        if st.prov_on then begin
          (* The visited tuple is a binding of this body literal for
             the duration of [f]: any put inside records it as a
             parent. *)
          let saved = fr.Prov_frame.bound in
          fr.Prov_frame.bound <- t :: saved;
          match f t with
          | () ->
              fr.Prov_frame.bound <- saved;
              if retain then visited := t :: !visited
          | exception e ->
              fr.Prov_frame.bound <- saved;
              raise e
        end
        else f t);
    match !visited with
    | [] -> ()
    | vs -> fr.Prov_frame.past <- List.rev_append vs fr.Prov_frame.past
  end

(* A positive query against a probe-stable table ([st.probe_ok]): served
   from the innermost open unit's cursor when the prefix repeats, else
   probed and remembered.  Valid for the whole unit because such a
   table's Gamma only grows at Phase-A barriers. *)
let probe st id prefix =
  let sc = current st in
  match sc.sc_cursor.(id) with
  | Some (p, items) when Value.equal_arrays prefix p -> Some items
  | _ -> (
      match st.gamma.(id).Store.probe_prefix prefix with
      | Some items as hit ->
          (* Copy: rule bodies may reuse one prefix buffer across probes,
             and the cursor must remember the values probed, not alias
             the live buffer. *)
          sc.sc_cursor.(id) <- Some (Array.copy prefix, items);
          sc.sc_cursor_used <- true;
          hit
      | None -> None)

(* The engine's one firing context, shared by every unit: puts and
   probes find their unit through the calling domain's lane, so a
   firing allocates no context of its own. *)
let make_ctx st =
  let rec ctx =
    {
      Rule.put = (fun tuple -> route_put st ctx tuple);
      iter_prefix =
        (fun schema prefix f ->
          let id = schema.Schema.id in
          let c = Table_stats.counters st.stats id in
          Table_stats.incr c.Table_stats.queries;
          let iter =
            match if st.probe_ok.(id) then probe st id prefix else None with
            | Some items -> fun g -> List.iter g items
            | None -> st.gamma.(id).Store.iter_prefix prefix
          in
          if st.prov_or_audit then scan_wrapped st iter f else iter f);
      store_of = (fun schema -> st.gamma.(schema.Schema.id));
      println = (fun line -> Jstar_cds.Treiber_stack.push st.out_buf line);
      class_ts = (fun () -> !(st.current_ts));
      par_iter =
        (fun lo hi f ->
          match st.pool with
          | Some _ when hi - lo > 1 ->
              let leaf =
                if not st.prov_or_audit then fun a b ->
                  for i = a to b - 1 do
                    f i
                  done
                else begin
                  (* Leaves may run on other domains: carry the firing
                     frame (rule, trigger time, bindings so far) to the
                     executing domain, restoring whatever firing that
                     domain had in flight. *)
                  let fr = Prov_frame.get () in
                  let rule = fr.Prov_frame.rule
                  and now = fr.Prov_frame.now
                  and bound = fr.Prov_frame.bound
                  and strict = fr.Prov_frame.strict
                  and past = fr.Prov_frame.past in
                  fun a b ->
                    in_frame (fun cfr ->
                        cfr.Prov_frame.rule <- rule;
                        cfr.Prov_frame.now <- now;
                        cfr.Prov_frame.bound <- bound;
                        cfr.Prov_frame.strict <- strict;
                        cfr.Prov_frame.past <- past;
                        for i = a to b - 1 do
                          f i
                        done)
                end
              in
              (* Each leaf is a unit: its puts land in an arena owned by
                 the domain running it, never in the firing's. *)
              run_chunks st ~grain:(grain_for st (hi - lo)) lo hi (fun a b ->
                  in_unit st (fun () -> leaf a b))
          | _ ->
              for i = lo to hi - 1 do
                f i
              done);
    }
  in
  ctx

(* ------------------------------------------------------------------ *)
(* Phase B: batched relational algebra.  The accepted class arrives
   grouped by table; each (rule, table) run is optionally sorted by the
   rule's declared hash-join key and split into chunks, and each chunk
   fires the rule body over its triggers as one unit of work, with
   every fixed cost hoisted out of the per-tuple loop: one arena for
   pending puts, one probe cursor that turns a run of equal-key lookups
   into a single bucket probe, one frame save/restore.  Within-class
   firing order is free under the law of causality, so none of this
   changes what any rule observes. *)

(* Fire rule [r] for [chunk.(lo..hi-1)] as one unit. *)
let fire_chunk st ctx r id chunk lo hi =
  let t0 = if st.trace_batch_fire then Jstar_obs.Monotonic.now_ns () else 0 in
  (* One profiler frame for the whole chunk, credited [hi - lo] firings:
     chunking amortises the bracket the same way it amortises every
     other per-firing fixed cost.  Nested immediate (-noDelta) firings
     inside the chunk open their own frames, so they are excluded from
     this rule's self time as usual. *)
  let p0 =
    match st.profiler with
    | Some p -> Jstar_obs.Profiler.fire_start p
    | None -> 0
  in
  in_unit st (fun () ->
      if st.prov_or_audit then
        in_frame (fun fr ->
            for i = lo to hi - 1 do
              let t = chunk.(i) in
              enter_firing fr ~rule:r.Rule.rid
                ~now:(Some (timestamp_of st id t))
                t;
              r.Rule.body ctx t
            done)
      else
        for i = lo to hi - 1 do
          r.Rule.body ctx chunk.(i)
        done);
  (match st.profiler with
  | Some p -> Jstar_obs.Profiler.fire_stop p ~rule:r.Rule.rid ~fires:(hi - lo) p0
  | None -> ());
  if st.trace_batch_fire then
    Jstar_obs.Tracer.record_span st.obs Jstar_obs.Kind.batch_fire
      ~arg:(hi - lo) ~ts:t0
      ~dur:(Jstar_obs.Monotonic.now_ns () - t0)

(* Chunk sort order: the rule's declared join-key fields of the trigger,
   tie-broken by total tuple order so the sort is deterministic. *)
let key_cmp pos a b =
  let fa = Tuple.fields a and fb = Tuple.fields b in
  let rec go i =
    if i >= Array.length pos then Tuple.fast_compare a b
    else
      let c = Value.compare fa.(pos.(i)) fb.(pos.(i)) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Phase B over the accepted class: walk the (already grouped) class as
   contiguous per-table runs and fire each (rule, run) pair as chunks of
   [Config.grain] triggers. *)
let fire_rules_batch st ctx to_fire =
  let n = Array.length to_fire in
  let lo = ref 0 in
  while !lo < n do
    let id = (Tuple.schema to_fire.(!lo)).Schema.id in
    let hi = ref (!lo + 1) in
    while !hi < n && (Tuple.schema to_fire.(!hi)).Schema.id = id do
      incr hi
    done;
    let rlo = !lo and rhi = !hi in
    (match st.frozen.Program.rules_by_trigger.(id) with
    | [] -> ()
    | rules ->
        let width = rhi - rlo in
        let c = Table_stats.counters st.stats id in
        let grain = grain_for st width in
        List.iter
          (fun r ->
            Table_stats.add c.Table_stats.triggers width;
            if st.counters_on then
              Jstar_obs.Metrics.observe st.h_batch_width (float_of_int width);
            let arr, clo, chi =
              match st.rule_sort_pos.(r.Rule.rid) with
              | Some pos when width > 2 ->
                  let copy = Array.sub to_fire rlo width in
                  Array.sort (key_cmp pos) copy;
                  (copy, 0, width)
              | _ -> (to_fire, rlo, rhi)
            in
            run_chunks st ~grain clo chi (fun tlo thi ->
                fire_chunk st ctx r id arr tlo thi))
          rules);
    lo := rhi
  done

(* ------------------------------------------------------------------ *)
(* Step execution                                                      *)

(* Deterministic side effects for one class: output-table formatting and
   action handlers run sequentially over the class sorted by tuple
   order.  Each handler call is a unit of work of its own. *)
let run_class_effects st ctx tuples =
  let has_effects =
    Array.exists
      (fun t ->
        let id = (Tuple.schema t).Schema.id in
        st.frozen.Program.output_fmt.(id) <> None
        || st.frozen.Program.action_of.(id) <> None)
      tuples
  in
  if has_effects then begin
    let sorted = Array.copy tuples in
    Array.sort Tuple.fast_compare sorted;
    Array.iter
      (fun t ->
        let id = (Tuple.schema t).Schema.id in
        (match st.frozen.Program.output_fmt.(id) with
        | Some fmt -> ctx.Rule.println (fmt t)
        | None -> ());
        match st.frozen.Program.action_of.(id) with
        | Some handler ->
            in_unit st (fun () ->
                if st.prov_or_audit then
                  in_frame (fun fr ->
                      enter_firing fr ~rule:Prov_frame.action_rule
                        ~now:(Some (timestamp_of st id t)) t;
                      handler ctx t)
                else handler ctx t)
        | None -> ())
      sorted
  end

let flush_step_outputs st =
  match Jstar_cds.Treiber_stack.pop_all st.out_buf with
  | [] -> ()
  | lines ->
      (* Sort within the step so the order is schedule-independent. *)
      let lines = List.sort String.compare lines in
      st.outputs := List.rev_append lines !(st.outputs);
      st.outputs_count := !(st.outputs_count) + List.length lines

let now () = Unix.gettimeofday ()

(* Drain the lineage arenas at a barrier (no rule task live). *)
let merge_lineage st =
  match st.lineage with
  | None -> ()
  | Some l ->
      let m0 = if st.trace_spans then Jstar_obs.Monotonic.now_ns () else 0 in
      Lineage.merge l;
      if st.trace_spans then
        Jstar_obs.Tracer.record_span st.obs Jstar_obs.Kind.prov_merge
          ~arg:(Lineage.tuples_tracked l) ~ts:m0
          ~dur:(Jstar_obs.Monotonic.now_ns () - m0)

let run_step st ctx tuples =
  let step_t0 = if st.counters_on then Jstar_obs.Monotonic.now_ns () else 0 in
  let tuples = Array.of_list tuples in
  let n = Array.length tuples in
  st.processed := !(st.processed) + n;
  incr st.step_no;
  if st.digest_on then begin
    (* One class per step: sum the tuples' lanes (commutative — the
       class *set* is schedule-independent, its order is not) and fold
       the sum into the sequence digest in step order. *)
    let lo = ref 0 and hi = ref 0 in
    Array.iter
      (fun t ->
        let l, h = Fingerprint.tuple_lanes t in
        lo := !lo + l;
        hi := !hi + h)
      tuples;
    Fingerprint.mix_seq st.seq_digest ~lo:!lo ~hi:!hi ~n
  end;
  st.current_ts :=
    (if n > 0 then
       Some (timestamp_of st (Tuple.schema tuples.(0)).Schema.id tuples.(0))
     else None);
  (* Phase A: the whole class becomes visible in Gamma. *)
  let gamma_t0 = if st.trace_spans then Jstar_obs.Monotonic.now_ns () else 0 in
  let t0 = now () in
  let to_fire =
    (* A class usually comes from one table, and extraction emits each
       par-subtree's leaf contiguously, so the class is already grouped
       the way the stores want it: a stable partition by table (identity
       when the class is single-table) is enough — no comparator sort. *)
    let first_id = (Tuple.schema tuples.(0)).Schema.id in
    let single = ref true in
    for i = 1 to n - 1 do
      if (Tuple.schema tuples.(i)).Schema.id <> first_id then single := false
    done;
    let grouped =
      if !single then tuples
      else begin
        let by_id : (int, Tuple.t list ref) Hashtbl.t = Hashtbl.create 4 in
        let ids = ref [] in
        for i = n - 1 downto 0 do
          let id = (Tuple.schema tuples.(i)).Schema.id in
          match Hashtbl.find_opt by_id id with
          | Some cell -> cell := tuples.(i) :: !cell
          | None ->
              Hashtbl.replace by_id id (ref [ tuples.(i) ]);
              ids := id :: !ids
        done;
        Array.of_list
          (List.concat_map (fun id -> !(Hashtbl.find by_id id)) !ids)
      end
    in
    let fired = ref [] in
    let lo = ref 0 in
    while !lo < n do
      let id = (Tuple.schema grouped.(!lo)).Schema.id in
      let hi = ref (!lo + 1) in
      while !hi < n && (Tuple.schema grouped.(!hi)).Schema.id = id do
        incr hi
      done;
      let res = st.gamma.(id).Store.insert_batch grouped !lo !hi in
      let c = Table_stats.counters st.stats id in
      Array.iteri
        (fun k inserted ->
          if inserted then begin
            Table_stats.incr c.Table_stats.gamma_inserts;
            fired := grouped.(!lo + k) :: !fired
          end
          else
            (* Raced back into Delta after processing: set-semantics
               drop. *)
            Table_stats.incr c.Table_stats.gamma_dups)
        res;
      lo := !hi
    done;
    Array.of_list (List.rev !fired)
  in
  st.phases.t_gamma <- st.phases.t_gamma +. (now () -. t0);
  if st.trace_spans then
    Jstar_obs.Tracer.record_span st.obs Jstar_obs.Kind.gamma_insert ~arg:n
      ~ts:gamma_t0
      ~dur:(Jstar_obs.Monotonic.now_ns () - gamma_t0);
  run_class_effects st ctx tuples;
  (* Phase B: fire all rules of the class, chunked by [Config.grain]. *)
  let t1 = now () in
  fire_rules_batch st ctx to_fire;
  st.phases.t_rules <- st.phases.t_rules +. (now () -. t1);
  (* Barrier: every unit has flushed, so everything the class put is
     pending before the next class is extracted. *)
  flush_step_outputs st;
  merge_lineage st;
  (* Profiler barrier fold: the deterministic Table_stats counters and
     store sizes are re-read here (a handful of striped sums per table),
     so the hot path pays nothing for per-table attribution. *)
  (match st.profiler with
  | Some p ->
      let nt = Array.length st.frozen.Program.tables in
      let puts = Array.make nt 0
      and queries = Array.make nt 0
      and gsize = Array.make nt 0 in
      for id = 0 to nt - 1 do
        let c = Table_stats.counters st.stats id in
        puts.(id) <- Table_stats.read c.Table_stats.puts;
        queries.(id) <- Table_stats.read c.Table_stats.queries;
        gsize.(id) <-
          (if st.no_gamma.(id) then 0 else st.gamma.(id).Store.size ())
      done;
      let sched =
        Option.map
          (fun pool ->
            let s = Jstar_sched.Pool.stats pool in
            {
              Jstar_obs.Profiler.sc_tasks = s.Jstar_sched.Pool.tasks;
              sc_steals = s.Jstar_sched.Pool.steals;
              sc_parks = s.Jstar_sched.Pool.parks;
              sc_idle_ns = s.Jstar_sched.Pool.idle_ns;
            })
          st.pool
      in
      Jstar_obs.Profiler.step_barrier p ~puts ~queries ~gamma:gsize ?sched ()
  | None -> ());
  (* Step seal: the step's identity in the journal — Debug severity, so
     a Warn-filtered journal keeps only transitions and violations. *)
  Jstar_obs.Journal.debug st.journal ~comp:"engine" ~event:"step-seal"
    [
      ("step", Jstar_obs.Json.Num (float_of_int !(st.step_no)));
      ("class_width", Jstar_obs.Json.Num (float_of_int n));
      ("processed", Jstar_obs.Json.Num (float_of_int !(st.processed)));
    ];
  (match st.config.Config.step_hook with
  | Some hook -> hook !(st.step_no) st.metrics
  | None -> ());
  if st.counters_on then begin
    Jstar_obs.Metrics.observe st.h_class_width (float_of_int n);
    if st.trace_spans then
      Jstar_obs.Tracer.record_span st.obs Jstar_obs.Kind.step ~arg:n
        ~ts:step_t0
        ~dur:(Jstar_obs.Monotonic.now_ns () - step_t0)
  end

(* Final digests over Gamma at quiescence (Config.digest). *)
let compute_digest st =
  if not st.digest_on then None
  else begin
    let overall = Fingerprint.create () in
    let d_tables =
      Array.to_list st.frozen.Program.tables
      |> List.filter_map (fun s ->
             let id = s.Schema.id in
             if st.no_gamma.(id) then None
             else begin
               let d = Fingerprint.create () in
               st.gamma.(id).Store.iter (fun t -> Fingerprint.add_tuple d t);
               Fingerprint.add overall d;
               Some (s.Schema.name, Fingerprint.hex d)
             end)
    in
    let d_out = Fingerprint.create () in
    List.iter (Fingerprint.mix_string d_out) (List.rev !(st.outputs));
    Some
      {
        d_gamma = Fingerprint.hex overall;
        d_classes = Fingerprint.hex st.seq_digest;
        d_outputs = Fingerprint.hex d_out;
        d_tables;
      }
  end

(* ------------------------------------------------------------------ *)
(* Event-driven sessions (§3): "Event-driven programming with external
   input tuples fits elegantly into this framework — the input tuples
   are added to the Delta Set, and can then trigger various rules."
   A session keeps the engine state alive between batches of external
   input; [feed] enqueues tuples and [drain] runs to quiescence,
   returning the outputs produced since the previous drain.  A whole
   run is one session: one feed of the initial puts and one drain. *)

type session = {
  st : state;
  ctx : Rule.ctx;
  mutable session_steps : int;
  mutable outputs_seen : int;
  mutable busy : float; (* wall seconds spent inside [feed] and [drain] *)
  mutable finished : bool;
}

let start frozen config =
  let st = make_state frozen config in
  {
    st;
    ctx = make_ctx st;
    session_steps = 0;
    outputs_seen = 0;
    busy = 0.0;
    finished = false;
  }

let feed session tuples =
  if session.finished then invalid_arg "Engine.feed: session finished";
  let t0 = now () in
  (* One unit per call: the feed's puts reach Delta when it returns. *)
  in_unit session.st (fun () ->
      List.iter (route_put session.st session.ctx) tuples);
  session.busy <- session.busy +. (now () -. t0)

(* The engine's one extraction loop: remove the minimal class from
   Delta and run it as a step, until Delta is empty. *)
let drain session =
  if session.finished then invalid_arg "Engine.drain: session finished";
  let st = session.st in
  let t_start = now () in
  let drain_t0 =
    if st.trace_spans then Jstar_obs.Monotonic.now_ns () else 0
  in
  flush_step_outputs st;
  let rec loop () =
    let e0 = if st.trace_spans then Jstar_obs.Monotonic.now_ns () else 0 in
    let t0 = now () in
    let klass = Delta.extract_min_class st.delta in
    st.phases.t_extract <- st.phases.t_extract +. (now () -. t0);
    if st.trace_spans then
      Jstar_obs.Tracer.record_span st.obs Jstar_obs.Kind.extract
        ~arg:(List.length klass) ~ts:e0
        ~dur:(Jstar_obs.Monotonic.now_ns () - e0);
    match klass with
    | [] -> ()
    | tuples ->
        session.session_steps <- session.session_steps + 1;
        (match st.config.Config.max_steps with
        | Some limit when session.session_steps > limit ->
            raise (Step_limit_exceeded limit)
        | _ -> ());
        run_step st session.ctx tuples;
        loop ()
  in
  loop ();
  (* Quiescent: the run is over, see [audit_put]. *)
  st.current_ts := None;
  merge_lineage st;
  if st.trace_spans then
    Jstar_obs.Tracer.record_span st.obs Jstar_obs.Kind.drain
      ~arg:session.session_steps ~ts:drain_t0
      ~dur:(Jstar_obs.Monotonic.now_ns () - drain_t0);
  (* [outputs] is newest-first and [outputs_count] tracks its length, so
     the lines produced since the last drain are exactly its first
     [count - seen] elements — no full-list [length]/[filteri] rescan
     (which made a drain loop quadratic in total output). *)
  let fresh_n = !(st.outputs_count) - session.outputs_seen in
  let rec take n l acc =
    if n = 0 then acc
    else match l with [] -> acc | x :: tl -> take (n - 1) tl (x :: acc)
  in
  let fresh = take fresh_n !(st.outputs) [] in
  session.outputs_seen <- !(st.outputs_count);
  Jstar_obs.Journal.info st.journal ~comp:"engine" ~event:"drain"
    [
      ("steps", Jstar_obs.Json.Num (float_of_int session.session_steps));
      ("outputs", Jstar_obs.Json.Num (float_of_int fresh_n));
      ("processed", Jstar_obs.Json.Num (float_of_int !(st.processed)));
    ];
  session.busy <- session.busy +. (now () -. t_start);
  fresh

let session_gamma session schema =
  session.st.gamma.(schema.Schema.id)

(* Live-introspection accessors (the ops plane reads these from a
   monitoring thread while the driving thread feeds and drains; all of
   them are either immutable after [start] or safe-stale reads of
   monotone state). *)
let session_metrics session = session.st.metrics
let session_lineage session = session.st.lineage
let session_profiler session = session.st.profiler
let session_frozen session = session.st.frozen
let session_journal session = session.st.journal
let session_violation session = !(session.st.last_violation)

let session_delta session =
  (Delta.size session.st.delta, Delta.depth session.st.delta)

let shutdown session =
  if not session.finished then begin
    session.finished <- true;
    Option.iter Jstar_sched.Pool.shutdown session.st.pool
  end

let finish session =
  shutdown session;
  let st = session.st in
  (* Cover tuples fed since the last drain. *)
  merge_lineage st;
  {
    outputs = List.rev !(st.outputs);
    steps = session.session_steps;
    tuples_processed = !(st.processed);
    elapsed = session.busy;
    delta_inserted = Delta.inserted_total st.delta;
    delta_deduped = Delta.deduped_total st.delta;
    stats = st.stats;
    phases = st.phases;
    tracer = st.obs;
    metrics = st.metrics;
    lineage = st.lineage;
    digest = compute_digest st;
  }

(* A run is a session fed once: the pool shuts down however it ends. *)
let run_with_gamma ?(init = []) frozen config =
  let session = start frozen config in
  Fun.protect
    ~finally:(fun () -> shutdown session)
    (fun () ->
      feed session init;
      ignore (drain session);
      (finish session, session_gamma session))

let run ?init frozen config = fst (run_with_gamma ?init frozen config)

let run_program ?init program config = run ?init (Program.freeze program) config

(* ------------------------------------------------------------------ *)
(* Durability hooks.  The persistence layer (jstar_persist) depends on
   jstar_core, so the engine cannot call it; instead it exposes just
   enough session state to snapshot a quiescent session and rebuild it
   on restore.  Everything here assumes quiescence — call only between
   a [drain] and the next [feed]. *)

type session_state = {
  ss_step_no : int;
  ss_steps : int;
  ss_processed : int;
  ss_outputs_count : int;
  ss_outputs : string list;  (* oldest first; [] when elided *)
  ss_seq_lanes : int * int;
}

let session_state ?(with_outputs = true) session =
  let st = session.st in
  {
    ss_step_no = !(st.step_no);
    ss_steps = session.session_steps;
    ss_processed = !(st.processed);
    ss_outputs_count = !(st.outputs_count);
    (* reversing the whole output list is O(lines); watermark-frequency
       callers pass [~with_outputs:false] and use the count alone *)
    ss_outputs = (if with_outputs then List.rev !(st.outputs) else []);
    ss_seq_lanes = Fingerprint.lanes st.seq_digest;
  }

let restore_session_state session s =
  let st = session.st in
  if List.length s.ss_outputs <> s.ss_outputs_count then
    invalid_arg "Engine.restore_session_state: output count mismatch";
  st.step_no := s.ss_step_no;
  session.session_steps <- s.ss_steps;
  st.processed := s.ss_processed;
  st.outputs := List.rev s.ss_outputs;
  st.outputs_count := s.ss_outputs_count;
  session.outputs_seen <- !(st.outputs_count);
  let lo, hi = s.ss_seq_lanes in
  Fingerprint.set_lanes st.seq_digest ~lo ~hi

let load_tuple session tuple =
  let st = session.st in
  let schema = Tuple.schema tuple in
  let id = schema.Schema.id in
  if st.no_gamma.(id) then
    invalid_arg
      ("Engine.load_tuple: table " ^ schema.Schema.name ^ " is -noGamma");
  if st.gamma.(id).Store.insert tuple then
    Table_stats.incr
      (Table_stats.counters st.stats id).Table_stats.gamma_inserts

let session_pending session = Delta.size session.st.delta

let stored_tables session =
  let st = session.st in
  Array.to_list st.frozen.Program.tables
  |> List.filter (fun s -> not st.no_gamma.(s.Schema.id))

let gamma_digest session =
  let st = session.st in
  let overall = Fingerprint.create () in
  Array.iter
    (fun s ->
      let id = s.Schema.id in
      if not st.no_gamma.(id) then begin
        let d = Fingerprint.create () in
        st.gamma.(id).Store.iter (fun t -> Fingerprint.add_tuple d t);
        Fingerprint.add overall d
      end)
    st.frozen.Program.tables;
  Fingerprint.hex overall
