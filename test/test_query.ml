(* Tests for the query-acceleration layer: secondary indexes
   ({!Index} / {!Store.indexed}), memoized monoid aggregates
   ({!Agg_cache} through [Query.memo_*] and the [Query.count] fast
   path), and the adaptive store advisor — including the determinism
   and zero-cost-when-off guarantees the engine wiring must keep. *)

open Jstar_core

let v_int i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Cross-store equivalence: every store family, the indexed wrapper,
   and mid-stream index promotion must answer prefix queries and [mem]
   identically. *)

let abc_schema () =
  let p = Program.create () in
  Program.table p "T"
    ~columns:Schema.[ int_col "a"; int_col "b"; int_col "c" ]
    ~orderby:Schema.[ Lit "T" ]
    ()

let sorted_prefix_query store prefix =
  let acc = ref [] in
  store.Store.iter_prefix prefix (fun t -> acc := t :: !acc);
  List.sort Tuple.compare !acc

let prop_indexed_store_equivalence =
  QCheck.Test.make ~name:"indexed/hash/ordered stores answer alike" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 0 40)
        (triple (int_range 0 3) (int_range 0 3) (int_range 0 3)))
    (fun triples ->
      let s = abc_schema () in
      let tuples =
        List.map
          (fun (a, b, c) -> Tuple.make s [| v_int a; v_int b; v_int c |])
          triples
      in
      let reference = Store.tree s in
      let promoted_inner = Store.tree s in
      let promoted, ph = Store.indexed s promoted_inner in
      let others =
        [
          Store.skiplist s;
          Store.hash_index ~prefix_len:1 s;
          Store.hash_index ~prefix_len:2 s;
          fst (Store.indexed ~prefix_lens:[ 1 ] s (Store.tree s));
          fst
            (Store.indexed ~prefix_lens:[ 1; 2 ] s
               (Store.hash_index ~prefix_len:2 s));
          promoted;
        ]
      in
      (* First half element-wise; promote an index mid-stream on the
         undeclared wrapper (backfilling what is already there); second
         half through [insert_batch] on a sorted run. *)
      let arr = Array.of_list tuples in
      let n = Array.length arr in
      let half = n / 2 in
      let ok = ref true in
      for i = 0 to half - 1 do
        let r = reference.Store.insert arr.(i) in
        List.iter
          (fun st -> if st.Store.insert arr.(i) <> r then ok := false)
          others
      done;
      ignore (ph.Store.ih_promote 1 : bool);
      if ph.Store.ih_lens () <> [ 1 ] then ok := false;
      let rest = Array.sub arr half (n - half) in
      Array.sort Tuple.compare rest;
      let res_ref = reference.Store.insert_batch rest 0 (Array.length rest) in
      List.iter
        (fun st ->
          if st.Store.insert_batch rest 0 (Array.length rest) <> res_ref then
            ok := false)
        others;
      (* Probe every prefix length over the small value domain. *)
      let prefixes =
        [ [||] ]
        @ List.concat_map
            (fun a ->
              [ [| v_int a |] ]
              @ List.concat_map
                  (fun b ->
                    [ [| v_int a; v_int b |] ]
                    @ List.map
                        (fun c -> [| v_int a; v_int b; v_int c |])
                        [ 0; 1; 2; 3 ])
                  [ 0; 1; 2; 3 ])
            [ 0; 1; 2; 3 ]
      in
      List.iter
        (fun prefix ->
          let expect = sorted_prefix_query reference prefix in
          List.iter
            (fun st ->
              let got = sorted_prefix_query st prefix in
              if
                not
                  (List.length got = List.length expect
                  && List.for_all2 Tuple.equal got expect)
              then ok := false)
            others)
        prefixes;
      List.iter
        (fun t ->
          let r = reference.Store.mem t in
          List.iter (fun st -> if st.Store.mem t <> r then ok := false) others)
        tuples;
      List.iter
        (fun st -> if st.Store.size () <> reference.Store.size () then ok := false)
        others;
      !ok)

let test_indexed_handle () =
  let s = abc_schema () in
  Alcotest.check_raises "declared length out of range"
    (Schema.Schema_error "T: secondary index prefix length 4 out of range")
    (fun () -> ignore (Store.indexed ~prefix_lens:[ 4 ] s (Store.tree s)));
  let store, h = Store.indexed ~prefix_lens:[ 2 ] s (Store.tree s) in
  Alcotest.(check (list int)) "declared" [ 2 ] (h.Store.ih_lens ());
  Alcotest.(check bool) "promote new length" true (h.Store.ih_promote 1);
  Alcotest.(check bool) "existing length refused" false (h.Store.ih_promote 2);
  Alcotest.(check (list int)) "sorted lengths" [ 1; 2 ] (h.Store.ih_lens ());
  (* Promotion backfills: tuples inserted before the index existed are
     still found through it. *)
  Alcotest.(check bool) "insert" true
    (store.Store.insert (Tuple.make s [| v_int 1; v_int 2; v_int 3 |]));
  Alcotest.(check bool) "promote 3 backfills" true (h.Store.ih_promote 3);
  let got = sorted_prefix_query store [| v_int 1; v_int 2; v_int 3 |] in
  Alcotest.(check int) "found via backfilled index" 1 (List.length got)

(* ------------------------------------------------------------------ *)
(* Aggregate-cache maintenance: each Phase-A batch (including dedup
   drops within and across batches) must leave the cached partials
   equal to a forced Gamma scan, for [count] and a memoized sum, at
   every group including absent ones. *)

let groups = 5

let run_agg_maintenance config () =
  let p = Program.create () in
  let data =
    Program.table p "Data"
      ~columns:Schema.[ int_col "g"; int_col "v" ]
      ~orderby:Schema.[ Lit "Data"; Seq "g" ]
      ()
  in
  let sum_memo =
    Query.memo data ~prefix_len:1 ~monoid:Reducer.int_sum ~f:(fun t ->
        Tuple.int t "v")
  in
  Program.rule p "check-and-seed" ~trigger:data (fun ctx t ->
      let g = Tuple.int t "g" in
      for g' = 0 to groups do
        let prefix = [| v_int g' |] in
        let cached = Query.count ctx data ~prefix () in
        (* [~where] disables the fast path: a forced scan of the same
           Gamma the partials must mirror. *)
        let scanned = Query.count ctx data ~prefix ~where:(fun _ -> true) () in
        if cached <> scanned then
          Alcotest.failf "count mismatch at class %d, group %d: %d <> %d" g g'
            cached scanned;
        let csum = Query.memo_reduce ctx sum_memo ~prefix () in
        let ssum =
          Query.reduce ctx data ~prefix ~monoid:Reducer.int_sum
            ~f:(fun t -> Tuple.int t "v")
            ()
        in
        if csum <> ssum then
          Alcotest.failf "sum mismatch at class %d, group %d: %d <> %d" g g'
            csum ssum
      done;
      (* Total count across groups: the prefix-length-0 partial. *)
      let total = Query.count ctx data () in
      let scanned_total = Query.count ctx data ~where:(fun _ -> true) () in
      if total <> scanned_total then
        Alcotest.failf "total mismatch at class %d: %d <> %d" g total
          scanned_total;
      if g + 1 < groups then begin
        (* Seed the next batch: a within-batch duplicate pair, a fresh
           row, and a re-put of an already-stored tuple (cross-batch
           dedup drop) — none of the drops may reach the partials. *)
        ctx.Rule.put (Tuple.make data [| v_int (g + 1); v_int (10 * g) |]);
        ctx.Rule.put (Tuple.make data [| v_int (g + 1); v_int (10 * g) |]);
        ctx.Rule.put (Tuple.make data [| v_int (g + 1); v_int (10 * g + 1) |]);
        ctx.Rule.put t
      end);
  let init =
    [
      Tuple.make data [| v_int 0; v_int 1 |];
      Tuple.make data [| v_int 0; v_int 1 |];
      Tuple.make data [| v_int 0; v_int 2 |];
    ]
  in
  let r = Engine.run_program ~init p config in
  (* 2 distinct init rows (the duplicate dies in Delta) + 2 fresh rows
     seeded per class transition. *)
  Alcotest.(check int)
    "rows stored" (2 + ((groups - 1) * 2))
    r.Engine.tuples_processed

let test_agg_maintenance_seq =
  run_agg_maintenance { Config.default with Config.agg_cache = true }

let test_agg_maintenance_par =
  run_agg_maintenance (Config.parallel ~threads:2 ())

(* memo_min_by breaks key ties by tuple order, so the cached minimum
   matches what an ordered-store scan returns first — independent of
   the schedule that built the partials. *)
let test_memo_min_tiebreak () =
  let p = Program.create () in
  let data =
    Program.table p "Data"
      ~columns:Schema.[ int_col "g"; int_col "v"; int_col "w" ]
      ~orderby:Schema.[ Lit "Data"; Seq "g" ]
      ()
  in
  let min_memo =
    Query.memo_min_by data ~prefix_len:1 ~key:(fun t -> Tuple.int t "w")
  in
  Program.rule p "check" ~trigger:data (fun ctx t ->
      let g = Tuple.int t "g" in
      (match Query.memo_min ctx min_memo ~prefix:[| v_int g |] () with
      | None -> Alcotest.fail "memoized min of a present group"
      | Some m ->
          (* All [w] are equal, so the winner is the tuple-order
             minimum: the smallest [v]. *)
          Alcotest.(check int) "tie broken by tuple order" 0 (Tuple.int m "v"));
      Alcotest.(check bool)
        "absent group is None" true
        (Query.memo_min ctx min_memo ~prefix:[| v_int 99 |] () = None);
      (* The next batch inserts a smaller-in-tuple-order tie: the
         maintained partial must switch to it. *)
      if g = 0 then
        for v = 0 to 3 do
          ctx.Rule.put (Tuple.make data [| v_int 1; v_int (3 - v); v_int 7 |])
        done);
  let init =
    List.map
      (fun v -> Tuple.make data [| v_int 0; v_int v; v_int 7 |])
      [ 2; 0; 1; 3 ]
  in
  ignore
    (Engine.run_program ~init p { Config.default with Config.agg_cache = true })

(* ------------------------------------------------------------------ *)
(* Advisor: outputs must be identical at every thread count with the
   advisor on or off, and the on-runs must actually promote. *)

let metric_int metrics name =
  let rows = Jstar_obs.Metrics.snapshot metrics in
  match List.find_opt (fun r -> r.Jstar_obs.Metrics.name = name) rows with
  | None -> Alcotest.failf "metric %s not registered" name
  | Some r -> (
      match List.assoc "value" r.Jstar_obs.Metrics.fields with
      | Jstar_obs.Metrics.Int n -> n
      | Jstar_obs.Metrics.Float f -> int_of_float f)

let advisor_probes = 48
let advisor_groups = 8

let run_advisor_program ~threads ~advisor () =
  let p = Program.create () in
  let data =
    Program.table p "Data"
      ~columns:Schema.[ int_col "g"; int_col "i" ]
      ~orderby:Schema.[ Lit "Data" ]
      ()
  in
  let probe =
    Program.table p "Probe"
      ~columns:Schema.[ int_col "k" ]
      ~orderby:Schema.[ Lit "Probe"; Seq "k" ]
      ()
  in
  Program.order p [ "Data"; "Probe" ];
  Program.rule p "query" ~trigger:probe (fun ctx t ->
      let k = Tuple.int t "k" in
      let g = k mod advisor_groups in
      (* A length-1 prefix the Hash_index-2 primary cannot index: full
         scan until the advisor promotes a secondary index. *)
      let n = Query.count ctx data ~prefix:[| v_int g |] () in
      let hit =
        Query.fold ctx data ~prefix:[| v_int g |] ~init:0 ~f:(fun acc t ->
            max acc (Tuple.int t "i"))
          ()
      in
      ctx.Rule.println (Printf.sprintf "probe %d group %d count %d max %d" k g n hit);
      if k + 1 < advisor_probes then
        ctx.Rule.put (Tuple.make probe [| v_int (k + 1) |]));
  let init =
    Tuple.make probe [| v_int 0 |]
    :: List.init 64 (fun i ->
           Tuple.make data [| v_int (i mod advisor_groups); v_int i |])
  in
  let base =
    if threads = 1 then Config.default else Config.parallel ~threads ()
  in
  let config =
    {
      base with
      Config.stores = [ ("Data", Store.Hash_index 2) ];
      agg_cache = false;
      advisor =
        (if advisor then
           Some
             {
               Config.adv_warmup = 16;
               adv_min_queries = 8;
               adv_min_size = 16;
               adv_demote_windows = 4;
             }
         else None);
      tracing = Jstar_obs.Level.Counters;
    }
  in
  let r = Engine.run_program ~init p config in
  if advisor then
    Alcotest.(check bool)
      "advisor promoted" true
      (metric_int r.Engine.metrics "advisor.promotions" > 0);
  r.Engine.outputs

let test_advisor_determinism () =
  let reference = run_advisor_program ~threads:1 ~advisor:false () in
  Alcotest.(check int)
    "probe lines" advisor_probes
    (List.length reference);
  List.iter
    (fun (threads, advisor) ->
      let got = run_advisor_program ~threads ~advisor () in
      Alcotest.(check (list string))
        (Printf.sprintf "threads=%d advisor=%b" threads advisor)
        reference got)
    [ (1, true); (2, false); (2, true); (4, false); (4, true) ]

(* ------------------------------------------------------------------ *)
(* Advisor demotion: a promoted index whose traffic goes cold for
   [adv_demote_windows] review windows is dropped again.  Reviews fire
   on global query volume, so the cold phase keeps querying a *second*
   table — the promoted Data index then serves none of the window's
   queries and ages out. *)

(* Reviews are amortised to one per [max 64 (warmup/2)] queries and a
   demotion needs [adv_demote_windows] consecutive cold reviews, so the
   cold phase must span several hundred queries (2 per probe). *)
let demotion_probes = 200
let demotion_hot_until = 24

let run_demotion_program ~threads ~advisor () =
  let p = Program.create () in
  let data =
    Program.table p "Data"
      ~columns:Schema.[ int_col "g"; int_col "i" ]
      ~orderby:Schema.[ Lit "Data" ]
      ()
  in
  let other =
    Program.table p "Other"
      ~columns:Schema.[ int_col "g"; int_col "i" ]
      ~orderby:Schema.[ Lit "Other" ]
      ()
  in
  let probe =
    Program.table p "Probe"
      ~columns:Schema.[ int_col "k" ]
      ~orderby:Schema.[ Lit "Probe"; Seq "k" ]
      ()
  in
  Program.order p [ "Data"; "Other"; "Probe" ];
  Program.rule p "query" ~trigger:probe (fun ctx t ->
      let k = Tuple.int t "k" in
      let g = k mod advisor_groups in
      let target = if k < demotion_hot_until then data else other in
      let n = Query.count ctx target ~prefix:[| v_int g |] () in
      let hit =
        Query.fold ctx target ~prefix:[| v_int g |] ~init:0 ~f:(fun acc t ->
            max acc (Tuple.int t "i"))
          ()
      in
      ctx.Rule.println
        (Printf.sprintf "probe %d group %d count %d max %d" k g n hit);
      if k + 1 < demotion_probes then
        ctx.Rule.put (Tuple.make probe [| v_int (k + 1) |]));
  let init =
    Tuple.make probe [| v_int 0 |]
    :: List.init 64 (fun i ->
           Tuple.make data [| v_int (i mod advisor_groups); v_int i |])
    @ List.init 64 (fun i ->
          Tuple.make other [| v_int (i mod advisor_groups); v_int i |])
  in
  let base =
    if threads = 1 then Config.default else Config.parallel ~threads ()
  in
  let config =
    {
      base with
      Config.stores =
        [ ("Data", Store.Hash_index 2); ("Other", Store.Hash_index 2) ];
      agg_cache = false;
      advisor =
        (if advisor then
           Some
             {
               Config.adv_warmup = 16;
               adv_min_queries = 8;
               adv_min_size = 16;
               adv_demote_windows = 3;
             }
         else None);
      tracing = Jstar_obs.Level.Counters;
    }
  in
  let r = Engine.run_program ~init p config in
  if advisor then begin
    Alcotest.(check bool)
      "advisor promoted before the cold phase" true
      (metric_int r.Engine.metrics "advisor.promotions" > 0);
    Alcotest.(check bool)
      "advisor demoted the cold index" true
      (metric_int r.Engine.metrics "advisor.demotions" > 0)
  end;
  r.Engine.outputs

let test_advisor_demotion () =
  let reference = run_demotion_program ~threads:1 ~advisor:false () in
  Alcotest.(check int) "probe lines" demotion_probes (List.length reference);
  List.iter
    (fun (threads, advisor) ->
      let got = run_demotion_program ~threads ~advisor () in
      Alcotest.(check (list string))
        (Printf.sprintf "demotion run threads=%d advisor=%b" threads advisor)
        reference got)
    [ (1, true); (2, true); (4, true) ]

(* ------------------------------------------------------------------ *)
(* Config validation of the new knobs *)

let test_config_validation () =
  let raises msg cfg =
    match Config.validate cfg with
    | () -> Alcotest.failf "expected Config.Invalid for %s" msg
    | exception Config.Invalid _ -> ()
  in
  raises "empty index list"
    { Config.default with Config.indexes = [ ("T", []) ] };
  raises "non-positive index length"
    { Config.default with Config.indexes = [ ("T", [ 0 ]) ] };
  raises "advisor thresholds"
    {
      Config.default with
      Config.advisor =
        Some
          {
            Config.adv_warmup = -1;
            adv_min_queries = 1;
            adv_min_size = 0;
            adv_demote_windows = 4;
          };
    };
  raises "unknown suppress kind"
    { Config.default with Config.trace_suppress = [ "no-such-kind" ] };
  Config.validate
    {
      Config.default with
      Config.indexes = [ ("T", [ 1; 2 ]) ];
      advisor = Some Config.advisor_default;
      trace_suppress = [ "rule-fire" ];
    }

(* ------------------------------------------------------------------ *)
(* With every acceleration knob off, the put path must not allocate:
   the advisor/cache hooks are one [None] branch each.  Duplicate puts
   of a const-timestamp table walk the whole hot path (stats, timestamp
   memo, Gamma mem probe) and must cost the same minor words as an
   identically-shaped empty loop — on the sequential Gamma (tree) and
   on the concurrent one (skip list) alike. *)

let put_path_minor_words data_structures =
  let p = Program.create () in
  let data =
    Program.table p "Data"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "A" ]
      ()
  in
  let go =
    Program.table p "Go"
      ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "B" ]
      ()
  in
  Program.order p [ "A"; "B" ];
  let dup = Tuple.make data [| v_int 1; v_int 2 |] in
  let baseline = ref 0.0 and puts = ref 0.0 in
  let minor_delta f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  Program.rule p "measure" ~trigger:go (fun ctx _ ->
      baseline :=
        minor_delta (fun () ->
            for _ = 1 to 10_000 do
              ignore (Sys.opaque_identity dup)
            done);
      puts :=
        minor_delta (fun () ->
            for _ = 1 to 10_000 do
              ignore (Sys.opaque_identity dup);
              ctx.Rule.put dup
            done));
  let init = [ dup; Tuple.make go [| v_int 0 |] ] in
  ignore
    (Engine.run_program ~init p { Config.default with Config.data_structures });
  (!baseline, !puts)

let test_put_path_zero_alloc_when_off () =
  List.iter
    (fun (name, ds) ->
      let baseline, puts = put_path_minor_words ds in
      Alcotest.(check (float 0.0))
        ("duplicate put allocates nothing with acceleration off, " ^ name)
        baseline puts)
    [ ("Auto", Config.Auto); ("Concurrent_ds", Config.Concurrent_ds) ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "query.accel",
      [
        QCheck_alcotest.to_alcotest prop_indexed_store_equivalence;
        Alcotest.test_case "indexed handle contract" `Quick test_indexed_handle;
        Alcotest.test_case "agg cache = forced scan (seq)" `Quick
          test_agg_maintenance_seq;
        Alcotest.test_case "agg cache = forced scan (par)" `Quick
          test_agg_maintenance_par;
        Alcotest.test_case "memo_min tie-break" `Quick test_memo_min_tiebreak;
        Alcotest.test_case "advisor determinism + promotion" `Slow
          test_advisor_determinism;
        Alcotest.test_case "advisor demotion after cold windows" `Slow
          test_advisor_demotion;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "zero-alloc put path when off" `Quick
          test_put_path_zero_alloc_when_off;
      ] );
  ]
