(* Shared-nothing sharded execution (PR 8): with [Config.shards = n]
   the Delta and Gamma are partitioned into n single-owner shards and
   remote-owned puts ship through per-shard mailboxes.  The mode is a
   pure execution strategy: digests, output stream, per-table stats,
   delta totals and explain trees must be bit-identical to the
   unsharded engine across the shards x threads x grain grid —
   including durable-session feed/drain/recover round-trips. *)

open Jstar_core

let v_int i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Fixture: transitive closure plus a negative rule (sinks: nodes with
   no outgoing edge) and an aggregate rule (out-degrees), so sharded
   runs exercise the positive hash-join probe, the vectorized
   negative-scan path and the aggregate cache in one program. *)

type fixture = {
  x_program : Program.t;
  x_edge : Schema.t;
  x_path : Schema.t;
}

let closure_fixture () =
  let p = Program.create () in
  let edge =
    Program.table p "Edge"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Edge" ]
      ()
  in
  let path =
    Program.table p "Path"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Path" ]
      ()
  in
  let sink =
    Program.table p "Sink"
      ~columns:Schema.[ int_col "n" ]
      ~orderby:Schema.[ Lit "Sink" ]
      ()
  in
  let deg =
    Program.table p "Deg"
      ~columns:Schema.[ int_col "n"; int_col "d" ]
      ~orderby:Schema.[ Lit "Deg" ]
      ()
  in
  Program.order p [ "Edge"; "Path"; "Sink"; "Deg" ];
  Program.rule p "seed" ~trigger:edge (fun ctx e ->
      ctx.Rule.put (Tuple.make path [| Tuple.get e 0; Tuple.get e 1 |]));
  Program.rule p "close" ~trigger:path
    ~reads:[ Spec.read ~prefix:[ Spec.Field "b" ] "Edge" ]
    (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      Query.iter ctx edge ~prefix:[| v_int y |] (fun e ->
          ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
  Program.rule p "sink" ~trigger:path
    ~reads:[ Spec.read ~kind:Spec.Negative ~prefix:[ Spec.Field "b" ] "Edge" ]
    (fun ctx t ->
      let b = Tuple.int t "b" in
      if Query.count ctx edge ~prefix:[| v_int b |] () = 0 then
        ctx.Rule.put (Tuple.make sink [| v_int b |]));
  Program.rule p "degree" ~trigger:path
    ~reads:[ Spec.read ~kind:Spec.Aggregate ~prefix:[ Spec.Field "a" ] "Edge" ]
    (fun ctx t ->
      let a = Tuple.int t "a" in
      let d = Query.count ctx edge ~prefix:[| v_int a |] () in
      ctx.Rule.put (Tuple.make deg [| v_int a; v_int d |]));
  Program.output p path (fun t ->
      Printf.sprintf "path %d %d" (Tuple.int t "a") (Tuple.int t "b"));
  Program.output p sink (fun t -> Printf.sprintf "sink %d" (Tuple.int t "n"));
  { x_program = p; x_edge = edge; x_path = path }

let edge_tuples fx edges =
  List.map (fun (a, b) -> Tuple.make fx.x_edge [| v_int a; v_int b |]) edges

(* The grid: the (shards = 0, 1 thread) oracle first, then every
   interesting combination — shards without threads, threads without
   shards, both, shard count above and below the thread count, and both
   ends of the grain range (adaptive chunks and the §5.2 one task per
   (tuple, rule)). *)
let auto = Config.Auto_grain
let per_rule = Config.Fixed 1

let grid =
  [
    (0, 1, per_rule);
    (0, 2, auto);
    (1, 1, per_rule);
    (1, 2, auto);
    (2, 1, per_rule);
    (2, 1, auto);
    (2, 2, per_rule);
    (2, 2, auto);
    (2, 4, auto);
    (4, 2, auto);
    (4, 4, auto);
  ]

let shard_config ~shards ~threads ~grain =
  let c =
    if threads = 1 then Config.default else Config.parallel ~threads ()
  in
  {
    c with
    Config.shards;
    grain;
    (* [Config.parallel] flips the aggregate cache on and [default]
       leaves it off, which legitimately changes the per-table query
       counters; pin it so the grid varies only shards/threads/firing *)
    agg_cache = true;
    indexes = [ ("Edge", [ 1 ]) ];
    provenance = true;
    audit_causality = true;
    digest = true;
  }

type observation = {
  o_digest : (string * string * string * (string * string) list) option;
  o_outputs : string list;
  o_stats : Table_stats.snapshot list;
  o_delta : int * int;
}

let observe result =
  {
    o_digest =
      Option.map
        (fun d ->
          ( d.Engine.d_gamma,
            d.Engine.d_classes,
            d.Engine.d_outputs,
            d.Engine.d_tables ))
        result.Engine.digest;
    o_outputs = result.Engine.outputs;
    o_stats = Table_stats.snapshot result.Engine.stats;
    o_delta = (result.Engine.delta_inserted, result.Engine.delta_deduped);
  }

let check_grid_equal ~msg observations =
  match observations with
  | [] -> ()
  | reference :: rest ->
      List.iteri
        (fun i o ->
          let at what =
            Printf.sprintf "%s: %s at grid point %d" msg what (i + 1)
          in
          Alcotest.(check bool) (at "digests") true (o.o_digest = reference.o_digest);
          Alcotest.(check bool) (at "outputs") true (o.o_outputs = reference.o_outputs);
          Alcotest.(check bool) (at "stats") true (o.o_stats = reference.o_stats);
          Alcotest.(check bool) (at "delta totals") true
            (o.o_delta = reference.o_delta))
        rest

(* ------------------------------------------------------------------ *)
(* Whole-run equivalence across the grid *)

let run_point edges (shards, threads, grain) =
  let fx = closure_fixture () in
  let config = shard_config ~shards ~threads ~grain in
  observe
    (Engine.run_program ~init:(edge_tuples fx edges) fx.x_program config)

let test_shards_grid () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 4); (4, 2); (2, 5) ] in
  check_grid_equal ~msg:"closure" (List.map (run_point edges) grid);
  (* sanity: not vacuously equal *)
  let o = run_point edges (2, 2, auto) in
  Alcotest.(check bool) "digest present" true (o.o_digest <> None);
  Alcotest.(check bool) "outputs present" true (o.o_outputs <> [])

let prop_shards_grid =
  QCheck.Test.make ~name:"sharded == unsharded on random graphs" ~count:6
    QCheck.(
      list_of_size (Gen.int_range 1 25) (pair (int_range 0 7) (int_range 0 7)))
    (fun edges ->
      let oracle = run_point edges (0, 1, per_rule) in
      List.for_all
        (fun point -> run_point edges point = oracle)
        [ (2, 1, per_rule); (2, 2, auto); (4, 2, auto) ])

(* ------------------------------------------------------------------ *)
(* Explain trees: lineage merged from sharded firings must derive the
   same canonical trees as the unsharded run. *)

let test_shards_explain () =
  let edges = [ (0, 1); (1, 2); (1, 3); (3, 0) ] in
  let trees_at (shards, threads, grain) =
    let fx = closure_fixture () in
    let config = shard_config ~shards ~threads ~grain in
    let frozen = Program.freeze fx.x_program in
    let result, gamma =
      Engine.run_with_gamma ~init:(edge_tuples fx edges) frozen config
    in
    let lineage = Option.get result.Engine.lineage in
    (match Jstar_prov.Explain.completeness_error ~lineage with
    | None -> ()
    | Some msg -> Alcotest.fail ("lineage incomplete: " ^ msg));
    let tuples = ref [] in
    (gamma fx.x_path).Store.iter (fun t -> tuples := t :: !tuples);
    List.map
      (fun t ->
        match Jstar_prov.Explain.derive ~lineage ~frozen t with
        | Some node -> Jstar_prov.Explain.to_string node
        | None -> Alcotest.fail ("stored but untracked: " ^ Tuple.show t))
      (List.sort Tuple.compare !tuples)
  in
  let reference = trees_at (0, 1, per_rule) in
  Alcotest.(check bool) "trees nonempty" true (reference <> []);
  List.iter
    (fun point ->
      Alcotest.(check bool) "sharded explain trees == unsharded" true
        (trees_at point = reference))
    [ (2, 1, per_rule); (2, 2, auto); (4, 2, auto) ]

(* ------------------------------------------------------------------ *)
(* Sessions: feed/drain under sharding matches the oracle, and the
   monitoring-lane accessor reports a quiesced shard plane. *)

let test_shards_session () =
  let observations =
    List.map
      (fun ((shards, threads, grain) as point) ->
        let fx = closure_fixture () in
        let config = shard_config ~shards ~threads ~grain in
        let s = Engine.start (Program.freeze fx.x_program) config in
        Engine.feed s (edge_tuples fx [ (2, 3); (3, 4) ]);
        ignore (Engine.drain s);
        (match Engine.session_shards s with
        | Some st ->
            Alcotest.(check int) "shard count" (max shards 1) st.Engine.sh_count;
            Alcotest.(check bool) "mailboxes drained at quiescence" true
              (Array.for_all (( = ) 0) st.Engine.sh_backlog);
            Alcotest.(check bool) "occupancy empty at quiescence" true
              (Array.for_all (( = ) 0) st.Engine.sh_occupancy);
            Alcotest.(check bool) "messages were posted" true
              (st.Engine.sh_msgs_posted > 0)
        | None ->
            let shards, _, _ = point in
            Alcotest.(check int) "no shard plane when unsharded" 0 shards);
        Engine.feed s (edge_tuples fx [ (0, 1); (1, 2) ]);
        ignore (Engine.drain s);
        observe (Engine.finish s))
      grid
  in
  check_grid_equal ~msg:"session" observations

(* ------------------------------------------------------------------ *)
(* Durable sessions: WAL + snapshot + recovery with sharding on.  A
   sharded durable session is checkpointed, reopened (recovery replays
   the WAL against a fresh sharded engine) and run to completion; its
   digests must match an uninterrupted unsharded oracle fed the same
   schedule. *)

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jstar-shards-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let test_shards_durable () =
  let batches = [ [ (0, 1); (1, 2) ]; [ (2, 3); (1, 4) ]; [ (4, 2); (2, 0) ] ] in
  (* unsharded, non-durable oracle over the full schedule *)
  let oracle =
    let fx = closure_fixture () in
    let s =
      Engine.start (Program.freeze fx.x_program)
        (shard_config ~shards:0 ~threads:1 ~grain:per_rule)
    in
    List.iter
      (fun b ->
        Engine.feed s (edge_tuples fx b);
        ignore (Engine.drain s))
      batches;
    observe (Engine.finish s)
  in
  let dir = fresh_dir () in
  let fx = closure_fixture () in
  let frozen = Program.freeze fx.x_program in
  let config = shard_config ~shards:2 ~threads:2 ~grain:auto in
  (* first incarnation: two batches, checkpoint, shut down *)
  let d, status = Jstar_persist.Durable.open_ ~dir frozen config in
  (match status with
  | Jstar_persist.Durable.Fresh -> ()
  | Jstar_persist.Durable.Restored _ -> Alcotest.fail "fresh dir restored");
  List.iter
    (fun b ->
      Jstar_persist.Durable.feed d (edge_tuples fx b);
      ignore (Jstar_persist.Durable.drain d))
    [ List.nth batches 0; List.nth batches 1 ];
  Jstar_persist.Durable.checkpoint d;
  ignore (Jstar_persist.Durable.finish d);
  (* second incarnation: recover sharded, finish the schedule *)
  let fx2 = closure_fixture () in
  let d2, status2 =
    Jstar_persist.Durable.open_ ~dir (Program.freeze fx2.x_program) config
  in
  (match status2 with
  | Jstar_persist.Durable.Restored info ->
      (* the checkpoint covered both drains, so recovery starts from
         the snapshot generation and replays no WAL records *)
      Alcotest.(check bool) "restored from a snapshot" true
        (info.Jstar_persist.Durable.r_gen >= 1)
  | Jstar_persist.Durable.Fresh -> Alcotest.fail "recovery found nothing");
  Jstar_persist.Durable.feed d2 (edge_tuples fx2 (List.nth batches 2));
  ignore (Jstar_persist.Durable.drain d2);
  let o = observe (Jstar_persist.Durable.finish d2) in
  Alcotest.(check bool) "sharded durable digests == unsharded oracle" true
    (o.o_digest = oracle.o_digest);
  Alcotest.(check bool) "sharded durable outputs == unsharded oracle" true
    (o.o_outputs = oracle.o_outputs)

let suite =
  [
    ( "shards",
      [
        Alcotest.test_case "closure grid: sharded == unsharded" `Quick
          test_shards_grid;
        QCheck_alcotest.to_alcotest prop_shards_grid;
        Alcotest.test_case "explain trees identical under sharding" `Quick
          test_shards_explain;
        Alcotest.test_case "session feed/drain grid" `Quick test_shards_session;
        Alcotest.test_case "durable recover round-trip sharded" `Quick
          test_shards_durable;
      ] );
  ]
