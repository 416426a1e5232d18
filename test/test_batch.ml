(* Phase B as batched relational algebra, the engine's one firing
   path: digests, output stream, per-table stats, Delta totals and
   lineage must equal the values recorded from the retired per-tuple
   path, across threads x grain ([Auto_grain] and the §5.2 [Fixed 1])
   with provenance and the causality auditor on; the closure must equal
   a plain BFS on random graphs, and a closure with a negative and an
   aggregate rule must equal sets computed without the engine.  Also
   covers the lineage of a put
   issued *after* a positive scan completed: the scanned tuples are its
   parents, not just the trigger. *)

open Jstar_core

let v_int i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Fixture: transitive closure with a declared hash-join key, so the
   batch path exercises chunk sorting and the probe cursor against a
   hash-indexed Edge table. *)

type closure = {
  c_program : Program.t;
  c_edge : Schema.t;
  c_path : Schema.t;
  c_init : Tuple.t list;
}

let closure_program edges =
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
  Program.order p [ "Edge"; "Path" ];
  Program.rule p "seed" ~trigger:edge (fun ctx e ->
      ctx.Rule.put (Tuple.make path [| Tuple.get e 0; Tuple.get e 1 |]));
  Program.rule p "close" ~trigger:path
    ~reads:[ Spec.read ~prefix:[ Spec.Field "b" ] "Edge" ]
    (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      Query.iter ctx edge ~prefix:[| v_int y |] (fun e ->
          ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
  Program.output p path (fun t ->
      Printf.sprintf "path %d %d" (Tuple.int t "a") (Tuple.int t "b"));
  let init =
    List.map (fun (a, b) -> Tuple.make edge [| v_int a; v_int b |]) edges
  in
  { c_program = p; c_edge = edge; c_path = path; c_init = init }

(* The grid: thread counts x both ends of the grain range — the
   adaptive chunks and the §5.2 one task per (tuple, rule). *)
let grid =
  List.concat_map
    (fun threads ->
      List.map (fun grain -> (threads, grain)) [ Config.Auto_grain; Fixed 1 ])
    [ 1; 2; 4 ]

let grid_config ~threads ~grain =
  let c =
    if threads = 1 then Config.default else Config.parallel ~threads ()
  in
  {
    c with
    Config.grain;
    stores = [ ("Edge", Store.Hash_index 1) ];
    provenance = true;
    audit_causality = true;
    digest = true;
  }

(* What a run is checked on: every digest lane, the output stream (its
   digest and length), every per-table counter and both Delta totals. *)
type observation = {
  r_gamma : string;
  r_classes : string;
  r_outputs : string;
  r_tables : (string * string) list;
  r_lines : int;
  r_stats : string;
  r_delta : int * int;
}

(* Per-table counters, one "table puts delta_inserts delta_dups
   gamma_inserts gamma_dups triggers queries" group per table. *)
let stats_line stats =
  String.concat "; "
    (List.map
       (fun s ->
         Printf.sprintf "%s %d %d %d %d %d %d %d" s.Table_stats.table
           s.Table_stats.n_puts s.Table_stats.n_delta_inserts
           s.Table_stats.n_delta_dups s.Table_stats.n_gamma_inserts
           s.Table_stats.n_gamma_dups s.Table_stats.n_triggers
           s.Table_stats.n_queries)
       (Table_stats.snapshot stats))

let observe result =
  match result.Engine.digest with
  | None -> Alcotest.fail "digest missing"
  | Some d ->
      {
        r_gamma = d.Engine.d_gamma;
        r_classes = d.Engine.d_classes;
        r_outputs = d.Engine.d_outputs;
        r_tables = d.Engine.d_tables;
        r_lines = List.length result.Engine.outputs;
        r_stats = stats_line result.Engine.stats;
        r_delta = (result.Engine.delta_inserted, result.Engine.delta_deduped);
      }

(* The references below were recorded from the engine while it still
   fired per tuple (where they were equal across the whole former
   threads x batch_fire x put_batching grid). *)
let check_reference ~msg reference observations =
  List.iteri
    (fun i o ->
      let at what = Printf.sprintf "%s: %s at grid point %d" msg what i in
      Alcotest.(check string) (at "gamma digest") reference.r_gamma o.r_gamma;
      Alcotest.(check string)
        (at "class digest") reference.r_classes o.r_classes;
      Alcotest.(check string)
        (at "output digest") reference.r_outputs o.r_outputs;
      Alcotest.(check (list (pair string string)))
        (at "table digests") reference.r_tables o.r_tables;
      Alcotest.(check int) (at "output lines") reference.r_lines o.r_lines;
      Alcotest.(check string) (at "stats") reference.r_stats o.r_stats;
      Alcotest.(check (pair int int))
        (at "delta totals") reference.r_delta o.r_delta)
    observations

(* ------------------------------------------------------------------ *)
(* Closure: the whole grid against the recorded reference *)

let run_closure_point edges (threads, grain) =
  let c = closure_program edges in
  let config = grid_config ~threads ~grain in
  ( c,
    Engine.run_with_gamma ~init:c.c_init (Program.freeze c.c_program) config )

let closure_reference =
  {
    r_gamma = "e370b2cf6064a15c0dddd1ad0434a4a5";
    r_classes = "001ad70d08a895ace91eb609944d555a";
    r_outputs = "19ebb4ade5ee0f2a2d608ad9009c0e26";
    r_tables =
      [
        ("Edge", "2f6b470310fbcd2705534b99474658a5");
        ("Path", "34056bcc4f68d435088a8613bcee4c00");
      ];
    r_lines = 30;
    r_stats = "Edge 7 7 0 7 0 7 30; Path 42 30 0 30 12 30 0";
    r_delta = (37, 0);
  }

let test_closure_grid () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 4); (4, 2); (2, 5) ] in
  check_reference ~msg:"closure" closure_reference
    (List.map
       (fun point -> observe (fst (snd (run_closure_point edges point))))
       grid)

(* The closure computed without the engine: breadth-first search from
   every source, one (source, reached) pair per path of length >= 1. *)
let bfs_closure edges =
  let sources = List.sort_uniq compare (List.map fst edges) in
  List.concat_map
    (fun a ->
      let seen = Hashtbl.create 16 in
      let rec visit = function
        | [] -> ()
        | x :: rest ->
            let next =
              List.filter_map
                (fun (s, d) ->
                  if s = x && not (Hashtbl.mem seen d) then begin
                    Hashtbl.replace seen d ();
                    Some d
                  end
                  else None)
                edges
            in
            visit (rest @ next)
      in
      visit [ a ];
      Hashtbl.fold (fun b () acc -> (a, b) :: acc) seen [])
    sources
  |> List.sort compare

let prop_closure_grid =
  QCheck.Test.make ~name:"closure == plain BFS on random graphs" ~count:8
    QCheck.(
      list_of_size (Gen.int_range 1 25) (pair (int_range 0 7) (int_range 0 7)))
    (fun edges ->
      let want = bfs_closure edges in
      List.for_all
        (fun point ->
          let c, (_, gamma) = run_closure_point edges point in
          let got = ref [] in
          (gamma c.c_path).Store.iter (fun t ->
              got := (Tuple.int t "a", Tuple.int t "b") :: !got);
          List.sort compare !got = want)
        grid)

(* ------------------------------------------------------------------ *)
(* Closure plus a negative rule (Sink: reached nodes with no outgoing
   edge) and an aggregate rule (Deg: the out-degree of every path
   source) — the positive hash-join probe, the negative scan and the
   aggregate scan in one program.  Every
   grid point must hold exactly the sets computed without the engine,
   and report the digests, stats and Delta totals of threads = 1. *)

type closure_rules = {
  k_program : Program.t;
  k_edge : Schema.t;
  k_path : Schema.t;
  k_sink : Schema.t;
  k_deg : Schema.t;
}

let closure_rules_program () =
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
  { k_program = p; k_edge = edge; k_path = path; k_sink = sink; k_deg = deg }

(* Path, Sink and Deg computed without the engine. *)
let closure_rules_reference edges =
  let edges = List.sort_uniq compare edges in
  let paths = bfs_closure edges in
  let out_degree n = List.length (List.filter (fun (a, _) -> a = n) edges) in
  let sinks =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, b) -> if out_degree b = 0 then Some [ b ] else None)
         paths)
  in
  let degs =
    List.sort_uniq compare (List.map (fun (a, _) -> [ a; out_degree a ]) paths)
  in
  (List.map (fun (a, b) -> [ a; b ]) paths, sinks, degs)

let stored gamma schema =
  let rows = ref [] in
  (gamma schema).Store.iter (fun t ->
      rows :=
        Array.to_list (Array.map Value.to_int (Tuple.fields t)) :: !rows);
  List.sort compare !rows

(* Run one grid point, check it against the reference sets, and return
   its observation for the cross-grid comparison. *)
let run_closure_rules edges (threads, grain) =
  let k = closure_rules_program () in
  let init =
    List.map (fun (a, b) -> Tuple.make k.k_edge [| v_int a; v_int b |]) edges
  in
  let result, gamma =
    Engine.run_with_gamma ~init
      (Program.freeze k.k_program)
      (grid_config ~threads ~grain)
  in
  let paths, sinks, degs = closure_rules_reference edges in
  let ok =
    stored gamma k.k_path = paths
    && stored gamma k.k_sink = sinks
    && stored gamma k.k_deg = degs
  in
  (ok, observe result)

let check_closure_rules edges =
  match List.map (run_closure_rules edges) grid with
  | [] -> true
  | (_, reference) :: _ as points ->
      List.for_all (fun (ok, o) -> ok && o = reference) points

let test_closure_rules_grid () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 4); (4, 2); (2, 5) ] in
  let points = List.map (run_closure_rules edges) grid in
  let reference = snd (List.hd points) in
  List.iteri
    (fun i ((threads, _), (ok, o)) ->
      let at what =
        Printf.sprintf "%s at grid point %d (threads=%d)" what i threads
      in
      Alcotest.(check bool) (at "Path, Sink, Deg = reference sets") true ok;
      Alcotest.(check bool) (at "digests, stats, Delta totals = threads 1")
        true (o = reference))
    (List.combine grid points);
  Alcotest.(check bool) "outputs present" true (reference.r_lines > 0)

let prop_closure_rules_grid =
  QCheck.Test.make ~name:"closure+sink+degree == reference on random graphs"
    ~count:6
    QCheck.(
      list_of_size (Gen.int_range 1 25) (pair (int_range 0 7) (int_range 0 7)))
    check_closure_rules

(* ------------------------------------------------------------------ *)
(* PvWatts-small: the numeric pipeline (custom stores, -noDelta chain,
   aggregate queries) through the same grid.  Custom stores are not
   probe-stable, so this exercises the cursor's fallback path. *)

let pvwatts_data =
  lazy
    (Jstar_csv.Pvwatts_data.to_bytes ~installations:1
       ~ordering:Jstar_csv.Pvwatts_data.Month_major)

let pvwatts_reference =
  {
    r_gamma = "28133c0142d57caece386f3d1d350dd5";
    r_classes = "1a7d45af79f84ef3dec432d11280498b";
    r_outputs = "025f82a718da44efe7aff8b53a3c9ca6";
    r_tables =
      [
        ("PvWattsRequest", "e5df3d80de6d33b6ffd03e1e803003ab");
        ("PvWatts", "e73a74eed643cc2ffa601ea6f0ce3c18");
        ("SumMonth", "daf989918e247cc9d4081277ac36ce12");
      ];
    r_lines = 12;
    r_stats =
      "PvWattsRequest 1 1 0 1 0 1 0; Chunk 4 4 0 4 0 4 0; PvWatts 8760 0 0 \
       8760 0 8760 12; SumMonth 8760 12 8748 12 0 12 0";
    r_delta = (17, 8748);
  }

let test_pvwatts_grid () =
  let data = Lazy.force pvwatts_data in
  check_reference ~msg:"pvwatts" pvwatts_reference
    (List.map
       (fun (threads, grain) ->
         let cfg =
           {
             (Jstar_apps.Pvwatts.config ~threads ()) with
             Config.grain;
             digest = true;
           }
         in
         observe (Jstar_apps.Pvwatts.run ~chunks:4 ~data cfg))
       grid)

(* ------------------------------------------------------------------ *)
(* The PR-4 lineage gap: a rule that collects scan matches and puts
   after the scan completed.  PR 4 recorded only the trigger as the
   put's parent; the completed scan's bindings must now appear too,
   and identically on every grid point. *)

let deferred_program edges =
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
  Program.order p [ "Edge"; "Path" ];
  Program.rule p "seed" ~trigger:edge (fun ctx e ->
      ctx.Rule.put (Tuple.make path [| Tuple.get e 0; Tuple.get e 1 |]));
  Program.rule p "close_deferred" ~trigger:path
    ~reads:[ Spec.read ~prefix:[ Spec.Field "b" ] "Edge" ]
    (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      (* bind the scan's matches into a local, put after it returns *)
      let matches = ref [] in
      Query.iter ctx edge ~prefix:[| v_int y |] (fun e ->
          matches := e :: !matches);
      List.iter
        (fun e -> ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |]))
        !matches);
  let init =
    List.map (fun (a, b) -> Tuple.make edge [| v_int a; v_int b |]) edges
  in
  (p, edge, path, init)

let test_deferred_put_full_frame () =
  let edges = [ (0, 1); (1, 2); (1, 3) ] in
  let trees =
    List.map
      (fun (threads, grain) ->
        let p, edge, path, init = deferred_program edges in
        let config = grid_config ~threads ~grain in
        let frozen = Program.freeze p in
        let result, gamma = Engine.run_with_gamma ~init frozen config in
        let lineage = Option.get result.Engine.lineage in
        (match Jstar_prov.Explain.completeness_error ~lineage with
        | None -> ()
        | Some msg -> Alcotest.fail ("lineage incomplete: " ^ msg));
        (* Path(0,2) is derived by close_deferred from trigger
           Path(0,1) and scanned Edge(1,2): the Edge tuple must be a
           direct child of its derivation node. *)
        let target = Tuple.make path [| v_int 0; v_int 2 |] in
        (match Jstar_prov.Explain.derive ~lineage ~frozen target with
        | None -> Alcotest.fail "Path(0,2) untracked"
        | Some node ->
            let child_schemas =
              List.map
                (fun ch ->
                  (Tuple.schema ch.Jstar_prov.Explain.n_tuple).Schema.name)
                node.Jstar_prov.Explain.n_children
            in
            Alcotest.(check bool)
              "deferred put records the scanned Edge as a parent" true
              (List.mem edge.Schema.name child_schemas));
        (* whole-database canonical trees, for cross-grid comparison *)
        let tuples = ref [] in
        (gamma path).Store.iter (fun t -> tuples := t :: !tuples);
        List.map
          (fun t ->
            match Jstar_prov.Explain.derive ~lineage ~frozen t with
            | Some node -> Jstar_prov.Explain.to_string node
            | None -> Alcotest.fail ("stored but untracked: " ^ Tuple.show t))
          (List.sort Tuple.compare !tuples))
      grid
  in
  (* MD5 of the rendered trees, recorded with the references above *)
  List.iteri
    (fun i t ->
      Alcotest.(check string)
        (Printf.sprintf "deferred-put trees at grid point %d" i)
        "a2f6c69beded336a4ba294cb37e540d1"
        (Digest.to_hex (Digest.string (String.concat "" t))))
    trees

(* ------------------------------------------------------------------ *)
(* Sessions: feed/drain across the grid matches the reference. *)

let session_reference =
  {
    r_gamma = "1eee1368dc0504c0f08fa61a407d592b";
    r_classes = "22a063cd4db3bf4c11ea910d09f34184";
    r_outputs = "1ac04b072a4967c4ed885aa22fc60df3";
    r_tables =
      [
        ("Edge", "f694bf559115128905571e0f7874a6c2");
        ("Path", "285954134aeff237eb38880ac808b269");
      ];
    r_lines = 10;
    r_stats = "Edge 4 4 0 4 0 4 10; Path 10 10 0 10 0 10 0";
    r_delta = (14, 0);
  }

let test_session_grid () =
  let observations =
    List.map
      (fun (threads, grain) ->
        let c = closure_program [] in
        let config = grid_config ~threads ~grain in
        let frozen = Program.freeze c.c_program in
        let s = Engine.start frozen config in
        let feed_edges es =
          Engine.feed s
            (List.map
               (fun (a, b) -> Tuple.make c.c_edge [| v_int a; v_int b |])
               es)
        in
        feed_edges [ (2, 3); (3, 4) ];
        ignore (Engine.drain s);
        feed_edges [ (0, 1); (1, 2) ];
        ignore (Engine.drain s);
        observe (Engine.finish s))
      grid
  in
  check_reference ~msg:"session" session_reference observations

(* ------------------------------------------------------------------ *)
(* Probe contract: hash and ordered stores answer probe_prefix
   with exactly the tuples iter_prefix visits; only stores with no
   access path at all decline. *)

let test_probe_prefix_contract () =
  let schema =
    Schema.make ~id:0 ~name:"P"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~key_arity:2
      ~orderby:Schema.[ Lit "P" ]
  in
  let mk a b = Tuple.make schema [| v_int a; v_int b |] in
  let tuples = [ mk 0 1; mk 0 2; mk 1 1; mk 2 7; mk 0 3 ] in
  let fill store = List.iter (fun t -> ignore (store.Store.insert t)) tuples in
  let sorted l = List.sort Tuple.compare l in
  let check_store name store =
    fill store;
    List.iter
      (fun prefix ->
        let scanned = ref [] in
        store.Store.iter_prefix prefix (fun t -> scanned := t :: !scanned);
        match store.Store.probe_prefix prefix with
        | None ->
            Alcotest.failf "%s: probe declined a supported prefix" name
        | Some items ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: probe = scan for prefix len %d" name
                 (Array.length prefix))
              true
              (List.equal Tuple.equal (sorted items) (sorted !scanned)))
      [ [| v_int 0 |]; [| v_int 1 |]; [| v_int 9 |] ]
  in
  check_store "hash" (Store.of_spec (Store.Hash_index 1) schema);
  (* ordered stores now materialise the range scan in visit order —
     the vectorized negative/aggregate path; probe must equal scan,
     including visit order *)
  List.iter
    (fun (name, store) ->
      fill store;
      List.iter
        (fun prefix ->
          let scanned = ref [] in
          store.Store.iter_prefix prefix (fun t -> scanned := t :: !scanned);
          match store.Store.probe_prefix prefix with
          | None -> Alcotest.failf "%s: probe declined a range scan" name
          | Some items ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: probe = scan in visit order" name)
                true
                (List.equal Tuple.equal items (List.rev !scanned)))
        [ [| v_int 0 |]; [| v_int 1 |]; [| v_int 9 |]; [||] ])
    [
      ("tree", Store.of_spec Store.Tree schema);
      ("skiplist", Store.of_spec Store.Skiplist schema);
    ];
  (* under-specified hash prefixes materialise the full scan too *)
  let hash2 = Store.of_spec (Store.Hash_index 2) schema in
  fill hash2;
  (match hash2.Store.probe_prefix [| v_int 0 |] with
  | None -> Alcotest.fail "hash: under-specified prefix declined"
  | Some items ->
      let scanned = ref [] in
      hash2.Store.iter_prefix [| v_int 0 |] (fun t -> scanned := t :: !scanned);
      Alcotest.(check bool) "hash under-specified: probe = scan" true
        (List.equal Tuple.equal (sorted items) (sorted !scanned)));
  (* stores with no access path at all still decline *)
  let windowed =
    Store.windowed ~field:"a" ~width:2 (Store.of_spec Store.Tree) schema
  in
  Alcotest.(check bool) "windowed store declines probe" true
    (windowed.Store.probe_prefix [| v_int 0 |] = None)

let suite =
  [
    ( "batch",
      [
        Alcotest.test_case "closure grid == reference" `Quick
          test_closure_grid;
        QCheck_alcotest.to_alcotest prop_closure_grid;
        Alcotest.test_case "closure+sink+degree grid == reference" `Quick
          test_closure_rules_grid;
        QCheck_alcotest.to_alcotest prop_closure_rules_grid;
        Alcotest.test_case "pvwatts grid == reference" `Slow
          test_pvwatts_grid;
        Alcotest.test_case "deferred put records full bound frame" `Quick
          test_deferred_put_full_frame;
        Alcotest.test_case "session feed/drain grid" `Quick test_session_grid;
        Alcotest.test_case "probe_prefix contract" `Quick
          test_probe_prefix_contract;
      ] );
  ]
