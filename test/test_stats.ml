(* Tests for the stats library: dependency-graph construction and DOT
   export (Fig 7) and annotated graphs. *)

open Jstar_core
module Depgraph = Jstar_stats.Depgraph

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let pvwatts_like () =
  let p = Program.create () in
  let pv =
    Program.table p "PvWatts"
      ~columns:Schema.[ int_col "month"; int_col "power" ]
      ~orderby:Schema.[ Lit "PvWatts" ] ()
  in
  let sum =
    Program.table p "SumMonth" ~columns:Schema.[ int_col "month" ] ~key:1
      ~orderby:Schema.[ Lit "SumMonth" ] ()
  in
  Program.order p [ "PvWatts"; "SumMonth" ];
  Program.rule p "request" ~trigger:pv
    ~puts:[ Spec.put "SumMonth" ]
    (fun ctx t -> ctx.Rule.put (Tuple.make sum [| Tuple.get t 0 |]));
  Program.rule p "reduce" ~trigger:sum
    ~reads:[ Spec.read ~kind:Spec.Aggregate "PvWatts" ]
    ~puts:[]
    (fun _ _ -> ());
  (p, pv, sum)

let test_depgraph_structure () =
  let p, _, _ = pvwatts_like () in
  let g = Depgraph.of_program p in
  Alcotest.(check int) "2 tables + 2 rules" 4 (List.length g.Depgraph.nodes);
  (* request: trigger edge + put edge; reduce: trigger edge only (no puts
     means its reads produce no edges either, since edges hang off puts,
     but the trigger edge is always there) *)
  Alcotest.(check bool) "has trigger edge PvWatts -> request" true
    (List.exists
       (fun e ->
         e.Depgraph.from_node = Depgraph.Table "PvWatts"
         && e.Depgraph.to_node = Depgraph.Rule_node "request")
       g.Depgraph.edges);
  Alcotest.(check bool) "has put edge request -> SumMonth" true
    (List.exists
       (fun e ->
         e.Depgraph.from_node = Depgraph.Rule_node "request"
         && e.Depgraph.to_node = Depgraph.Table "SumMonth")
       g.Depgraph.edges)

let test_depgraph_dot () =
  let p, _, _ = pvwatts_like () in
  let dot = Depgraph.to_dot (Depgraph.of_program p) in
  List.iter
    (fun needle ->
      if not (contains ~needle dot) then
        Alcotest.failf "DOT output missing %S" needle)
    [ "digraph jstar"; "t_PvWatts"; "t_SumMonth"; "r_request"; "->" ]

let test_depgraph_dot_annotated () =
  let p, pv, _ = pvwatts_like () in
  let init = List.init 5 (fun i -> Tuple.make pv [| Value.Int (1 + (i mod 2)); Value.Int i |]) in
  let r = Engine.run_program ~init p Config.default in
  let dot = Depgraph.to_dot ~stats:r.Engine.stats (Depgraph.of_program p) in
  Alcotest.(check bool) "annotated with put counts" true
    (contains ~needle:"puts=5" dot)

let test_depgraph_write () =
  let p, _, _ = pvwatts_like () in
  let path = Filename.temp_file "jstar_graph" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Depgraph.write_dot (Depgraph.of_program p) path;
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check string) "header" "digraph jstar {" line)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "stats.depgraph",
      [
        tc "structure" `Quick test_depgraph_structure;
        tc "DOT export" `Quick test_depgraph_dot;
        tc "annotated DOT" `Quick test_depgraph_dot_annotated;
        tc "write to file" `Quick test_depgraph_write;
      ] );
  ]
