(* Tests for the paper's optional/extension features:
   - event-driven sessions (§3: external input tuples over time);
   - task-per-rule firing ([grain = Fixed 1]) and intra-rule parallel
     loops (§5.2);
   - windowed stores (manual lifetime hints, Fig 3 step 4). *)

open Jstar_core

let v_int i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Sessions *)

let event_program () =
  let p = Program.create () in
  let reading =
    Program.table p "Reading"
      ~columns:Schema.[ int_col "time"; int_col "sensor"; int_col "value" ]
      ~orderby:Schema.[ Lit "Int"; Seq "time" ]
      ()
  in
  let alert =
    Program.table p "Alert"
      ~columns:Schema.[ int_col "time"; int_col "sensor" ]
      ~key:2
      ~orderby:Schema.[ Lit "Int"; Seq "time"; Lit "Alert" ]
      ()
  in
  Program.rule p "threshold" ~trigger:reading
    ~puts:[ Spec.put "Alert" ~ts:[ Spec.bind "time" (Spec.Field "time") ] ]
    (fun ctx r ->
      if Tuple.int r "value" > 100 then
        ctx.Rule.put (Tuple.make alert [| Tuple.get r 0; Tuple.get r 1 |]));
  Program.output p alert (fun a ->
      Printf.sprintf "ALERT t=%d sensor=%d" (Tuple.int a "time")
        (Tuple.int a "sensor"));
  (p, reading, alert)

let test_session_incremental () =
  let p, reading, _ = event_program () in
  let session = Engine.start (Program.freeze p) Config.default in
  Engine.feed session
    [
      Tuple.make reading [| v_int 1; v_int 7; v_int 50 |];
      Tuple.make reading [| v_int 2; v_int 7; v_int 150 |];
    ];
  Alcotest.(check (list string)) "first drain"
    [ "ALERT t=2 sensor=7" ] (Engine.drain session);
  (* a second batch arrives later *)
  Engine.feed session [ Tuple.make reading [| v_int 3; v_int 9; v_int 200 |] ];
  Alcotest.(check (list string)) "second drain sees only new outputs"
    [ "ALERT t=3 sensor=9" ] (Engine.drain session);
  let result = Engine.finish session in
  Alcotest.(check int) "total outputs" 2 (List.length result.Engine.outputs);
  Alcotest.(check int) "tuples processed" 5 result.Engine.tuples_processed

let test_session_gamma_between_drains () =
  let p, reading, _ = event_program () in
  let session = Engine.start (Program.freeze p) Config.default in
  Engine.feed session [ Tuple.make reading [| v_int 1; v_int 1; v_int 10 |] ];
  ignore (Engine.drain session);
  Alcotest.(check int) "reading stored" 1
    ((Engine.session_gamma session reading).Store.size ());
  ignore (Engine.finish session)

let test_session_finished_rejects () =
  let p, reading, _ = event_program () in
  let session = Engine.start (Program.freeze p) Config.default in
  ignore (Engine.finish session);
  (match Engine.feed session [ Tuple.make reading [| v_int 1; v_int 1; v_int 1 |] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "feed after finish must be rejected");
  (* finish is idempotent *)
  ignore (Engine.finish session)

let test_session_parallel_matches_sequential () =
  let run threads =
    let p, reading, _ = event_program () in
    let session =
      Engine.start (Program.freeze p) { Config.default with threads }
    in
    Engine.feed session
      (List.init 50 (fun i ->
           Tuple.make reading [| v_int i; v_int (i mod 5); v_int (i * 7) |]));
    let out = Engine.drain session in
    ignore (Engine.finish session);
    out
  in
  Alcotest.(check (list string)) "session deterministic" (run 1) (run 2)

(* ------------------------------------------------------------------ *)
(* Task-per-rule strategy (§5.2): one chunk per (tuple, rule) *)

let multi_rule_program () =
  let p = Program.create () in
  let src =
    Program.table p "Src" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Src" ] ()
  in
  let out_a =
    Program.table p "OutA" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Out" ] ()
  in
  let out_b =
    Program.table p "OutB" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Out" ] ()
  in
  Program.order p [ "Src"; "Out" ];
  Program.rule p "double" ~trigger:src (fun ctx s ->
      ctx.Rule.put (Tuple.make out_a [| v_int (2 * Tuple.int s "x") |]));
  Program.rule p "square" ~trigger:src (fun ctx s ->
      ctx.Rule.put (Tuple.make out_b [| v_int (Tuple.int s "x" * Tuple.int s "x") |]));
  Program.output p out_a (fun t -> Printf.sprintf "a%d" (Tuple.int t "x"));
  Program.output p out_b (fun t -> Printf.sprintf "b%d" (Tuple.int t "x"));
  (p, src)

(* threads x both ends of the grain range *)
let grain_grid =
  List.concat_map
    (fun threads ->
      List.map
        (fun grain -> { (Config.parallel ~threads ()) with Config.grain })
        [ Config.Auto_grain; Fixed 1 ])
    [ 1; 2; 4 ]

let test_task_per_rule_equivalent () =
  let p, src = multi_rule_program () in
  let init = List.init 20 (fun i -> Tuple.make src [| v_int i |]) in
  let frozen = Program.freeze p in
  let base = Engine.run ~init frozen Config.default in
  List.iter
    (fun config ->
      Alcotest.(check (list string)) "same outputs" base.Engine.outputs
        (Engine.run ~init frozen config).Engine.outputs)
    grain_grid;
  Alcotest.(check bool) "something was produced" true
    (List.length base.Engine.outputs > 0)

let test_task_per_rule_counts_triggers () =
  let p, src = multi_rule_program () in
  let init = List.init 10 (fun i -> Tuple.make src [| v_int i |]) in
  let frozen = Program.freeze p in
  List.iter
    (fun config ->
      let r = Engine.run ~init frozen config in
      match Table_stats.get r.Engine.stats "Src" with
      | Some c ->
          Alcotest.(check int) "two rule firings per Src tuple" 20
            (Table_stats.read c.Table_stats.triggers)
      | None -> Alcotest.fail "no stats")
    grain_grid

(* ------------------------------------------------------------------ *)
(* Intra-rule parallel loops (§5.2) *)

let test_par_iter_inside_rule () =
  let p = Program.create () in
  let req =
    Program.table p "Req" ~columns:Schema.[ int_col "n" ]
      ~orderby:Schema.[ Lit "Req" ] ()
  in
  let hits = Array.init 1000 (fun _ -> Atomic.make 0) in
  Program.rule p "wide_loop" ~trigger:req (fun ctx r ->
      let n = Tuple.int r "n" in
      ctx.Rule.par_iter 0 n (fun i -> Atomic.incr hits.(i)));
  let init = [ Tuple.make req [| v_int 1000 |] ] in
  let frozen = Program.freeze p in
  List.iter
    (fun threads ->
      Array.iter (fun a -> Atomic.set a 0) hits;
      ignore (Engine.run ~init frozen { Config.default with threads });
      Array.iteri
        (fun i a ->
          if Atomic.get a <> 1 then
            Alcotest.failf "threads=%d: index %d hit %d times" threads i
              (Atomic.get a))
        hits)
    [ 1; 2 ];
  (* Puts from leaves: leaves run on other domains, so each must land in
     an arena of its own — never in the firing chunk's single-owner
     one.  Four triggers put [per] distinct tuples each. *)
  let p = Program.create () in
  let src =
    Program.table p "Src" ~columns:Schema.[ int_col "k" ]
      ~orderby:Schema.[ Lit "Src" ] ()
  in
  let out =
    Program.table p "Out" ~columns:Schema.[ int_col "k"; int_col "i" ]
      ~orderby:Schema.[ Lit "Out" ] ()
  in
  Program.order p [ "Src"; "Out" ];
  let per = 20_000 in
  Program.rule p "fan_out" ~trigger:src (fun ctx s ->
      ctx.Rule.par_iter 0 per (fun i ->
          ctx.Rule.put (Tuple.make out [| Tuple.get s 0; v_int i |])));
  let init = List.init 4 (fun k -> Tuple.make src [| v_int k |]) in
  let _, gamma =
    Engine.run_with_gamma ~init (Program.freeze p)
      (Config.parallel ~threads:2 ())
  in
  Alcotest.(check int) "every leaf put stored" (4 * per)
    ((gamma out).Store.size ())

(* ------------------------------------------------------------------ *)
(* Windowed store *)

let windowed_fixture () =
  let p = Program.create () in
  Program.table p "W"
    ~columns:Schema.[ int_col "iter"; int_col "x" ]
    ~orderby:Schema.[ Lit "Int"; Seq "iter" ]
    ()

let mk_w schema iter x = Tuple.make schema [| v_int iter; v_int x |]

let test_windowed_basic () =
  let schema = windowed_fixture () in
  let store = Store.windowed ~field:"iter" ~width:2 Store.tree schema in
  Alcotest.(check bool) "insert iter 0" true (store.Store.insert (mk_w schema 0 1));
  Alcotest.(check bool) "insert iter 1" true (store.Store.insert (mk_w schema 1 2));
  Alcotest.(check int) "both live" 2 (store.Store.size ());
  (* moving to iter 2 evicts iter 0 (window = {1, 2}) *)
  Alcotest.(check bool) "insert iter 2" true (store.Store.insert (mk_w schema 2 3));
  Alcotest.(check int) "iter 0 evicted" 2 (store.Store.size ());
  Alcotest.(check bool) "old tuple gone" false (store.Store.mem (mk_w schema 0 1));
  Alcotest.(check bool) "current kept" true (store.Store.mem (mk_w schema 2 3))

let test_windowed_rejects_stale () =
  let schema = windowed_fixture () in
  let store = Store.windowed ~field:"iter" ~width:2 Store.tree schema in
  ignore (store.Store.insert (mk_w schema 5 0));
  Alcotest.(check bool) "stale insert refused" false
    (store.Store.insert (mk_w schema 1 0));
  Alcotest.(check bool) "in-window insert ok" true
    (store.Store.insert (mk_w schema 4 0))

let test_windowed_dedup_within_window () =
  let schema = windowed_fixture () in
  let store = Store.windowed ~field:"iter" ~width:3 Store.tree schema in
  Alcotest.(check bool) "first" true (store.Store.insert (mk_w schema 1 7));
  Alcotest.(check bool) "dup" false (store.Store.insert (mk_w schema 1 7))

let test_windowed_queries () =
  let schema = windowed_fixture () in
  let store = Store.windowed ~field:"iter" ~width:2 Store.tree schema in
  List.iter
    (fun (it, x) -> ignore (store.Store.insert (mk_w schema it x)))
    [ (0, 1); (1, 2); (1, 3); (2, 4) ];
  let seen = ref [] in
  store.Store.iter_prefix [| v_int 1 |] (fun t ->
      seen := Tuple.int t "x" :: !seen);
  Alcotest.(check (list int)) "window query" [ 2; 3 ] (List.sort compare !seen);
  let all = ref 0 in
  store.Store.iter (fun _ -> incr all);
  Alcotest.(check int) "live tuples" 3 !all

let test_windowed_invalid_width () =
  let schema = windowed_fixture () in
  match Store.windowed ~field:"iter" ~width:0 Store.tree schema with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width 0 accepted"

(* Engine integration: a sliding-window aggregation over a stream. *)
let test_windowed_in_engine () =
  let p = Program.create () in
  let reading =
    Program.table p "Reading"
      ~columns:Schema.[ int_col "time"; int_col "value" ]
      ~orderby:Schema.[ Lit "Int"; Seq "time" ]
      ()
  in
  let probe =
    Program.table p "Probe" ~columns:Schema.[ int_col "time" ] ~key:1
      ~orderby:Schema.[ Lit "Int"; Seq "time"; Lit "Probe" ]
      ()
  in
  Program.rule p "ask" ~trigger:reading
    ~puts:[ Spec.put "Probe" ~ts:[ Spec.bind "time" (Spec.Field "time") ] ]
    (fun ctx r -> ctx.Rule.put (Tuple.make probe [| Tuple.get r 0 |]));
  Program.rule p "window_sum" ~trigger:probe
    ~reads:[ Spec.read ~kind:Spec.Aggregate "Reading" ]
    (fun ctx pr ->
      (* sum over whatever the windowed Gamma still retains *)
      let sum =
        Query.fold ctx reading ~init:0
          ~f:(fun acc t -> acc + Tuple.int t "value")
          ()
      in
      ctx.Rule.println (Printf.sprintf "t=%d sum=%d" (Tuple.int pr "time") sum));
  let init =
    List.init 5 (fun i -> Tuple.make reading [| v_int i; v_int (10 * (i + 1)) |])
  in
  let config =
    {
      Config.default with
      Config.stores =
        [ ("Reading", Store.Custom (Store.windowed ~field:"time" ~width:2 Store.tree)) ];
    }
  in
  let r = Engine.run_program ~init p config in
  (* at each probe time t, only readings t-1 and t are retained *)
  Alcotest.(check (list string)) "sliding sums"
    [ "t=0 sum=10"; "t=1 sum=30"; "t=2 sum=50"; "t=3 sum=70"; "t=4 sum=90" ]
    r.Engine.outputs

(* ------------------------------------------------------------------ *)
(* Same-timestamp recursion: transitive closure as a fixpoint *)

let test_fixpoint_recursion () =
  let p = Program.create () in
  let edge =
    Program.table p "Edge"
      ~columns:Schema.[ int_col "src"; int_col "dst" ]
      ~orderby:Schema.[ Lit "Edge" ]
      ()
  in
  let reach =
    Program.table p "Reach" ~columns:Schema.[ int_col "node" ] ~key:1
      ~orderby:Schema.[ Lit "Reach" ]
      ()
  in
  Program.order p [ "Edge"; "Reach" ];
  Program.rule p "step" ~trigger:reach
    ~reads:[ Spec.read "Edge" ]
    ~puts:[ Spec.put "Reach" ]
    (fun ctx r ->
      Query.iter ctx edge
        ~prefix:[| Tuple.get r 0 |]
        (fun e -> ctx.Rule.put (Tuple.make reach [| Tuple.get e 1 |])));
  Program.output p reach (fun t -> string_of_int (Tuple.int t "node"));
  (* a cycle 0 -> 1 -> 2 -> 0 plus an unreachable 3 -> 4 *)
  let edges = [ (0, 1); (1, 2); (2, 0); (3, 4) ] in
  let init =
    List.map (fun (s, d) -> Tuple.make edge [| v_int s; v_int d |]) edges
    @ [ Tuple.make reach [| v_int 0 |] ]
  in
  let frozen = Program.freeze p in
  let seq = Engine.run ~init frozen Config.default in
  Alcotest.(check (list string)) "cycle closed, 3-4 excluded"
    [ "0"; "1"; "2" ]
    (List.sort compare seq.Engine.outputs);
  let par = Engine.run ~init frozen (Config.parallel ~threads:2 ()) in
  Alcotest.(check (list string)) "parallel fixpoint identical"
    seq.Engine.outputs par.Engine.outputs

(* ------------------------------------------------------------------ *)
(* Native float store *)

let test_native_float_store () =
  let p = Program.create () in
  let d =
    Program.table p "D"
      ~columns:Schema.[ int_col "iter"; int_col "i"; float_col "v" ]
      ~key:2 ~orderby:[] ()
  in
  let store, handle = Store.native_float_array ~dims:[| 2; 4 |] d in
  let mk iter i v = Tuple.make d [| v_int iter; v_int i; Value.Float v |] in
  Alcotest.(check bool) "insert" true (store.Store.insert (mk 0 1 3.5));
  Alcotest.(check bool) "dup key" false (store.Store.insert (mk 0 1 9.9));
  Alcotest.(check (float 1e-12)) "typed get" 3.5 (handle.Store.fa_get [| 0; 1 |]);
  handle.Store.fa_set_raw [| 1; 2 |] 7.25;
  Alcotest.(check (float 1e-12)) "raw set" 7.25 (handle.Store.fa_get [| 1; 2 |]);
  Alcotest.(check bool) "present" true (handle.Store.fa_present [| 1; 2 |]);
  Alcotest.(check bool) "absent" false (handle.Store.fa_present [| 1; 3 |]);
  Alcotest.(check int) "size" 2 (store.Store.size ());
  let seen = ref [] in
  store.Store.iter (fun t -> seen := Tuple.show t :: !seen);
  Alcotest.(check int) "iter count" 2 (List.length !seen)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "ext.session",
      [
        tc "incremental feed/drain" `Quick test_session_incremental;
        tc "gamma between drains" `Quick test_session_gamma_between_drains;
        tc "finished session rejects" `Quick test_session_finished_rejects;
        tc "parallel session deterministic" `Quick
          test_session_parallel_matches_sequential;
      ] );
    ( "ext.task_per_rule",
      [
        tc "equivalent outputs" `Quick test_task_per_rule_equivalent;
        tc "trigger accounting" `Quick test_task_per_rule_counts_triggers;
      ] );
    ("ext.par_iter", [ tc "intra-rule loop covers range" `Quick test_par_iter_inside_rule ]);
    ( "ext.semantics",
      [
        tc "transitive-closure fixpoint" `Quick test_fixpoint_recursion;
        tc "native float store" `Quick test_native_float_store;
      ] );
    ( "ext.windowed_store",
      [
        tc "eviction" `Quick test_windowed_basic;
        tc "stale insert refused" `Quick test_windowed_rejects_stale;
        tc "dedup within window" `Quick test_windowed_dedup_within_window;
        tc "queries" `Quick test_windowed_queries;
        tc "invalid width" `Quick test_windowed_invalid_width;
        tc "sliding-window aggregation" `Quick test_windowed_in_engine;
      ] );
  ]
