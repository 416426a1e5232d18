(* Cross-cutting property-based tests (qcheck): order laws for values
   and timestamps, a model-based Delta tree test, store-equivalence
   (every Gamma store family answers queries identically), windowed
   store invariants, scan/reduce laws, and solver coherence. *)

open Jstar_core

let v_int i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Value: total order laws *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) small_signed_int;
        map (fun f -> Value.Float f) (float_bound_inclusive 100.0);
        map (fun s -> Value.Str s) (string_size (int_range 0 4));
        map (fun b -> Value.Bool b) bool;
      ])

let value_arb = QCheck.make ~print:Value.show value_gen

let prop_value_compare_total =
  QCheck.Test.make ~name:"Value.compare is a total order" ~count:500
    (QCheck.triple value_arb value_arb value_arb)
    (fun (a, b, c) ->
      let antisym = not (Value.compare a b < 0 && Value.compare b a < 0) in
      let trans =
        if Value.compare a b <= 0 && Value.compare b c <= 0 then
          Value.compare a c <= 0
        else true
      in
      let refl = Value.compare a a = 0 in
      antisym && trans && refl)

let prop_value_hash_consistent =
  QCheck.Test.make ~name:"Value.equal implies equal hashes" ~count:500
    (QCheck.pair value_arb value_arb)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

(* ------------------------------------------------------------------ *)
(* Timestamp: order laws over a mixed-table program *)

let ts_fixture =
  lazy
    (let p = Program.create () in
     let a =
       Program.table p "A"
         ~columns:Schema.[ int_col "step"; int_col "sub" ]
         ~orderby:Schema.[ Lit "Early"; Seq "step"; Seq "sub" ]
         ()
     in
     let b =
       Program.table p "B" ~columns:Schema.[ int_col "step" ]
         ~orderby:Schema.[ Lit "Late"; Seq "step" ]
         ()
     in
     let c =
       Program.table p "C"
         ~columns:Schema.[ int_col "step"; int_col "region" ]
         ~orderby:Schema.[ Lit "Early"; Seq "step"; Par "region" ]
         ()
     in
     Program.order p [ "Early"; "Late" ];
     let order = Program.order_rel p in
     ignore (Order_rel.rank order "Late");
     (order, a, b, c))

let mixed_ts_gen =
  QCheck.Gen.(
    let* which = int_range 0 2 in
    let* step = int_range 0 5 in
    let* sub = int_range 0 3 in
    return (which, step, sub))

let ts_of (which, step, sub) =
  let order, a, b, c = Lazy.force ts_fixture in
  let t =
    match which with
    | 0 -> Tuple.make a [| v_int step; v_int sub |]
    | 1 -> Tuple.make b [| v_int step |]
    | _ -> Tuple.make c [| v_int step; v_int sub |]
  in
  Timestamp.of_tuple order t

let prop_timestamp_total_preorder =
  QCheck.Test.make ~name:"Timestamp.compare is a total preorder" ~count:500
    (QCheck.make QCheck.Gen.(triple mixed_ts_gen mixed_ts_gen mixed_ts_gen))
    (fun (x, y, z) ->
      let a = ts_of x and b = ts_of y and c = ts_of z in
      let total = Timestamp.leq a b || Timestamp.leq b a in
      let trans =
        if Timestamp.leq a b && Timestamp.leq b c then Timestamp.leq a c
        else true
      in
      total && trans)

let prop_timestamp_par_is_congruent =
  QCheck.Test.make ~name:"par fields never affect ordering" ~count:200
    (QCheck.make QCheck.Gen.(triple (int_range 0 5) (int_range 0 3) (int_range 0 3)))
    (fun (step, r1, r2) ->
      let order, _, _, c = Lazy.force ts_fixture in
      let t r = Timestamp.of_tuple order (Tuple.make c [| v_int step; v_int r |]) in
      Timestamp.equal (t r1) (t r2))

(* ------------------------------------------------------------------ *)
(* Delta tree: model-based extraction *)

(* Insert a random multiset of (step, payload) tuples; extraction must
   return one class per distinct step, in ascending step order, whose
   members are exactly the distinct tuples of that step. *)
let delta_model_test mode name =
  QCheck.Test.make ~name ~count:200
    QCheck.(list (pair (int_range 0 9) (int_range 0 5)))
    (fun pairs ->
      let p = Program.create () in
      let t =
        Program.table p "T"
          ~columns:Schema.[ int_col "step"; int_col "payload" ]
          ~orderby:Schema.[ Lit "Int"; Seq "step" ]
          ()
      in
      let order = Program.order_rel p in
      let delta = Delta.create ~mode ~nlits:2 () in
      List.iter
        (fun (s, pl) ->
          let tuple = Tuple.make t [| v_int s; v_int pl |] in
          ignore (Delta.insert delta tuple (Timestamp.of_tuple order tuple)))
        pairs;
      let distinct = List.sort_uniq compare pairs in
      let expected_by_step =
        List.sort_uniq compare (List.map fst distinct)
        |> List.map (fun s ->
               (s, List.sort compare (List.filter_map
                     (fun (s', pl) -> if s' = s then Some pl else None)
                     distinct)))
      in
      let rec drain acc =
        match Delta.extract_min_class delta with
        | [] -> List.rev acc
        | klass ->
            let step = Tuple.int (List.hd klass) "step" in
            let payloads =
              List.sort compare (List.map (fun t -> Tuple.int t "payload") klass)
            in
            drain ((step, payloads) :: acc)
      in
      drain [] = expected_by_step)

let prop_delta_model_seq = delta_model_test Delta.Sequential "delta (seq) = model"
let prop_delta_model_conc = delta_model_test Delta.Concurrent "delta (conc) = model"

(* ------------------------------------------------------------------ *)
(* Store equivalence: all store families answer prefix queries alike *)

let prop_store_equivalence =
  QCheck.Test.make ~name:"tree = skiplist = hash stores" ~count:200
    QCheck.(
      pair
        (list (triple (int_range 0 3) (int_range 0 3) (int_range 0 9)))
        (pair (int_range 0 3) (int_range 0 3)))
    (fun (rows, (qa, qb)) ->
      let p = Program.create () in
      let schema =
        Program.table p "S"
          ~columns:Schema.[ int_col "a"; int_col "b"; int_col "c" ]
          ~orderby:[] ()
      in
      let mk (a, b, c) = Tuple.make schema [| v_int a; v_int b; v_int c |] in
      let stores =
        [
          Store.tree schema;
          Store.skiplist schema;
          Store.hash_index ~prefix_len:2 schema;
        ]
      in
      List.iter
        (fun row -> List.iter (fun s -> ignore (s.Store.insert (mk row))) stores)
        rows;
      let query s prefix =
        let acc = ref [] in
        s.Store.iter_prefix prefix (fun t -> acc := Tuple.show t :: !acc);
        List.sort compare !acc
      in
      let answers prefix = List.map (fun s -> query s prefix) stores in
      let all_equal = function
        | [] -> true
        | x :: rest -> List.for_all (( = ) x) rest
      in
      all_equal (answers [| v_int qa; v_int qb |])
      && all_equal (answers [| v_int qa |])
      && all_equal (answers [||])
      && all_equal (List.map (fun s -> [ string_of_int (s.Store.size ()) ]) stores))

(* ------------------------------------------------------------------ *)
(* Windowed store invariant *)

let prop_windowed_invariant =
  QCheck.Test.make ~name:"windowed store keeps only the window" ~count:200
    QCheck.(list (pair (int_range 0 20) (int_range 0 5)))
    (fun rows ->
      let p = Program.create () in
      let schema =
        Program.table p "W"
          ~columns:Schema.[ int_col "iter"; int_col "x" ]
          ~orderby:[] ()
      in
      let width = 3 in
      let store = Store.windowed ~field:"iter" ~width Store.tree schema in
      List.iter
        (fun (it, x) ->
          ignore (store.Store.insert (Tuple.make schema [| v_int it; v_int x |])))
        rows;
      let high = List.fold_left (fun acc (it, _) -> max acc it) min_int rows in
      let ok = ref true in
      store.Store.iter (fun t ->
          let it = Tuple.int t "iter" in
          if it <= high - width || it > high then ok := false);
      !ok)

(* ------------------------------------------------------------------ *)
(* Scan/reduce laws *)

let prop_scan_last_equals_reduce =
  QCheck.Test.make ~name:"last of scan = reduce" ~count:200
    QCheck.(array small_signed_int)
    (fun arr ->
      let n = Array.length arr in
      n = 0
      ||
      let scanned = Reducer.scan_array Reducer.int_sum arr in
      scanned.(n - 1) = Reducer.reduce_array Reducer.int_sum Fun.id arr)

let prop_parallel_scan_matches =
  QCheck.Test.make ~name:"parallel scan = sequential scan (min monoid)" ~count:20
    QCheck.(array_of_size (QCheck.Gen.int_range 4000 12_000) small_signed_int)
    (fun arr ->
      let pool = Jstar_sched.Pool.create ~num_workers:2 () in
      Fun.protect
        ~finally:(fun () -> Jstar_sched.Pool.shutdown pool)
        (fun () ->
          Reducer.parallel_scan_array pool Reducer.int_min arr
          = Reducer.scan_array Reducer.int_min arr))

(* ------------------------------------------------------------------ *)
(* Difference-logic solver coherence *)

let iexpr_gen =
  QCheck.Gen.(
    let* field = oneofl [ "x"; "y" ] in
    let* off = int_range (-5) 5 in
    oneofl
      [ Spec.Field field; Spec.Add (Spec.Field field, off); Spec.Const off ])

let prop_solver_coherent =
  QCheck.Test.make ~name:"proves_lt implies proves_le; le is transitive"
    ~count:300
    (QCheck.make QCheck.Gen.(triple iexpr_gen iexpr_gen iexpr_gen))
    (fun (a, b, c) ->
      let lt_le =
        if Jstar_causality.Dlsolver.proves_lt [] a b then
          Jstar_causality.Dlsolver.proves_le [] a b
        else true
      in
      let trans =
        if
          Jstar_causality.Dlsolver.proves_le [] a b
          && Jstar_causality.Dlsolver.proves_le [] b c
        then Jstar_causality.Dlsolver.proves_le [] a c
        else true
      in
      lt_le && trans)

(* Semantic soundness: when the expressions mention only field "x",
   provability must match evaluation at arbitrary x. *)
let prop_solver_sound =
  QCheck.Test.make ~name:"proofs hold under evaluation" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple
           (int_range (-5) 5)
           (int_range (-5) 5)
           (int_range (-100) 100)))
    (fun (off_a, off_b, x) ->
      let a = Spec.Add (Spec.Field "x", off_a)
      and b = Spec.Add (Spec.Field "x", off_b) in
      let eval off = x + off in
      (if Jstar_causality.Dlsolver.proves_le [] a b then
         eval off_a <= eval off_b
       else true)
      &&
      if Jstar_causality.Dlsolver.proves_lt [] a b then eval off_a < eval off_b
      else true)

(* ------------------------------------------------------------------ *)
(* Hot-path knobs (firing grain, store choice) are pure
   optimizations: every combination, at every thread count,
   must print exactly the same lines.  Outputs are sorted per step by
   the engine, so plain list equality is the right check.  The [hashed]
   axis moves the table the rules probe from its configured store to a
   hash store keyed on the probed prefix. *)

let knob_grid =
  List.concat_map
    (fun threads ->
      List.concat_map
        (fun grain ->
          List.map (fun hashed -> (threads, grain, hashed)) [ false; true ])
        [ Config.Auto_grain; Fixed 1 ])
    [ 1; 2; 4 ]

(* [hash] is the (table, store) override the [hashed] axis prepends,
   so it wins over any store the base configuration gives the table. *)
let with_knobs ~hash base (grain, hashed) =
  {
    base with
    Config.grain;
    stores =
      (if hashed then hash :: base.Config.stores else base.Config.stores);
  }

(* [run ~threads knobs] must return the output lines of one engine run;
   all twelve grid points have to agree. *)
let outputs_agree run =
  match
    List.map
      (fun (threads, grain, hashed) -> run ~threads (grain, hashed))
      knob_grid
  with
  | [] -> true
  | reference :: rest -> List.for_all (fun o -> o = reference) rest

let prop_knobs_closure_invariant =
  QCheck.Test.make
    ~name:"hot-path knobs preserve transitive-closure outputs" ~count:4
    QCheck.(
      list_of_size (Gen.int_range 1 12) (pair (int_range 0 5) (int_range 0 5)))
    (fun edges ->
      outputs_agree (fun ~threads knobs ->
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
          Program.rule p "close" ~trigger:path (fun ctx t ->
              let x = Tuple.get t 0 and y = Tuple.int t "b" in
              Query.fold ctx edge ~prefix:[| v_int y |] ~init:()
                ~f:(fun () e ->
                  ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |]))
                ());
          Program.output p path (fun t ->
              Printf.sprintf "path %d %d" (Tuple.int t "a") (Tuple.int t "b"));
          let init =
            List.map (fun (a, b) -> Tuple.make edge [| v_int a; v_int b |]) edges
          in
          let base =
            if threads = 1 then Config.default else Config.parallel ~threads ()
          in
          let r =
            Engine.run_program ~init p
              (with_knobs ~hash:("Edge", Store.Hash_index 1) base knobs)
          in
          r.Engine.outputs))

let prop_knobs_pvwatts_invariant =
  QCheck.Test.make ~name:"hot-path knobs preserve PvWatts-small outputs"
    ~count:2
    (QCheck.make QCheck.Gen.(int_range 1 2))
    (fun installations ->
      let data =
        Jstar_csv.Pvwatts_data.to_bytes ~installations
          ~ordering:Jstar_csv.Pvwatts_data.Month_major
      in
      outputs_agree (fun ~threads knobs ->
          let cfg =
            with_knobs
              ~hash:("PvWatts", Store.Hash_index 2)
              (Jstar_apps.Pvwatts.config ~threads ())
              knobs
          in
          let r = Jstar_apps.Pvwatts.run ~data cfg in
          r.Engine.outputs))

let suite =
  [
    ( "props",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_value_compare_total;
          prop_value_hash_consistent;
          prop_timestamp_total_preorder;
          prop_timestamp_par_is_congruent;
          prop_delta_model_seq;
          prop_delta_model_conc;
          prop_store_equivalence;
          prop_windowed_invariant;
          prop_scan_last_equals_reduce;
          prop_parallel_scan_matches;
          prop_solver_coherent;
          prop_solver_sound;
          prop_knobs_closure_invariant;
          prop_knobs_pvwatts_invariant;
        ] );
  ]
