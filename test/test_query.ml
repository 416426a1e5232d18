(* Tests for the query path: every store family answers prefix queries
   alike, [Query.min_by] gives one answer whatever the store and the
   thread count, [Config.validate] rejects nonsense, and the put path
   stays allocation-free. *)

open Jstar_core

let v_int i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Cross-store equivalence: the ordered stores and hash stores keyed on
   either prefix length must answer prefix queries and [mem]
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
      let others =
        [
          Store.skiplist s;
          Store.hash_index ~prefix_len:1 s;
          Store.hash_index ~prefix_len:2 s;
        ]
      in
      (* First half element-wise, second half through [insert_batch] on
         a sorted run. *)
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

(* ------------------------------------------------------------------ *)
(* [min_by] under key ties: the answer is the tuple-order minimum among
   the key-minimal tuples, whichever store holds the table and however
   many threads filled it.  A hash bucket lists its tuples newest first,
   so "first key-minimal tuple visited" would differ per store. *)

let run_min_by_program ~threads ~store () =
  let p = Program.create () in
  let item =
    Program.table p "Item"
      ~columns:Schema.[ int_col "g"; int_col "id"; int_col "cost" ]
      ~orderby:Schema.[ Lit "Item" ]
      ()
  in
  let q =
    Program.table p "Q"
      ~columns:Schema.[ int_col "g" ]
      ~orderby:Schema.[ Lit "Q" ]
      ()
  in
  Program.order p [ "Item"; "Q" ];
  Program.rule p "cheapest" ~trigger:q (fun ctx t ->
      let g = Tuple.int t "g" in
      match
        Query.min_by ctx item ~prefix:[| v_int g |]
          ~key:(fun t -> Tuple.int t "cost")
          ()
      with
      | None -> Alcotest.failf "min_by found nothing in group %d" g
      | Some m ->
          ctx.Rule.println (Printf.sprintf "%d %d" g (Tuple.int m "id")));
  let init =
    List.concat_map
      (fun g ->
        Tuple.make q [| v_int g |]
        :: List.init 6 (fun id ->
               Tuple.make item [| v_int g; v_int id; v_int (id mod 2) |]))
      [ 0; 1; 2 ]
  in
  let base =
    if threads = 1 then Config.default else Config.parallel ~threads ()
  in
  let config = { base with Config.stores = [ ("Item", store) ] } in
  (Engine.run_program ~init p config).Engine.outputs

let test_min_by_ties () =
  List.iter
    (fun (threads, store, name) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s at %d thread(s)" name threads)
        [ "0 0"; "1 0"; "2 0" ]
        (run_min_by_program ~threads ~store ()))
    [
      (1, Store.Tree, "Tree");
      (2, Store.Skiplist, "Skiplist");
      (1, Store.Hash_index 1, "Hash_index 1");
      (2, Store.Hash_index 1, "Hash_index 1");
      (1, Store.Hash_index 3, "Hash_index 3");
    ]

(* ------------------------------------------------------------------ *)
(* Config validation *)

let test_config_validation () =
  let raises msg cfg =
    match Config.validate cfg with
    | () -> Alcotest.failf "expected Config.Invalid for %s" msg
    | exception Config.Invalid _ -> ()
  in
  raises "trace_sample 0" { Config.default with Config.trace_sample = 0 };
  raises "grain 0" { Config.default with Config.grain = Config.Fixed 0 };
  Config.validate { Config.default with Config.trace_sample = 4 }

(* ------------------------------------------------------------------ *)
(* The put path must not allocate.  Duplicate puts of a
   const-timestamp table walk the whole hot path (stats, timestamp
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
        ("duplicate put allocates nothing, " ^ name)
        baseline puts)
    [ ("Auto", Config.Auto); ("Concurrent_ds", Config.Concurrent_ds) ]

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "query.accel",
      [
        QCheck_alcotest.to_alcotest prop_indexed_store_equivalence;
        Alcotest.test_case "min_by ties by tuple order" `Quick test_min_by_ties;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "zero-alloc put path when off" `Quick
          test_put_path_zero_alloc_when_off;
      ] );
  ]
