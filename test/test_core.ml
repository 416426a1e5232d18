(* Tests for the core runtime: values, order relation, schemas, tuples,
   timestamps, the Delta tree, Gamma stores, reducers, and the engine
   (Ship example, set semantics, determinism across thread counts,
   -noDelta / -noGamma, runtime causality checking). *)

open Jstar_core

let v_int i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_compare () =
  Alcotest.(check bool) "int order" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "float order" true
    (Value.compare (Value.Float 1.5) (Value.Float 1.25) > 0);
  Alcotest.(check bool) "string order" true
    (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.(check bool) "bool order" true
    (Value.compare (Value.Bool false) (Value.Bool true) < 0);
  Alcotest.(check bool) "equal" true (Value.equal (Value.Int 3) (Value.Int 3))

let test_value_conversions () =
  Alcotest.(check int) "to_int" 7 (Value.to_int (Value.Int 7));
  Alcotest.(check (float 0.0)) "int widens" 7.0 (Value.to_float (Value.Int 7));
  Alcotest.check_raises "wrong type" (Value.Type_error "expected int, got String")
    (fun () -> ignore (Value.to_int (Value.Str "x")))

let test_value_arrays () =
  let a = [| v_int 1; v_int 2 |] and b = [| v_int 1; v_int 3 |] in
  Alcotest.(check bool) "lex" true (Value.compare_arrays a b < 0);
  Alcotest.(check bool) "prefix smaller" true
    (Value.compare_arrays [| v_int 1 |] a < 0);
  Alcotest.(check bool) "equal" true (Value.equal_arrays a a)

(* [Value.int] shares one box per int in [0, 8192) and boxes afresh
   outside it; either way no operation of the runtime can tell its
   result from [Int n], and the codec decodes ints into shared boxes. *)
let test_value_int_shared () =
  let p = Program.create () in
  let schema =
    Program.table p "T" ~columns:Schema.[ int_col "x" ] ~orderby:Schema.[ Lit "T" ] ()
  in
  let encode v =
    let b = Buffer.create 16 in
    Jstar_persist.Codec.encode_tuple b (Tuple.make schema [| v |]);
    Buffer.to_bytes b
  in
  let check n ~shared =
    let name = string_of_int n in
    let v = Value.int (Sys.opaque_identity n) in
    let boxed = Value.Int n in
    Alcotest.(check bool) (name ^ " shared") shared
      (v == Value.int (Sys.opaque_identity n));
    Alcotest.(check bool) (name ^ " equal") true (Value.equal v boxed);
    Alcotest.(check int) (name ^ " compare") 0 (Value.compare v boxed);
    Alcotest.(check int) (name ^ " hash") (Value.hash boxed) (Value.hash v);
    Alcotest.(check bytes) (name ^ " codec") (encode boxed) (encode v);
    let decoded =
      Jstar_persist.Codec.decode_tuple ~tables:[| schema |] (encode boxed) (ref 0)
    in
    Alcotest.(check bool) (name ^ " decodes shared") shared
      (Tuple.get decoded 0 == Value.int n)
  in
  List.iter (check ~shared:true) [ 0; 8191 ];
  List.iter (check ~shared:false) [ -1; 8192; max_int; min_int ]

(* ------------------------------------------------------------------ *)
(* Order relation *)

let test_order_chain () =
  let o = Order_rel.create () in
  Order_rel.declare_chain o [ "Req"; "PvWatts"; "SumMonth" ];
  Alcotest.(check bool) "Req < PvWatts rank" true
    (Order_rel.rank o "Req" < Order_rel.rank o "PvWatts");
  Alcotest.(check bool) "PvWatts < SumMonth rank" true
    (Order_rel.rank o "PvWatts" < Order_rel.rank o "SumMonth");
  Alcotest.(check bool) "provable" true (Order_rel.provably_less o "Req" "SumMonth");
  Alcotest.(check bool) "not provable reverse" false
    (Order_rel.provably_less o "SumMonth" "Req")

let test_order_incomparable () =
  let o = Order_rel.create () in
  Order_rel.declare o "A";
  Order_rel.declare o "B";
  Alcotest.(check bool) "incomparable" false (Order_rel.comparable o "A" "B");
  (* still totally ranked, deterministically by registration order *)
  Alcotest.(check bool) "deterministic extension" true
    (Order_rel.rank o "A" < Order_rel.rank o "B")

let test_order_cycle () =
  let o = Order_rel.create () in
  Order_rel.declare_less o "A" "B";
  Order_rel.declare_less o "B" "A";
  (match Order_rel.rank o "A" with
  | exception Order_rel.Cycle stuck ->
      Alcotest.(check bool) "both stuck" true
        (List.mem "A" stuck && List.mem "B" stuck)
  | _ -> Alcotest.fail "expected Cycle")

let test_order_diamond () =
  let o = Order_rel.create () in
  Order_rel.declare_less o "A" "B";
  Order_rel.declare_less o "A" "C";
  Order_rel.declare_less o "B" "D";
  Order_rel.declare_less o "C" "D";
  Alcotest.(check bool) "A<D" true (Order_rel.provably_less o "A" "D");
  Alcotest.(check bool) "B vs C incomparable" false (Order_rel.comparable o "B" "C");
  Alcotest.(check bool) "ranks respect order" true
    (Order_rel.rank o "A" < Order_rel.rank o "B"
    && Order_rel.rank o "B" < Order_rel.rank o "D"
    && Order_rel.rank o "C" < Order_rel.rank o "D")

(* ------------------------------------------------------------------ *)
(* Schema & tuple *)

let ship_program () =
  let p = Program.create () in
  let ship =
    Program.table p "Ship"
      ~columns:
        Schema.
          [ int_col "frame"; int_col "x"; int_col "y"; int_col "dx"; int_col "dy" ]
      ~key:1
      ~orderby:Schema.[ Lit "Int"; Seq "frame" ]
      ()
  in
  (p, ship)

let test_schema_validation () =
  let p = Program.create () in
  Alcotest.check_raises "duplicate column"
    (Schema.Schema_error "T: duplicate column a") (fun () ->
      ignore
        (Program.table p "T" ~columns:Schema.[ int_col "a"; int_col "a" ]
           ~orderby:[] ()));
  Alcotest.check_raises "unknown orderby field"
    (Schema.Schema_error "U: orderby refers to unknown field nope") (fun () ->
      ignore
        (Program.table p "U" ~columns:Schema.[ int_col "a" ]
           ~orderby:Schema.[ Seq "nope" ] ()))

let test_tuple_construction () =
  let _, ship = ship_program () in
  let by_pos =
    Tuple.make ship [| v_int 0; v_int 10; v_int 10; v_int 150; v_int 0 |]
  in
  let by_name =
    Tuple.build ship
      [ ("frame", v_int 0); ("x", v_int 10); ("dx", v_int 150); ("y", v_int 10) ]
  in
  (* dy omitted -> defaults to 0, matching the paper's example *)
  Alcotest.(check bool) "equal construction" true (Tuple.equal by_pos by_name);
  Alcotest.(check int) "field access" 150 (Tuple.int by_pos "dx");
  let moved = Tuple.with_fields by_pos [ ("x", v_int 160) ] in
  Alcotest.(check int) "builder copy" 160 (Tuple.int moved "x");
  Alcotest.(check int) "original untouched" 10 (Tuple.int by_pos "x")

let test_tuple_arity_and_types () =
  let _, ship = ship_program () in
  Alcotest.check_raises "arity"
    (Tuple.Tuple_error "Ship: expected 5 fields, got 2") (fun () ->
      ignore (Tuple.make ship [| v_int 0; v_int 1 |]));
  Alcotest.check_raises "type"
    (Tuple.Tuple_error "Ship.x: expected int, got String") (fun () ->
      ignore
        (Tuple.make ship
           [| v_int 0; Value.Str "oops"; v_int 0; v_int 0; v_int 0 |]))

let test_tuple_key () =
  let _, ship = ship_program () in
  let t = Tuple.make ship [| v_int 3; v_int 1; v_int 2; v_int 0; v_int 0 |] in
  Alcotest.(check bool) "key = frame" true
    (Value.equal_arrays (Tuple.key t) [| v_int 3 |])

let test_tuple_prefix () =
  let _, ship = ship_program () in
  let t = Tuple.make ship [| v_int 3; v_int 1; v_int 2; v_int 0; v_int 0 |] in
  Alcotest.(check bool) "empty prefix" true (Tuple.matches_prefix t [||]);
  Alcotest.(check bool) "good prefix" true
    (Tuple.matches_prefix t [| v_int 3; v_int 1 |]);
  Alcotest.(check bool) "bad prefix" false (Tuple.matches_prefix t [| v_int 4 |])

(* ------------------------------------------------------------------ *)
(* Timestamps *)

let test_timestamp_ordering () =
  let p, ship = ship_program () in
  let order = Program.order_rel p in
  let at frame =
    Timestamp.of_tuple order
      (Tuple.make ship [| v_int frame; v_int 0; v_int 0; v_int 0; v_int 0 |])
  in
  Alcotest.(check bool) "frame order" true (Timestamp.lt (at 1) (at 2));
  Alcotest.(check bool) "equal frames" true (Timestamp.equal (at 5) (at 5))

let test_timestamp_par_equivalence () =
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "step"; int_col "region" ]
      ~orderby:Schema.[ Lit "T"; Seq "step"; Par "region" ]
      ()
  in
  let order = Program.order_rel p in
  let ts step region =
    Timestamp.of_tuple order (Tuple.make t [| v_int step; v_int region |])
  in
  Alcotest.(check bool) "same step, diff region: equal class" true
    (Timestamp.equal (ts 1 0) (ts 1 9));
  Alcotest.(check bool) "step dominates" true (Timestamp.lt (ts 1 9) (ts 2 0))

let test_timestamp_literal_ranks () =
  let p = Program.create () in
  let a =
    Program.table p "A" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Req" ] ()
  in
  let b =
    Program.table p "B" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "SumMonth" ] ()
  in
  Program.order p [ "Req"; "PvWatts"; "SumMonth" ];
  let order = Program.order_rel p in
  let ts schema = Timestamp.of_tuple order (Tuple.make schema [| v_int 0 |]) in
  Alcotest.(check bool) "Req before SumMonth" true (Timestamp.lt (ts a) (ts b))

let test_timestamp_prefix_shorter_first () =
  let p = Program.create () in
  let short =
    Program.table p "Short" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Int" ] ()
  in
  let long =
    Program.table p "Long" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Int"; Seq "x" ] ()
  in
  let order = Program.order_rel p in
  let ts schema = Timestamp.of_tuple order (Tuple.make schema [| v_int 5 |]) in
  Alcotest.(check bool) "exhausted orderby comes first" true
    (Timestamp.lt (ts short) (ts long))

(* ------------------------------------------------------------------ *)
(* Delta tree *)

let delta_fixture mode =
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "step"; int_col "payload" ]
      ~orderby:Schema.[ Lit "Int"; Seq "step" ]
      ()
  in
  let order = Program.order_rel p in
  let delta = Delta.create ~mode ~nlits:4 () in
  let mk step payload = Tuple.make t [| v_int step; v_int payload |] in
  let insert step payload =
    let tuple = mk step payload in
    Delta.insert delta tuple (Timestamp.of_tuple order tuple)
  in
  (delta, insert)

let run_delta_basics mode () =
  let delta, insert = delta_fixture mode in
  Alcotest.(check bool) "empty" true (Delta.is_empty delta);
  Alcotest.(check bool) "insert" true (insert 2 0);
  Alcotest.(check bool) "insert earlier" true (insert 1 0);
  Alcotest.(check bool) "dup rejected" false (insert 1 0);
  Alcotest.(check int) "size" 2 (Delta.size delta);
  Alcotest.(check int) "dedup count" 1 (Delta.deduped_total delta);
  let klass = Delta.extract_min_class delta in
  Alcotest.(check int) "min class size" 1 (List.length klass);
  Alcotest.(check int) "min first" 1 (Tuple.int (List.hd klass) "step");
  let klass2 = Delta.extract_min_class delta in
  Alcotest.(check int) "next class" 2 (Tuple.int (List.hd klass2) "step");
  Alcotest.(check (list string)) "drained" []
    (List.map Tuple.show (Delta.extract_min_class delta))

let run_delta_class_grouping mode () =
  let delta, insert = delta_fixture mode in
  ignore (insert 5 1);
  ignore (insert 5 2);
  ignore (insert 5 3);
  ignore (insert 7 1);
  let klass = Delta.extract_min_class delta in
  Alcotest.(check int) "all step-5 together" 3 (List.length klass);
  List.iter
    (fun t -> Alcotest.(check int) "step" 5 (Tuple.int t "step"))
    klass

let test_delta_par_level () =
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "region"; int_col "step" ]
      ~orderby:Schema.[ Lit "Int"; Par "region"; Seq "step" ]
      ()
  in
  let order = Program.order_rel p in
  let delta = Delta.create ~mode:Delta.Sequential ~nlits:2 () in
  let insert region step =
    let tuple = Tuple.make t [| v_int region; v_int step |] in
    ignore (Delta.insert delta tuple (Timestamp.of_tuple order tuple))
  in
  (* two regions, two steps each: minimal class = min step of EVERY region *)
  insert 0 1;
  insert 0 2;
  insert 1 1;
  insert 1 2;
  let klass = Delta.extract_min_class delta in
  Alcotest.(check int) "one min per region" 2 (List.length klass);
  List.iter (fun t -> Alcotest.(check int) "step 1" 1 (Tuple.int t "step")) klass;
  let klass2 = Delta.extract_min_class delta in
  Alcotest.(check int) "second wave" 2 (List.length klass2);
  List.iter (fun t -> Alcotest.(check int) "step 2" 2 (Tuple.int t "step")) klass2

let test_delta_literal_levels () =
  let p = Program.create () in
  let a =
    Program.table p "A" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Late" ] ()
  in
  let b =
    Program.table p "B" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Early" ] ()
  in
  Program.order p [ "Early"; "Late" ];
  let order = Program.order_rel p in
  (* freeze the ranks *)
  ignore (Order_rel.rank order "Late");
  let delta = Delta.create ~mode:Delta.Concurrent ~nlits:(Order_rel.count order) () in
  let put schema x =
    let t = Tuple.make schema [| v_int x |] in
    ignore (Delta.insert delta t (Timestamp.of_tuple order t))
  in
  put a 1;
  put b 2;
  let first = Delta.extract_min_class delta in
  Alcotest.(check (list string)) "Early drains first" [ "B(2)" ]
    (List.map Tuple.show first);
  let second = Delta.extract_min_class delta in
  Alcotest.(check (list string)) "Late second" [ "A(1)" ]
    (List.map Tuple.show second)

let test_delta_concurrent_inserts () =
  let delta, _ = delta_fixture Delta.Concurrent in
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "step"; int_col "payload" ]
      ~orderby:Schema.[ Lit "Int"; Seq "step" ]
      ()
  in
  let order = Program.order_rel p in
  let domains = 4 and per_domain = 2_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let tuple = Tuple.make t [| v_int (i mod 50); v_int ((d * per_domain) + i) |] in
              ignore (Delta.insert delta tuple (Timestamp.of_tuple order tuple))
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "all inserted" (domains * per_domain) (Delta.size delta);
  (* drain and verify step-monotone classes partition the set *)
  let total = ref 0 and last_step = ref (-1) in
  let rec drain () =
    match Delta.extract_min_class delta with
    | [] -> ()
    | klass ->
        let step = Tuple.int (List.hd klass) "step" in
        Alcotest.(check bool) "monotone steps" true (step > !last_step);
        last_step := step;
        List.iter
          (fun t -> Alcotest.(check int) "class homogeneous" step (Tuple.int t "step"))
          klass;
        total := !total + List.length klass;
        drain ()
  in
  drain ();
  Alcotest.(check int) "drained all" (domains * per_domain) !total

(* Batched insertion must agree with element-wise insertion on set
   semantics: of equal tuples in one batch the first wins, tuples
   already pending are duplicates, and an empty batch is a no-op. *)
let run_delta_insert_batch mode () =
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "region"; int_col "v" ]
      ~orderby:Schema.[ Lit "T"; Par "region" ]
      ()
  in
  let order = Program.order_rel p in
  let delta = Delta.create ~mode ~nlits:1 () in
  let mk r v = Tuple.make t [| v_int r; v_int v |] in
  let ts tup = Timestamp.of_tuple order tup in
  let pre = mk 0 7 in
  Alcotest.(check bool) "pre insert" true (Delta.insert delta pre (ts pre));
  let items = [| mk 0 1; mk 1 2; mk 0 1; mk 0 7; mk 1 3 |] in
  let tss = Array.map ts items in
  let res = Delta.insert_batch delta items tss (Array.length items) in
  Alcotest.(check (array bool)) "first occurrence wins"
    [| true; true; false; false; true |]
    res;
  Alcotest.(check int) "size" 4 (Delta.size delta);
  Alcotest.(check int) "dedup total" 2 (Delta.deduped_total delta);
  Alcotest.(check int) "inserted total" 4 (Delta.inserted_total delta);
  let res0 = Delta.insert_batch delta [||] [||] 0 in
  Alcotest.(check int) "empty batch result" 0 (Array.length res0);
  Alcotest.(check int) "empty batch is no-op" 4 (Delta.size delta);
  (* the two par subtrees are one equivalence class *)
  let klass = Delta.extract_min_class delta in
  Alcotest.(check int) "whole class extracted" 4 (List.length klass);
  Alcotest.(check bool) "drained" true (Delta.is_empty delta)

(* ------------------------------------------------------------------ *)
(* Stores *)

let pv_schema () =
  let p = Program.create () in
  ( p,
    Program.table p "PvWatts"
      ~columns:
        Schema.
          [
            int_col "year";
            int_col "month";
            int_col "day";
            int_col "hour";
            int_col "power";
          ]
      ~orderby:Schema.[ Lit "PvWatts" ]
      () )

let store_contract store schema =
  let mk y m d h pw =
    Tuple.make schema [| v_int y; v_int m; v_int d; v_int h; v_int pw |]
  in
  Alcotest.(check bool) "insert" true (store.Store.insert (mk 2012 1 1 0 5));
  Alcotest.(check bool) "dup" false (store.Store.insert (mk 2012 1 1 0 5));
  Alcotest.(check bool) "insert2" true (store.Store.insert (mk 2012 1 2 0 7));
  Alcotest.(check bool) "insert3" true (store.Store.insert (mk 2012 2 1 0 9));
  Alcotest.(check bool) "mem" true (store.Store.mem (mk 2012 1 1 0 5));
  Alcotest.(check bool) "not mem" false (store.Store.mem (mk 2012 3 1 0 5));
  Alcotest.(check int) "size" 3 (store.Store.size ());
  let count prefix =
    let n = ref 0 in
    store.Store.iter_prefix prefix (fun _ -> incr n);
    !n
  in
  Alcotest.(check int) "prefix jan" 2 (count [| v_int 2012; v_int 1 |]);
  Alcotest.(check int) "prefix feb" 1 (count [| v_int 2012; v_int 2 |]);
  Alcotest.(check int) "prefix year" 3 (count [| v_int 2012 |]);
  Alcotest.(check int) "prefix nothing" 0 (count [| v_int 2013 |]);
  let all = ref 0 in
  store.Store.iter (fun _ -> incr all);
  Alcotest.(check int) "iter all" 3 !all

let test_store_tree () =
  let _, s = pv_schema () in
  store_contract (Store.tree s) s

let test_store_skiplist () =
  let _, s = pv_schema () in
  store_contract (Store.skiplist s) s

let test_store_hash_index () =
  let _, s = pv_schema () in
  store_contract (Store.hash_index ~prefix_len:2 s) s

let test_store_tree_ordered_iteration () =
  let _, s = pv_schema () in
  let store = Store.tree s in
  let mk d = Tuple.make s [| v_int 2012; v_int 1; v_int d; v_int 0; v_int 0 |] in
  List.iter (fun d -> ignore (store.Store.insert (mk d))) [ 3; 1; 2 ];
  let days = ref [] in
  store.Store.iter_prefix [| v_int 2012; v_int 1 |] (fun t ->
      days := Tuple.int t "day" :: !days);
  Alcotest.(check (list int)) "ordered" [ 1; 2; 3 ] (List.rev !days)

(* Store.insert_batch must match element-wise insert on set semantics
   and respect the [lo, hi) window, for every family and both
   comparator/table variants. *)
let test_store_insert_batch () =
  let p = Program.create () in
  let s =
    Program.table p "S"
      ~columns:Schema.[ int_col "k"; int_col "v" ]
      ~orderby:Schema.[ Lit "S" ]
      ()
  in
  let mk k v = Tuple.make s [| v_int k; v_int v |] in
  let check_store name store =
    Alcotest.(check bool) (name ^ ": pre insert") true
      (store.Store.insert (mk 0 0));
    (* arr.(0) sits below [lo] and must be ignored; inside the window:
       a fresh tuple, an in-batch duplicate, a duplicate of the
       pre-inserted tuple, another fresh tuple *)
    let arr = [| mk 9 9; mk 1 1; mk 1 1; mk 0 0; mk 2 2 |] in
    let res = store.Store.insert_batch arr 1 5 in
    Alcotest.(check (array bool)) (name ^ ": dedup flags")
      [| true; false; false; true |]
      res;
    Alcotest.(check int) (name ^ ": size") 3 (store.Store.size ());
    Alcotest.(check bool) (name ^ ": inserted visible") true
      (store.Store.mem (mk 2 2));
    Alcotest.(check bool) (name ^ ": below-lo skipped") false
      (store.Store.mem (mk 9 9));
    let empty = store.Store.insert_batch arr 2 2 in
    Alcotest.(check int) (name ^ ": empty window") 0 (Array.length empty)
  in
  check_store "tree" (Store.tree s);
  check_store "skiplist" (Store.skiplist s);
  check_store "hash" (Store.hash_index ~prefix_len:1 s)

let test_store_native_int () =
  let p = Program.create () in
  let m =
    Program.table p "Matrix"
      ~columns:Schema.[ int_col "row"; int_col "col"; int_col "value" ]
      ~key:2 ~orderby:[] ()
  in
  let store, handle = Store.native_int_array ~dims:[| 3; 4 |] m in
  let mk r c v = Tuple.make m [| v_int r; v_int c; v_int v |] in
  Alcotest.(check bool) "insert" true (store.Store.insert (mk 1 2 42));
  Alcotest.(check bool) "dup key" false (store.Store.insert (mk 1 2 99));
  Alcotest.(check int) "typed get" 42 (handle.Store.ia_get [| 1; 2 |]);
  Alcotest.(check bool) "present" true (handle.Store.ia_present [| 1; 2 |]);
  Alcotest.(check bool) "absent" false (handle.Store.ia_present [| 0; 0 |]);
  handle.Store.ia_set_raw [| 2; 3 |] 7;
  Alcotest.(check int) "raw set" 7 (handle.Store.ia_get [| 2; 3 |]);
  Alcotest.(check int) "size" 2 (store.Store.size ());
  let seen = ref [] in
  store.Store.iter (fun t -> seen := Tuple.show t :: !seen);
  Alcotest.(check (list string)) "iter reconstructs tuples"
    [ "Matrix(1, 2, 42)"; "Matrix(2, 3, 7)" ]
    (List.sort compare !seen);
  Alcotest.check_raises "out of range"
    (Invalid_argument "native store: key 5 out of range [0,3)") (fun () ->
      ignore (handle.Store.ia_get [| 5; 0 |]))

(* ------------------------------------------------------------------ *)
(* Reducers *)

let test_statistics () =
  let open Reducer.Statistics in
  let s = List.fold_left add empty [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 s.count;
  Alcotest.(check (float 1e-9)) "sum" 10.0 s.sum;
  Alcotest.(check (float 1e-9)) "mean" 2.5 (mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.max;
  Alcotest.(check (float 1e-9)) "variance" 1.25 (variance s)

let test_statistics_combine () =
  let open Reducer.Statistics in
  let xs = List.init 100 (fun i -> float_of_int i *. 0.7) in
  let whole = List.fold_left add empty xs in
  let left = List.fold_left add empty (List.filteri (fun i _ -> i < 37) xs) in
  let right = List.fold_left add empty (List.filteri (fun i _ -> i >= 37) xs) in
  let combined = combine left right in
  Alcotest.(check int) "count" whole.count combined.count;
  Alcotest.(check (float 1e-9)) "mean" (mean whole) (mean combined);
  Alcotest.(check (float 1e-6)) "variance" (variance whole) (variance combined)

let prop_statistics_combine_associative =
  QCheck.Test.make ~name:"Statistics.combine order-insensitive" ~count:100
    QCheck.(pair (list (float_bound_exclusive 100.0)) (list (float_bound_exclusive 100.0)))
    (fun (xs, ys) ->
      let open Reducer.Statistics in
      let sx = List.fold_left add empty xs in
      let sy = List.fold_left add empty ys in
      let ab = combine sx sy and ba = combine sy sx in
      ab.count = ba.count
      && Float.abs (ab.sum -. ba.sum) < 1e-6
      && (ab.count = 0 || Float.abs (mean ab -. mean ba) < 1e-6))

let test_scan_sequential () =
  let got = Reducer.scan_array Reducer.int_sum [| 1; 2; 3; 4 |] in
  Alcotest.(check (array int)) "inclusive prefix sums" [| 1; 3; 6; 10 |] got

let test_scan_parallel () =
  let pool = Jstar_sched.Pool.create ~num_workers:2 () in
  Fun.protect
    ~finally:(fun () -> Jstar_sched.Pool.shutdown pool)
    (fun () ->
      let n = 100_000 in
      let arr = Array.init n (fun i -> (i mod 7) - 3) in
      let seq = Reducer.scan_array Reducer.int_sum arr in
      let par = Reducer.parallel_scan_array pool Reducer.int_sum arr in
      Alcotest.(check bool) "parallel scan = sequential scan" true (seq = par))

let test_parallel_reduce_array () =
  let pool = Jstar_sched.Pool.create ~num_workers:2 () in
  Fun.protect
    ~finally:(fun () -> Jstar_sched.Pool.shutdown pool)
    (fun () ->
      let arr = Array.init 10_000 float_of_int in
      let s =
        Reducer.parallel_reduce_array pool Reducer.Statistics.monoid
          (fun x -> Reducer.Statistics.add Reducer.Statistics.empty x)
          arr
      in
      Alcotest.(check int) "count" 10_000 s.Reducer.Statistics.count;
      Alcotest.(check (float 1e-6)) "mean" 4999.5 (Reducer.Statistics.mean s))

(* ------------------------------------------------------------------ *)
(* Engine: the Ship example of §3 *)

let ship_moving_program () =
  let p, ship = ship_program () in
  Program.rule p "move_right" ~trigger:ship
    ~puts:
      [
        Spec.put "Ship"
          ~ts:[ Spec.bind "frame" (Spec.Add (Spec.Field "frame", 1)) ]
          ~when_:"x < 400";
      ]
    (fun ctx s ->
      if Tuple.int s "x" < 400 then
        ctx.Rule.put
          (Tuple.make ship
             [|
               v_int (Tuple.int s "frame" + 1);
               v_int (Tuple.int s "x" + 150);
               v_int (Tuple.int s "y");
               v_int (Tuple.int s "dx");
               v_int (Tuple.int s "dy");
             |]));
  Program.output p ship (fun t ->
      Printf.sprintf "frame=%d x=%d" (Tuple.int t "frame") (Tuple.int t "x"));
  let init = [ Tuple.make ship [| v_int 0; v_int 10; v_int 10; v_int 150; v_int 0 |] ] in
  (p, init)

let expected_ship_outputs =
  [ "frame=0 x=10"; "frame=1 x=160"; "frame=2 x=310"; "frame=3 x=460" ]

let test_engine_ship_sequential () =
  let p, init = ship_moving_program () in
  let r = Engine.run_program ~init p Config.default in
  Alcotest.(check (list string)) "trajectory" expected_ship_outputs r.Engine.outputs;
  Alcotest.(check int) "steps = frames" 4 r.Engine.steps;
  Alcotest.(check int) "tuples" 4 r.Engine.tuples_processed

let test_engine_ship_parallel_matches () =
  let p, init = ship_moving_program () in
  let frozen = Program.freeze p in
  let seq = Engine.run ~init frozen Config.default in
  let par = Engine.run ~init frozen (Config.parallel ~threads:2 ()) in
  Alcotest.(check (list string)) "deterministic across threads"
    seq.Engine.outputs par.Engine.outputs

let test_engine_unconditional_rule_diverges () =
  (* The paper's first Ship rule loops forever; max_steps catches it. *)
  let p, ship = ship_program () in
  Program.rule p "move_forever" ~trigger:ship (fun ctx s ->
      ctx.Rule.put (Tuple.with_fields s [ ("frame", v_int (Tuple.int s "frame" + 1)) ]));
  let init = [ Tuple.make ship [| v_int 0; v_int 0; v_int 0; v_int 0; v_int 0 |] ] in
  Alcotest.check_raises "step limit" (Engine.Step_limit_exceeded 50) (fun () ->
      ignore
        (Engine.run_program ~init p { Config.default with max_steps = Some 50 }))

let test_engine_set_semantics () =
  (* Two rules put the same tuple; it must be processed once. *)
  let p = Program.create () in
  let src =
    Program.table p "Src" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Src" ] ()
  in
  let dst =
    Program.table p "Dst" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Dst" ] ()
  in
  Program.order p [ "Src"; "Dst" ];
  let fired = Atomic.make 0 in
  Program.rule p "dup_a" ~trigger:src (fun ctx s ->
      ctx.Rule.put (Tuple.make dst [| Tuple.get s 0 |]));
  Program.rule p "dup_b" ~trigger:src (fun ctx s ->
      ctx.Rule.put (Tuple.make dst [| Tuple.get s 0 |]));
  Program.rule p "count" ~trigger:dst (fun _ _ -> Atomic.incr fired);
  let init = [ Tuple.make src [| v_int 7 |] ] in
  let r = Engine.run_program ~init p Config.default in
  Alcotest.(check int) "Dst fired once" 1 (Atomic.get fired);
  Alcotest.(check int) "one dedup recorded" 1 r.Engine.delta_deduped

let test_engine_query_past () =
  (* SumMonth-style: a later-ordered tuple aggregates earlier tuples. *)
  let p = Program.create () in
  let item =
    Program.table p "Item"
      ~columns:Schema.[ int_col "group"; int_col "v" ]
      ~orderby:Schema.[ Lit "Item" ] ()
  in
  let total =
    Program.table p "Total" ~columns:Schema.[ int_col "group" ]
      ~orderby:Schema.[ Lit "Total" ] ()
  in
  Program.order p [ "Item"; "Total" ];
  Program.rule p "request_total" ~trigger:item
    ~puts:[ Spec.put "Total" ]
    (fun ctx i -> ctx.Rule.put (Tuple.make total [| Tuple.get i 0 |]));
  Program.rule p "sum_group" ~trigger:total
    ~reads:[ Spec.read ~kind:Spec.Aggregate "Item" ]
    (fun ctx t ->
      let g = Tuple.int t "group" in
      let sum =
        Query.fold ctx item ~prefix:[| v_int g |] ~init:0
          ~f:(fun acc it -> acc + Tuple.int it "v")
          ()
      in
      ctx.Rule.println (Printf.sprintf "group %d: %d" g sum));
  let init =
    [
      Tuple.make item [| v_int 1; v_int 10 |];
      Tuple.make item [| v_int 1; v_int 20 |];
      Tuple.make item [| v_int 2; v_int 5 |];
    ]
  in
  let frozen = Program.freeze p in
  let check config =
    let r = Engine.run ~init frozen config in
    Alcotest.(check (list string)) "aggregates" [ "group 1: 30"; "group 2: 5" ]
      r.Engine.outputs
  in
  check Config.default;
  check (Config.parallel ~threads:2 ())

let test_engine_no_delta () =
  (* -noDelta on a non-trigger table must preserve results and skip the
     Delta tree entirely. *)
  let p = Program.create () in
  let item =
    Program.table p "Item"
      ~columns:Schema.[ int_col "group"; int_col "v" ]
      ~orderby:Schema.[ Lit "Item" ] ()
  in
  let probe =
    Program.table p "Probe" ~columns:Schema.[ int_col "group" ]
      ~orderby:Schema.[ Lit "Probe" ] ()
  in
  Program.order p [ "Item"; "Probe" ];
  Program.rule p "sum" ~trigger:probe (fun ctx t ->
      let g = Tuple.int t "group" in
      let n = Query.count ctx item ~prefix:[| v_int g |] () in
      ctx.Rule.println (Printf.sprintf "count %d: %d" g n));
  let init =
    [
      Tuple.make item [| v_int 1; v_int 10 |];
      Tuple.make item [| v_int 1; v_int 20 |];
      Tuple.make probe [| v_int 1 |];
    ]
  in
  let frozen = Program.freeze p in
  let base = Engine.run ~init frozen Config.default in
  let nodelta =
    Engine.run ~init frozen { Config.default with no_delta = [ "Item" ] }
  in
  Alcotest.(check (list string)) "same outputs" base.Engine.outputs
    nodelta.Engine.outputs;
  let delta_items r =
    match Table_stats.get r.Engine.stats "Item" with
    | Some c -> Table_stats.read c.Table_stats.delta_inserts
    | None -> Alcotest.fail "no Item stats"
  in
  Alcotest.(check int) "baseline goes through Delta" 2 (delta_items base);
  Alcotest.(check int) "-noDelta bypasses Delta" 0 (delta_items nodelta)

let test_engine_no_gamma () =
  (* -noGamma on a trigger-only table: rules still fire, nothing stored. *)
  let p = Program.create () in
  let evt =
    Program.table p "Evt" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Evt" ] ()
  in
  let count = Atomic.make 0 in
  Program.rule p "consume" ~trigger:evt (fun _ _ -> Atomic.incr count);
  let init = List.init 5 (fun i -> Tuple.make evt [| v_int i |]) in
  let r, gamma_of =
    Engine.run_with_gamma ~init (Program.freeze p)
      { Config.default with no_gamma = [ "Evt" ] }
  in
  Alcotest.(check int) "all fired" 5 (Atomic.get count);
  Alcotest.(check int) "nothing stored" 0 ((gamma_of evt).Store.size ());
  Alcotest.(check int) "tuples processed" 5 r.Engine.tuples_processed

let test_engine_runtime_causality () =
  let p = Program.create () in
  let t =
    Program.table p "T" ~columns:Schema.[ int_col "step" ]
      ~orderby:Schema.[ Lit "Int"; Seq "step" ] ()
  in
  Program.rule p "back_in_time" ~trigger:t (fun ctx s ->
      let step = Tuple.int s "step" in
      if step = 1 then ctx.Rule.put (Tuple.make t [| v_int 0 |]));
  let init = [ Tuple.make t [| v_int 1 |] ] in
  (match
     Engine.run_program ~init p
       { Config.default with audit_causality = true }
   with
  | exception Engine.Causality_violation _ -> ()
  | _ -> Alcotest.fail "expected Causality_violation");
  (* Outside any firing the auditor checks a put against the class the
     running drain executed last: a feed from a step hook behind it
     raises.  A drain that reaches quiescence ends the run, so the next
     session feed may sort before the classes already run. *)
  let p = Program.create () in
  let t =
    Program.table p "T" ~columns:Schema.[ int_col "step" ]
      ~orderby:Schema.[ Lit "Int"; Seq "step" ] ()
  in
  let session = ref None in
  let hook step _ =
    match !session with
    | Some s when step = 2 -> Engine.feed s [ Tuple.make t [| v_int 2 |] ]
    | _ -> ()
  in
  let s =
    Engine.start (Program.freeze p)
      { Config.default with audit_causality = true; step_hook = Some hook }
  in
  session := Some s;
  Engine.feed s [ Tuple.make t [| v_int 5 |] ];
  ignore (Engine.drain s);
  Engine.feed s [ Tuple.make t [| v_int 3 |]; Tuple.make t [| v_int 6 |] ];
  (match Engine.drain s with
  | exception Engine.Causality_violation _ -> ()
  | _ -> Alcotest.fail "feed behind the running drain's last class accepted");
  ignore (Engine.finish s)

(* An event stream under the auditor: each tick feeds Tick(t) and its
   Readings, then drains.  Tick sorts before Reading, so every tick's
   feed is behind the previous tick's last class; the quiescent drain
   between them makes that legal, and the rule reads nothing later
   than its trigger. *)
let test_engine_audited_stream () =
  List.iter
    (fun threads ->
      let p = Program.create () in
      let tick =
        Program.table p "Tick" ~columns:Schema.[ int_col "t" ]
          ~orderby:Schema.[ Lit "Tick"; Seq "t" ] ()
      in
      let reading =
        Program.table p "Reading"
          ~columns:Schema.[ int_col "t"; int_col "sensor"; int_col "value" ]
          ~orderby:Schema.[ Lit "Reading"; Seq "t" ] ()
      in
      let alarm =
        Program.table p "Alarm"
          ~columns:Schema.[ int_col "t"; int_col "sensor"; int_col "value" ]
          ~orderby:Schema.[ Lit "Alarm"; Seq "t" ] ()
      in
      Program.order p [ "Tick"; "Reading"; "Alarm" ];
      Program.rule p "alarm" ~trigger:reading (fun ctx r ->
          if Tuple.int r "value" >= 90 then
            ctx.Rule.put
              (Tuple.make alarm
                 [| Tuple.get r 0; Tuple.get r 1; Tuple.get r 2 |]));
      Program.output p alarm (fun a ->
          Printf.sprintf "alarm %d %d" (Tuple.int a "t") (Tuple.int a "sensor"));
      let config =
        { (Config.parallel ~threads ()) with Config.audit_causality = true }
      in
      let s = Engine.start (Program.freeze p) config in
      let value t sensor = ((t * 31) + (sensor * 17)) mod 100 in
      let expected = ref 0 and alarms = ref 0 in
      for t = 0 to 9 do
        Engine.feed s
          (Tuple.make tick [| v_int t |]
          :: List.init 8 (fun sensor ->
                 if value t sensor >= 90 then incr expected;
                 Tuple.make reading
                   [| v_int t; v_int sensor; v_int (value t sensor) |]));
        alarms := !alarms + List.length (Engine.drain s)
      done;
      ignore (Engine.finish s);
      Alcotest.(check bool) "some alarms" true (!expected > 0);
      Alcotest.(check int)
        (Printf.sprintf "alarms at %d threads" threads)
        !expected !alarms)
    [ 1; 2 ]

let test_engine_custom_store_override () =
  (* Swap the Gamma store of a table via config only — no program change. *)
  let p = Program.create () in
  let item =
    Program.table p "Item"
      ~columns:Schema.[ int_col "k"; int_col "v" ]
      ~orderby:Schema.[ Lit "Item" ] ()
  in
  let probe =
    Program.table p "Probe" ~columns:Schema.[ int_col "k" ]
      ~orderby:Schema.[ Lit "Probe" ] ()
  in
  Program.order p [ "Item"; "Probe" ];
  Program.rule p "lookup" ~trigger:probe (fun ctx t ->
      let k = Tuple.int t "k" in
      let n = Query.count ctx item ~prefix:[| v_int k |] () in
      ctx.Rule.println (Printf.sprintf "%d->%d" k n));
  let init =
    [
      Tuple.make item [| v_int 1; v_int 5 |];
      Tuple.make item [| v_int 1; v_int 6 |];
      Tuple.make probe [| v_int 1 |];
    ]
  in
  let frozen = Program.freeze p in
  let outputs config = (Engine.run ~init frozen config).Engine.outputs in
  let base = outputs Config.default in
  Alcotest.(check (list string)) "hash index store" base
    (outputs
       { Config.default with stores = [ ("Item", Store.Hash_index 1) ] });
  Alcotest.(check (list string)) "skiplist store" base
    (outputs { Config.default with stores = [ ("Item", Store.Skiplist) ] })

let test_engine_action_handler () =
  (* External-action tuples: handler runs when the tuple leaves Delta. *)
  let p = Program.create () in
  let req =
    Program.table p "WriteReq" ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Req" ] ()
  in
  let log = ref [] in
  Program.action p req (fun _ t -> log := Tuple.int t "x" :: !log);
  let init = [ Tuple.make req [| v_int 3 |]; Tuple.make req [| v_int 1 |] ] in
  ignore (Engine.run_program ~init p Config.default);
  Alcotest.(check (list int)) "deterministic order" [ 1; 3 ] (List.rev !log)

let test_engine_frozen_program_rejects_additions () =
  let p, _ = ship_program () in
  ignore (Program.freeze p);
  (match Program.table p "New" ~columns:Schema.[ int_col "x" ] ~orderby:[] () with
  | exception Program.Frozen _ -> ()
  | _ -> Alcotest.fail "expected Frozen")

(* A run is a session fed once: [Engine.run] and an explicit
   start/feed/drain/finish report the same digests, outputs, stats and
   steps, and a session's result carries the time it spent. *)
let chain_program ~last =
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Int"; Seq "x" ]
      ()
  in
  Program.rule p "next" ~trigger:t (fun ctx tuple ->
      let x = Tuple.int tuple "x" in
      if x < last then ctx.Rule.put (Tuple.make t [| v_int (x + 1) |]));
  Program.output p t (fun tuple -> Printf.sprintf "t %d" (Tuple.int tuple "x"));
  (p, t)

let test_engine_run_is_session () =
  List.iter
    (fun threads ->
      let base =
        if threads = 1 then Config.default else Config.parallel ~threads ()
      in
      let config = { base with Config.digest = true } in
      let p, t = chain_program ~last:40 in
      let frozen = Program.freeze p in
      let init = [ Tuple.make t [| v_int 0 |] ] in
      let r = Engine.run ~init frozen config in
      let s = Engine.start frozen config in
      Engine.feed s init;
      ignore (Engine.drain s);
      let f = Engine.finish s in
      let at what = Printf.sprintf "%s at threads=%d" what threads in
      Alcotest.(check bool) (at "digest present") true (r.Engine.digest <> None);
      Alcotest.(check bool) (at "digests") true (r.Engine.digest = f.Engine.digest);
      Alcotest.(check (list string)) (at "outputs") r.Engine.outputs
        f.Engine.outputs;
      Alcotest.(check bool) (at "stats") true
        (Table_stats.snapshot r.Engine.stats
        = Table_stats.snapshot f.Engine.stats);
      Alcotest.(check int) (at "steps") r.Engine.steps f.Engine.steps;
      Alcotest.(check int) (at "steps = chain length") 41 r.Engine.steps;
      Alcotest.(check (pair int int)) (at "delta totals")
        (r.Engine.delta_inserted, r.Engine.delta_deduped)
        (f.Engine.delta_inserted, f.Engine.delta_deduped))
    [ 1; 2 ]

let test_engine_session_reports_time () =
  let p, t = chain_program ~last:200 in
  let s = Engine.start (Program.freeze p) Config.default in
  Engine.feed s [ Tuple.make t [| v_int 0 |] ];
  ignore (Engine.drain s);
  let r = Engine.finish s in
  Alcotest.(check bool) "at least 100 steps" true (r.Engine.steps >= 100);
  Alcotest.(check bool) "elapsed > 0" true (r.Engine.elapsed > 0.0);
  Alcotest.(check bool) "extract time > 0" true
    (r.Engine.phases.Engine.t_extract > 0.0)

(* Determinism property: random micro-programs produce identical output
   under 1 and 2 threads. *)
let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine deterministic across thread counts" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (pair (int_range 0 9) (int_range 0 99)))
    (fun seeds ->
      let p = Program.create () in
      let src =
        Program.table p "Src"
          ~columns:Schema.[ int_col "g"; int_col "v" ]
          ~orderby:Schema.[ Lit "Src" ] ()
      in
      let agg =
        Program.table p "Agg" ~columns:Schema.[ int_col "g" ]
          ~orderby:Schema.[ Lit "Agg" ] ()
      in
      Program.order p [ "Src"; "Agg" ];
      Program.rule p "req" ~trigger:src (fun ctx s ->
          ctx.Rule.put (Tuple.make agg [| Tuple.get s 0 |]));
      Program.rule p "sum" ~trigger:agg (fun ctx a ->
          let g = Tuple.int a "g" in
          let s =
            Query.fold ctx src ~prefix:[| v_int g |] ~init:0
              ~f:(fun acc t -> acc + Tuple.int t "v")
              ()
          in
          ctx.Rule.println (Printf.sprintf "%d:%d" g s));
      let init = List.map (fun (g, v) -> Tuple.make src [| v_int g; v_int v |]) seeds in
      let frozen = Program.freeze p in
      let r1 = Engine.run ~init frozen Config.default in
      let r2 = Engine.run ~init frozen (Config.parallel ~threads:2 ()) in
      r1.Engine.outputs = r2.Engine.outputs)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "core.value",
      [
        tc "compare" `Quick test_value_compare;
        tc "conversions" `Quick test_value_conversions;
        tc "array ops" `Quick test_value_arrays;
        tc "int shares small boxes" `Quick test_value_int_shared;
      ] );
    ( "core.order",
      [
        tc "chain" `Quick test_order_chain;
        tc "incomparable" `Quick test_order_incomparable;
        tc "cycle detection" `Quick test_order_cycle;
        tc "diamond" `Quick test_order_diamond;
      ] );
    ( "core.schema_tuple",
      [
        tc "schema validation" `Quick test_schema_validation;
        tc "construction forms" `Quick test_tuple_construction;
        tc "arity and types" `Quick test_tuple_arity_and_types;
        tc "primary key" `Quick test_tuple_key;
        tc "prefix match" `Quick test_tuple_prefix;
      ] );
    ( "core.timestamp",
      [
        tc "seq ordering" `Quick test_timestamp_ordering;
        tc "par equivalence" `Quick test_timestamp_par_equivalence;
        tc "literal ranks" `Quick test_timestamp_literal_ranks;
        tc "shorter prefix first" `Quick test_timestamp_prefix_shorter_first;
      ] );
    ( "core.delta",
      [
        tc "basics (sequential)" `Quick (run_delta_basics Delta.Sequential);
        tc "basics (concurrent)" `Quick (run_delta_basics Delta.Concurrent);
        tc "class grouping (sequential)" `Quick
          (run_delta_class_grouping Delta.Sequential);
        tc "class grouping (concurrent)" `Quick
          (run_delta_class_grouping Delta.Concurrent);
        tc "par level extraction" `Quick test_delta_par_level;
        tc "literal levels" `Quick test_delta_literal_levels;
        tc "concurrent inserts + drain" `Slow test_delta_concurrent_inserts;
        tc "insert_batch dedup (seq)" `Quick
          (run_delta_insert_batch Delta.Sequential);
        tc "insert_batch dedup (conc)" `Quick
          (run_delta_insert_batch Delta.Concurrent);
      ] );
    ( "core.store",
      [
        tc "tree contract" `Quick test_store_tree;
        tc "skiplist contract" `Quick test_store_skiplist;
        tc "hash index contract" `Quick test_store_hash_index;
        tc "tree ordered prefix" `Quick test_store_tree_ordered_iteration;
        tc "insert_batch dedup (all families)" `Quick test_store_insert_batch;
        tc "native int array" `Quick test_store_native_int;
      ] );
    ( "core.reducer",
      [
        tc "statistics" `Quick test_statistics;
        tc "statistics combine" `Quick test_statistics_combine;
        QCheck_alcotest.to_alcotest prop_statistics_combine_associative;
        tc "sequential scan" `Quick test_scan_sequential;
        tc "parallel scan" `Quick test_scan_parallel;
        tc "parallel statistics reduce" `Quick test_parallel_reduce_array;
      ] );
    ( "core.engine",
      [
        tc "Ship trajectory (§3)" `Quick test_engine_ship_sequential;
        tc "Ship parallel = sequential" `Quick test_engine_ship_parallel_matches;
        tc "divergent rule hits step limit" `Quick
          test_engine_unconditional_rule_diverges;
        tc "set semantics dedup" `Quick test_engine_set_semantics;
        tc "aggregate over the past" `Quick test_engine_query_past;
        tc "-noDelta bypass" `Quick test_engine_no_delta;
        tc "-noGamma trigger-only" `Quick test_engine_no_gamma;
        tc "runtime causality check" `Quick test_engine_runtime_causality;
        tc "audited event stream" `Quick test_engine_audited_stream;
        tc "store override via config" `Quick test_engine_custom_store_override;
        tc "action handlers" `Quick test_engine_action_handler;
        tc "frozen program locked" `Quick test_engine_frozen_program_rejects_additions;
        tc "run = one-feed session" `Quick test_engine_run_is_session;
        tc "session reports its time" `Quick test_engine_session_reports_time;
        QCheck_alcotest.to_alcotest prop_engine_deterministic;
      ] );
  ]
