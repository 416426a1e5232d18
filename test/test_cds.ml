(* Tests for the concurrent data structures: skip-list map/set semantics
   (sequential model-based + concurrent linearisability smoke tests),
   sharded hash map, Treiber stack and Michael-Scott queue. *)

module Skiplist = Jstar_cds.Skiplist
module Cset = Jstar_cds.Cset
module Chashmap = Jstar_cds.Chashmap
module Treiber_stack = Jstar_cds.Treiber_stack
module Ms_queue = Jstar_cds.Ms_queue

let icompare : int -> int -> int = compare

(* ------------------------------------------------------------------ *)
(* Skiplist: sequential semantics *)

let test_sl_empty () =
  let t = Skiplist.create ~compare:icompare () in
  Alcotest.(check bool) "is_empty" true (Skiplist.is_empty t);
  Alcotest.(check int) "length" 0 (Skiplist.length t);
  Alcotest.(check (option int)) "find" None (Skiplist.find_opt t 1);
  Alcotest.(check bool) "remove missing" false (Skiplist.remove t 1);
  Alcotest.(check (option (pair int int))) "min" None
    (Skiplist.min_binding_opt t)

let test_sl_add_find () =
  let t = Skiplist.create ~compare:icompare () in
  Alcotest.(check bool) "first add" true (Skiplist.add t 5 50);
  Alcotest.(check bool) "duplicate add" false (Skiplist.add t 5 99);
  Alcotest.(check (option int)) "value preserved" (Some 50)
    (Skiplist.find_opt t 5);
  Alcotest.(check int) "length" 1 (Skiplist.length t)

let test_sl_ordering () =
  let t = Skiplist.create ~compare:icompare () in
  let keys = [ 42; 7; 19; 3; 99; 1; 55 ] in
  List.iter (fun k -> ignore (Skiplist.add t k (k * 10))) keys;
  Alcotest.(check (list (pair int int)))
    "in-order traversal"
    (List.map (fun k -> (k, k * 10)) (List.sort compare keys))
    (Skiplist.to_list t)

let test_sl_remove () =
  let t = Skiplist.create ~compare:icompare () in
  List.iter (fun k -> ignore (Skiplist.add t k k)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "remove 3" true (Skiplist.remove t 3);
  Alcotest.(check bool) "remove 3 again" false (Skiplist.remove t 3);
  Alcotest.(check (option int)) "3 gone" None (Skiplist.find_opt t 3);
  Alcotest.(check int) "length" 4 (Skiplist.length t);
  Alcotest.(check (list int)) "order preserved" [ 1; 2; 4; 5 ]
    (List.map fst (Skiplist.to_list t))

let test_sl_min_and_pop () =
  let t = Skiplist.create ~compare:icompare () in
  List.iter (fun k -> ignore (Skiplist.add t k (-k))) [ 10; 2; 8; 2; 30 ];
  Alcotest.(check (option (pair int int))) "min" (Some (2, -2))
    (Skiplist.min_binding_opt t);
  Alcotest.(check (option (pair int int))) "pop min" (Some (2, -2))
    (Skiplist.pop_min_opt t);
  Alcotest.(check (option (pair int int))) "next min" (Some (8, -8))
    (Skiplist.pop_min_opt t);
  Alcotest.(check int) "length after pops" 2 (Skiplist.length t)

let test_sl_find_or_add () =
  let t = Skiplist.create ~compare:icompare () in
  let v1 = Skiplist.find_or_add t 7 (fun () -> "fresh") in
  let v2 = Skiplist.find_or_add t 7 (fun () -> "other") in
  Alcotest.(check string) "created" "fresh" v1;
  Alcotest.(check string) "reused" "fresh" v2;
  Alcotest.(check int) "single binding" 1 (Skiplist.length t)

let test_sl_iter_from () =
  let t = Skiplist.create ~compare:icompare () in
  List.iter (fun k -> ignore (Skiplist.add t k ())) [ 1; 3; 5; 7; 9 ];
  let seen = ref [] in
  Skiplist.iter_from t 4 (fun k () ->
      seen := k :: !seen;
      k < 8);
  Alcotest.(check (list int)) "range [4, stop after >=8]" [ 5; 7; 9 ]
    (List.rev !seen)

let test_sl_iter_from_before_all () =
  let t = Skiplist.create ~compare:icompare () in
  List.iter (fun k -> ignore (Skiplist.add t k ())) [ 10; 20 ];
  let seen = ref [] in
  Skiplist.iter_from t 0 (fun k () ->
      seen := k :: !seen;
      true);
  Alcotest.(check (list int)) "all visited" [ 10; 20 ] (List.rev !seen)

let test_sl_large_sequential () =
  let t = Skiplist.create ~compare:icompare () in
  let n = 20_000 in
  for i = 0 to n - 1 do
    ignore (Skiplist.add t ((i * 7919) mod n) i)
  done;
  (* 7919 is coprime with n, so all keys 0..n-1 get inserted. *)
  Alcotest.(check int) "all inserted" n (Skiplist.length t);
  for i = 0 to n - 1 do
    if not (Skiplist.mem t i) then Alcotest.failf "missing key %d" i
  done;
  (* remove every third key *)
  let removed = ref 0 in
  let i = ref 0 in
  while !i < n do
    if Skiplist.remove t !i then incr removed;
    i := !i + 3
  done;
  Alcotest.(check int) "removed count" ((n + 2) / 3) !removed;
  Alcotest.(check int) "length" (n - !removed) (Skiplist.length t)

(* Model-based property test: a random sequence of add/remove/find ops
   must agree with a reference stdlib Map. *)
let prop_sl_model =
  let op_gen =
    QCheck.Gen.(
      pair (int_range 0 2) (int_range 0 30) >|= fun (op, k) -> (op, k))
  in
  QCheck.Test.make ~name:"skiplist = Map model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 200) op_gen))
    (fun ops ->
      let t = Skiplist.create ~compare:icompare () in
      let model = ref [] in
      List.for_all
        (fun (op, k) ->
          match op with
          | 0 ->
              let expected = not (List.mem_assoc k !model) in
              let got = Skiplist.add t k (k * 2) in
              if expected then model := (k, k * 2) :: !model;
              got = expected
          | 1 ->
              let expected = List.mem_assoc k !model in
              let got = Skiplist.remove t k in
              if expected then model := List.remove_assoc k !model;
              got = expected
          | _ ->
              Skiplist.find_opt t k
              = List.assoc_opt k !model)
        ops
      && Skiplist.to_list t
         = List.sort compare !model)

(* Concurrent smoke test: disjoint key ranges inserted from several
   domains must all land, stay ordered and deduplicated. *)
let test_sl_concurrent_inserts () =
  let t = Skiplist.create ~compare:icompare () in
  let per_domain = 5_000 and domains = 4 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              ignore (Skiplist.add t ((i * domains) + d) i)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "all inserted" (per_domain * domains)
    (Skiplist.length t);
  let prev = ref (-1) in
  Skiplist.iter t (fun k _ ->
      if k <= !prev then Alcotest.failf "out of order at %d" k;
      prev := k)

(* Concurrent duplicate race: all domains insert the same keys; each key
   must be inserted exactly once overall. *)
let test_sl_concurrent_duplicates () =
  let t = Skiplist.create ~compare:icompare () in
  let keys = 2_000 and domains = 4 in
  let wins = Array.init domains (fun _ -> ref 0) in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for k = 0 to keys - 1 do
              if Skiplist.add t k d then incr wins.(d)
            done))
  in
  List.iter Domain.join workers;
  let total_wins = Array.fold_left (fun acc r -> acc + !r) 0 wins in
  Alcotest.(check int) "each key inserted exactly once" keys total_wins;
  Alcotest.(check int) "length" keys (Skiplist.length t)

(* Concurrent pop_min consumers must drain the map without duplication. *)
let test_sl_concurrent_pop_min () =
  let t = Skiplist.create ~compare:icompare () in
  let n = 5_000 in
  for i = 0 to n - 1 do
    ignore (Skiplist.add t i i)
  done;
  let results = Array.init 3 (fun _ -> ref []) in
  let workers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            let rec go () =
              match Skiplist.pop_min_opt t with
              | Some (k, _) ->
                  results.(d) := k :: !(results.(d));
                  go ()
              | None -> ()
            in
            go ()))
  in
  List.iter Domain.join workers;
  let all = List.concat_map (fun r -> !r) (Array.to_list results) in
  Alcotest.(check int) "drained exactly n" n (List.length all);
  Alcotest.(check bool) "no duplicates" true
    (List.sort compare all = List.init n Fun.id);
  (* each consumer's own stream must be increasing (it popped minima) *)
  Array.iter
    (fun r ->
      let stream = List.rev !r in
      ignore
        (List.fold_left
           (fun prev k ->
             if k <= prev then Alcotest.failf "non-monotonic pop at %d" k;
             k)
           (-1) stream))
    results

(* Searches allocate nothing: [find_opt] on a miss and [mem] on a hit or
   a miss cost the minor words of an identically-shaped empty loop.  A
   Gamma dedup probe is one such search per put. *)
let test_sl_search_zero_alloc () =
  let t = Skiplist.create ~compare:icompare () in
  for k = 0 to 999 do
    ignore (Skiplist.add t (2 * k) k)
  done;
  let minor_delta op =
    let before = Gc.minor_words () in
    for k = 0 to 999 do
      ignore (Sys.opaque_identity (op (Sys.opaque_identity k)))
    done;
    Gc.minor_words () -. before
  in
  let baseline = minor_delta (fun k -> k) in
  let check name op =
    Alcotest.(check (float 0.0)) name baseline (minor_delta op)
  in
  check "find_opt miss" (fun k -> Skiplist.find_opt t ((2 * k) + 1));
  check "mem hit" (fun k -> Skiplist.mem t (2 * k));
  check "mem miss" (fun k -> Skiplist.mem t ((2 * k) + 1))

(* ------------------------------------------------------------------ *)
(* Cset *)

let test_cset_basics () =
  let s = Cset.create ~compare:icompare () in
  Alcotest.(check bool) "add new" true (Cset.add s 3);
  Alcotest.(check bool) "add dup" false (Cset.add s 3);
  ignore (Cset.add s 1);
  ignore (Cset.add s 2);
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Cset.to_list s);
  Alcotest.(check (option int)) "min" (Some 1) (Cset.min_elt_opt s);
  Alcotest.(check (option int)) "pop" (Some 1) (Cset.pop_min_opt s);
  Alcotest.(check bool) "mem 2" true (Cset.mem s 2);
  Alcotest.(check bool) "remove" true (Cset.remove s 2);
  Alcotest.(check int) "length" 1 (Cset.length s)

let test_cset_add_batch () =
  let s = Cset.create ~compare:icompare () in
  ignore (Cset.add s 5);
  (* fresh, in-batch dup (first wins), dup of pre-inserted, fresh *)
  let res = Cset.add_batch s [| 1; 1; 5; 3 |] in
  Alcotest.(check (array bool)) "dedup flags" [| true; false; false; true |] res;
  Alcotest.(check (list int)) "set contents" [ 1; 3; 5 ] (Cset.to_list s);
  let empty = Cset.add_batch s [||] in
  Alcotest.(check int) "empty batch" 0 (Array.length empty);
  Alcotest.(check int) "length unchanged" 3 (Cset.length s)

let test_cset_range () =
  let s = Cset.create ~compare:icompare () in
  List.iter (fun x -> ignore (Cset.add s x)) [ 2; 4; 6; 8 ];
  let seen = ref [] in
  Cset.iter_from s 3 (fun x ->
      seen := x :: !seen;
      true);
  Alcotest.(check (list int)) "from 3" [ 4; 6; 8 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Chashmap *)

let test_chm_basics () =
  let m = Chashmap.create () in
  Alcotest.(check bool) "empty" true (Chashmap.is_empty m);
  Chashmap.set m "a" 1;
  Chashmap.set m "a" 2;
  Alcotest.(check (option int)) "overwrite" (Some 2) (Chashmap.find_opt m "a");
  Alcotest.(check bool) "add_if_absent dup" false
    (Chashmap.add_if_absent m "a" 9);
  Alcotest.(check bool) "add_if_absent new" true
    (Chashmap.add_if_absent m "b" 3);
  Alcotest.(check int) "length" 2 (Chashmap.length m);
  Alcotest.(check bool) "remove" true (Chashmap.remove m "a");
  Alcotest.(check bool) "remove gone" false (Chashmap.remove m "a")

let test_chm_find_or_add () =
  let m = Chashmap.create ~shards:4 () in
  let calls = ref 0 in
  let v1 =
    Chashmap.find_or_add m 42 (fun () ->
        incr calls;
        "x")
  in
  let v2 = Chashmap.find_or_add m 42 (fun () -> failwith "must not run") in
  Alcotest.(check string) "first" "x" v1;
  Alcotest.(check string) "second" "x" v2;
  Alcotest.(check int) "mk called once" 1 !calls

let test_chm_update () =
  let m = Chashmap.create () in
  Chashmap.update m "k" (function None -> Some 1 | Some _ -> assert false);
  Chashmap.update m "k" (function Some v -> Some (v + 10) | None -> None);
  Alcotest.(check (option int)) "updated" (Some 11) (Chashmap.find_opt m "k");
  Chashmap.update m "k" (fun _ -> None);
  Alcotest.(check (option int)) "deleted" None (Chashmap.find_opt m "k")

let test_chm_iter_reentrant () =
  let m = Chashmap.create ~shards:2 () in
  for i = 0 to 9 do
    Chashmap.set m i (i * i)
  done;
  (* The callback reads the map: must not deadlock. *)
  let total = ref 0 in
  Chashmap.iter m (fun k _ ->
      match Chashmap.find_opt m k with
      | Some v -> total := !total + v
      | None -> ());
  Alcotest.(check int) "sum of squares" 285 !total

let test_chm_concurrent () =
  let m = Chashmap.create () in
  let per_domain = 10_000 and domains = 4 in
  let winners = Array.init domains (fun _ -> ref 0) in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              if Chashmap.add_if_absent m i d then incr winners.(d)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "each key once"
    per_domain
    (Array.fold_left (fun acc r -> acc + !r) 0 winners);
  Alcotest.(check int) "length" per_domain (Chashmap.length m)

let prop_chm_model =
  QCheck.Test.make ~name:"chashmap = assoc model" ~count:200
    QCheck.(list (pair (int_range 0 3) (int_range 0 20)))
    (fun ops ->
      let m = Chashmap.create ~shards:2 () in
      let model = ref [] in
      List.for_all
        (fun (op, k) ->
          match op with
          | 0 ->
              Chashmap.set m k (k * 3);
              model := (k, k * 3) :: List.remove_assoc k !model;
              true
          | 1 ->
              let expected = List.mem_assoc k !model in
              let got = Chashmap.remove m k in
              model := List.remove_assoc k !model;
              got = expected
          | 2 -> Chashmap.find_opt m k = List.assoc_opt k !model
          | _ ->
              let expected = not (List.mem_assoc k !model) in
              let got = Chashmap.add_if_absent m k (k * 3) in
              if expected then model := (k, k * 3) :: !model;
              got = expected)
        ops
      && Chashmap.length m = List.length !model)

(* ------------------------------------------------------------------ *)
(* Treiber stack *)

let test_stack_lifo () =
  let s = Treiber_stack.create () in
  Alcotest.(check bool) "empty" true (Treiber_stack.is_empty s);
  Treiber_stack.push s 1;
  Treiber_stack.push s 2;
  Alcotest.(check (option int)) "pop 2" (Some 2) (Treiber_stack.pop s);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Treiber_stack.pop s);
  Alcotest.(check (option int)) "pop empty" None (Treiber_stack.pop s)

let test_stack_pop_all () =
  let s = Treiber_stack.create () in
  List.iter (Treiber_stack.push s) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "newest first" [ 3; 2; 1 ]
    (Treiber_stack.pop_all s);
  Alcotest.(check bool) "emptied" true (Treiber_stack.is_empty s)

let test_stack_concurrent () =
  let s = Treiber_stack.create () in
  let per_domain = 20_000 and domains = 4 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Treiber_stack.push s ((i * domains) + d)
            done))
  in
  List.iter Domain.join workers;
  let all = Treiber_stack.pop_all s in
  Alcotest.(check int) "all pushed" (per_domain * domains) (List.length all);
  Alcotest.(check bool) "distinct" true
    (List.sort compare all = List.init (per_domain * domains) Fun.id)

(* ------------------------------------------------------------------ *)
(* Michael-Scott queue *)

let test_queue_fifo () =
  let q = Ms_queue.create () in
  Alcotest.(check bool) "empty" true (Ms_queue.is_empty q);
  Ms_queue.push q "a";
  Ms_queue.push q "b";
  Alcotest.(check (option string)) "pop a" (Some "a") (Ms_queue.pop q);
  Alcotest.(check (option string)) "pop b" (Some "b") (Ms_queue.pop q);
  Alcotest.(check (option string)) "pop empty" None (Ms_queue.pop q)

let test_queue_drain () =
  let q = Ms_queue.create () in
  List.iter (Ms_queue.push q) [ 1; 2; 3 ];
  let seen = ref [] in
  Ms_queue.drain q (fun v -> seen := v :: !seen);
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (List.rev !seen);
  Alcotest.(check bool) "drained" true (Ms_queue.is_empty q)

let test_queue_mpmc () =
  let q = Ms_queue.create () in
  let per_domain = 10_000 in
  let producers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Ms_queue.push q ((i * 2) + d)
            done))
  in
  let consumed = Array.init 2 (fun _ -> ref []) in
  let done_producing = Atomic.make false in
  let consumers =
    List.init 2 (fun c ->
        Domain.spawn (fun () ->
            let rec go () =
              match Ms_queue.pop q with
              | Some v ->
                  consumed.(c) := v :: !(consumed.(c));
                  go ()
              | None -> if Atomic.get done_producing then () else go ()
            in
            go ()))
  in
  List.iter Domain.join producers;
  Atomic.set done_producing true;
  List.iter Domain.join consumers;
  let all = List.concat_map (fun r -> !r) (Array.to_list consumed) in
  Alcotest.(check int) "nothing lost" (2 * per_domain) (List.length all);
  Alcotest.(check bool) "nothing duplicated" true
    (List.sort compare all = List.init (2 * per_domain) Fun.id)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "cds.skiplist",
      [
        tc "empty map" `Quick test_sl_empty;
        tc "add and find" `Quick test_sl_add_find;
        tc "ordered traversal" `Quick test_sl_ordering;
        tc "remove" `Quick test_sl_remove;
        tc "min and pop_min" `Quick test_sl_min_and_pop;
        tc "find_or_add" `Quick test_sl_find_or_add;
        tc "iter_from mid" `Quick test_sl_iter_from;
        tc "iter_from before all" `Quick test_sl_iter_from_before_all;
        tc "20k keys sequential" `Quick test_sl_large_sequential;
        QCheck_alcotest.to_alcotest prop_sl_model;
        tc "concurrent disjoint inserts" `Slow test_sl_concurrent_inserts;
        tc "concurrent duplicate race" `Slow test_sl_concurrent_duplicates;
        tc "concurrent pop_min" `Slow test_sl_concurrent_pop_min;
        tc "search allocates nothing" `Quick test_sl_search_zero_alloc;
      ] );
    ( "cds.cset",
      [
        tc "basics" `Quick test_cset_basics;
        tc "add_batch dedup" `Quick test_cset_add_batch;
        tc "range iteration" `Quick test_cset_range;
      ] );
    ( "cds.chashmap",
      [
        tc "basics" `Quick test_chm_basics;
        tc "find_or_add" `Quick test_chm_find_or_add;
        tc "update" `Quick test_chm_update;
        tc "re-entrant iter" `Quick test_chm_iter_reentrant;
        tc "concurrent add_if_absent" `Slow test_chm_concurrent;
        QCheck_alcotest.to_alcotest prop_chm_model;
      ] );
    ( "cds.stack",
      [
        tc "LIFO" `Quick test_stack_lifo;
        tc "pop_all" `Quick test_stack_pop_all;
        tc "concurrent pushes" `Slow test_stack_concurrent;
      ] );
    ( "cds.queue",
      [
        tc "FIFO" `Quick test_queue_fifo;
        tc "drain" `Quick test_queue_drain;
        tc "2 producers x 2 consumers" `Slow test_queue_mpmc;
      ] );
  ]
