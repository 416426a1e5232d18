(* End-to-end tests for the four case-study programs: each JStar version
   must agree with its hand-coded baseline (and with ground truth), under
   both sequential and parallel configurations and under every
   store/flag variant the paper studies. *)

open Jstar_core
module Pvwatts = Jstar_apps.Pvwatts
module Pvwatts_disruptor = Jstar_apps.Pvwatts_disruptor
module Matmul = Jstar_apps.Matmul
module Shortest_path = Jstar_apps.Shortest_path
module Median = Jstar_apps.Median
module Spaceinvaders = Jstar_apps.Spaceinvaders
module Pvwatts_data = Jstar_csv.Pvwatts_data

(* ------------------------------------------------------------------ *)
(* Space invaders (§3) *)

let test_ship_trajectory () =
  let app = Spaceinvaders.make () in
  let r =
    Engine.run_program ~init:app.Spaceinvaders.init app.Spaceinvaders.program
      Config.default
  in
  Alcotest.(check (list string)) "Fig 2 trajectory"
    Spaceinvaders.expected_outputs r.Engine.outputs

(* ------------------------------------------------------------------ *)
(* PvWatts *)

let small_data =
  lazy (Pvwatts_data.to_bytes ~installations:2 ~ordering:Pvwatts_data.Month_major)

let reference_outputs data =
  (* ground truth, computed without any of our CSV/engine machinery *)
  ignore data;
  Pvwatts_data.reference_monthly_stats ~installations:2
  |> List.map (fun (m, _, _, mean) -> Pvwatts.format_mean Pvwatts_data.year m mean)
  |> List.sort String.compare

let test_pvwatts_baseline_matches_reference () =
  let data = Lazy.force small_data in
  Alcotest.(check (list string)) "baseline = ground truth"
    (reference_outputs data) (Pvwatts.baseline data)

let check_pvwatts_config name config =
  let data = Lazy.force small_data in
  let r = Pvwatts.run ~data config in
  Alcotest.(check (list string)) name (reference_outputs data) r.Engine.outputs

let test_pvwatts_naive () =
  (* everything through the Delta tree, default stores *)
  check_pvwatts_config "naive sequential"
    (Pvwatts.config ~threads:1 ~no_delta:false ~store:Pvwatts.Default_store ())

let test_pvwatts_nodelta () =
  check_pvwatts_config "noDelta sequential"
    (Pvwatts.config ~threads:1 ~no_delta:true ~store:Pvwatts.Default_store ())

let test_pvwatts_hash_store () =
  check_pvwatts_config "hash store"
    (Pvwatts.config ~threads:1 ~store:Pvwatts.Hash_store ())

let test_pvwatts_month_array_store () =
  check_pvwatts_config "month-array store"
    (Pvwatts.config ~threads:1 ~store:Pvwatts.Month_array_store ())

let pv_schema = lazy (Pvwatts.make ~data:Bytes.empty ~chunks:1 ()).Pvwatts.pv_table

let pv_tuple (year, month, day, hour, site, power) =
  Tuple.make (Lazy.force pv_schema)
    (Array.map Value.int [| year; month; day; hour; site; power |])

(* Contract of the custom month-array store against the ordered [tree]
   store on the same set: random PvWatts tuples with duplicates,
   inserted by two domains at once, each in its own order. *)
let prop_month_array_contract =
  let row =
    QCheck.Gen.(
      map
        (fun ((year, month, day), (hour, site, power)) ->
          (year, month, day, hour, site, power))
        (pair
           (triple (int_range 2011 2012) (int_range 1 12) (int_range 1 2))
           (triple (int_range 0 2) (int_range 0 1) (int_range 0 2))))
  in
  QCheck.Test.make ~name:"month-array store = tree store" ~count:50
    (QCheck.make QCheck.Gen.(list_size (int_range 0 400) row))
    (fun rows ->
      let schema = Lazy.force pv_schema in
      let store = Pvwatts.month_array_store schema in
      let tree = Store.tree schema in
      let tuples = List.map pv_tuple rows in
      let wins order =
        Domain.spawn (fun () ->
            List.filter (fun t -> store.Store.insert t) (order tuples))
      in
      let a = wins Fun.id and b = wins List.rev in
      let won = Domain.join a @ Domain.join b in
      List.iter (fun t -> ignore (tree.Store.insert t)) tuples;
      let sorted l = List.sort Tuple.compare l in
      let same = List.equal Tuple.equal in
      let all s =
        let acc = ref [] in
        s.Store.iter (fun t -> acc := t :: !acc);
        sorted !acc
      in
      let prefix s year month =
        let acc = ref [] in
        s.Store.iter_prefix [| Value.Int year; Value.Int month |] (fun t ->
            acc := t :: !acc);
        sorted !acc
      in
      let absent =
        List.map
          (fun (y, m, d, h, site, p) -> pv_tuple (y, m, d, h, site, p + 3))
          rows
      in
      same (sorted won) (List.sort_uniq Tuple.compare tuples)
      && store.Store.size () = tree.Store.size ()
      && List.for_all
           (fun t -> store.Store.mem t = tree.Store.mem t)
           (tuples @ absent)
      && same (all store) (all tree)
      && List.for_all
           (fun (y, m) -> same (prefix store y m) (prefix tree y m))
           (List.concat_map
              (fun y -> List.init 14 (fun m -> (y, m)))
              [ 2011; 2012 ]))

(* A month outside 1..12 is a typed error on insert, naming the table,
   the field and the value, and a query for it visits nothing. *)
let test_month_array_bad_month () =
  let schema = Lazy.force pv_schema in
  let store = Pvwatts.month_array_store schema in
  ignore (store.Store.insert (pv_tuple (2012, 12, 1, 0, 0, 1)));
  List.iter
    (fun month ->
      let bad = pv_tuple (2012, month, 1, 0, 0, 1) in
      Alcotest.check_raises
        (Fmt.str "insert month %d" month)
        (Tuple.Tuple_error
           (Fmt.str "PvWatts.month: %d is not a month (1..12)" month))
        (fun () -> ignore (store.Store.insert bad));
      Alcotest.(check bool) (Fmt.str "mem month %d" month) false
        (store.Store.mem bad);
      store.Store.iter_prefix [| Value.Int 2012; Value.Int month |] (fun t ->
          Alcotest.failf "iter_prefix month %d visited %s" month (Tuple.show t)))
    [ 0; 13; -1 ];
  Alcotest.(check int) "size" 1 (store.Store.size ())

let test_pvwatts_parallel () =
  check_pvwatts_config "2 threads, month-array"
    (Pvwatts.config ~threads:2 ~store:Pvwatts.Month_array_store ());
  check_pvwatts_config "2 threads, naive"
    (Pvwatts.config ~threads:2 ~no_delta:false ~store:Pvwatts.Default_store ())

let test_pvwatts_nodelta_skips_delta () =
  let data = Lazy.force small_data in
  let run no_delta =
    let app = Pvwatts.make ~data ~chunks:4 () in
    let r =
      Engine.run_program ~init:app.Pvwatts.init app.Pvwatts.program
        (Pvwatts.config ~threads:1 ~no_delta ())
    in
    match Table_stats.get r.Engine.stats "PvWatts" with
    | Some c -> Table_stats.read c.Table_stats.delta_inserts
    | None -> Alcotest.fail "no PvWatts stats"
  in
  Alcotest.(check bool) "naive routes PvWatts through Delta" true (run false > 0);
  Alcotest.(check int) "-noDelta bypasses" 0 (run true)

let test_pvwatts_disruptor () =
  let data = Lazy.force small_data in
  let r = Pvwatts_disruptor.run ~data () in
  Alcotest.(check (list string)) "disruptor = ground truth"
    (reference_outputs data) r.Pvwatts_disruptor.outputs;
  Alcotest.(check int) "published = records + sentinel"
    (Pvwatts_data.record_count ~installations:2 + 1)
    r.Pvwatts_disruptor.stats.Jstar_disruptor.Disruptor.published

let test_pvwatts_disruptor_sorted_input () =
  let data =
    Pvwatts_data.to_bytes ~installations:2 ~ordering:Pvwatts_data.Round_robin
  in
  let r =
    Pvwatts_disruptor.run
      ~options:
        {
          Jstar_disruptor.Disruptor.pvwatts_options with
          num_consumers = 3;
          ring_size = 256;
        }
      ~data ()
  in
  Alcotest.(check (list string)) "round-robin input, 3 consumers"
    (reference_outputs data) r.Pvwatts_disruptor.outputs

(* ------------------------------------------------------------------ *)
(* MatrixMult *)

let check_matmul ~n ~variant ~threads () =
  let a = Matmul.generate_matrix 1 n and b = Matmul.generate_matrix 2 n in
  let expected = Matmul.baseline_naive a b in
  let transposed = Matmul.baseline_transposed a b in
  Alcotest.(check bool) "baselines agree" true (expected = transposed);
  let _, get = Matmul.run ~n ~variant ~threads () in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if get i j <> expected.(i).(j) then
        Alcotest.failf "C[%d][%d] = %d, want %d" i j (get i j) expected.(i).(j)
    done
  done

let test_matmul_unboxed_seq () = check_matmul ~n:24 ~variant:Matmul.Unboxed ~threads:1 ()
let test_matmul_unboxed_par () = check_matmul ~n:24 ~variant:Matmul.Unboxed ~threads:2 ()
let test_matmul_boxed_seq () = check_matmul ~n:16 ~variant:Matmul.Boxed ~threads:1 ()
let test_matmul_boxed_par () = check_matmul ~n:16 ~variant:Matmul.Boxed ~threads:2 ()

let test_matmul_one_tuple_per_row () =
  (* "only one tuple per row of the output matrix needs to go through
     the delta set" *)
  let n = 8 in
  let app, store = Matmul.make ~n ~variant:Matmul.Unboxed () in
  let r =
    Engine.run_program ~init:app.Matmul.init app.Matmul.program
      (Matmul.config ~threads:1 store)
  in
  Alcotest.(check int) "delta traffic = rows + request" (n + 1)
    r.Engine.delta_inserted

(* ------------------------------------------------------------------ *)
(* ShortestPath *)

let check_shortest_path ~vertices ~threads () =
  let dist_baseline = Shortest_path.baseline ~vertices () in
  let r, app = Shortest_path.run ~vertices ~threads () in
  Alcotest.(check int) "all vertices reached" vertices
    (app.Shortest_path.reached_count ());
  for v = 0 to vertices - 1 do
    match app.Shortest_path.distance_of v with
    | Some d ->
        if d <> dist_baseline.(v) then
          Alcotest.failf "vertex %d: JStar %d, baseline %d" v d dist_baseline.(v)
    | None -> Alcotest.failf "vertex %d unreached" v
  done;
  Alcotest.(check bool) "many steps (Delta as priority queue)" true
    (r.Engine.steps > 3)

let test_shortest_path_seq () = check_shortest_path ~vertices:2000 ~threads:1 ()
let test_shortest_path_par () = check_shortest_path ~vertices:2000 ~threads:2 ()

let test_shortest_path_origin () =
  let _, app = Shortest_path.run ~vertices:50 ~threads:1 () in
  Alcotest.(check (option int)) "distance to origin" (Some 0)
    (app.Shortest_path.distance_of 0)

let test_shortest_path_deterministic_graph () =
  (* same seed -> same graph -> same distances across runs and tasks *)
  let d1 = Shortest_path.baseline ~vertices:500 ~tasks:24 () in
  let d2 = Shortest_path.baseline ~vertices:500 ~tasks:24 () in
  Alcotest.(check bool) "deterministic" true (d1 = d2)

(* ------------------------------------------------------------------ *)
(* Median *)

let median_output x = Printf.sprintf "median = %.9f" x

let check_median ~n ~threads () =
  let arr = Median.generate n in
  let expected = Median.baseline_sort arr in
  Alcotest.(check (float 1e-12)) "quickselect = sort"
    expected (Median.baseline_quickselect arr);
  let r = Median.run ~n ~threads () in
  Alcotest.(check (list string)) "jstar = sort baseline"
    [ median_output expected ]
    r.Engine.outputs

let test_median_small () = check_median ~n:1000 ~threads:1 ()
(* crosses the cutoff: needs at least one parallel partition round *)
let test_median_medium_seq () = check_median ~n:50_000 ~threads:1 ()
let test_median_medium_par () = check_median ~n:50_000 ~threads:2 ()
let test_median_large_par () = check_median ~n:300_000 ~threads:2 ()

let test_median_odd_sizes () =
  List.iter
    (fun n -> check_median ~n ~threads:1 ())
    [ 1; 2; 3; 4097; 5000; 12_345 ]

let test_median_duplicates () =
  (* all-equal data must terminate via the equal band *)
  let n = 20_000 in
  let arr = Array.make n 0.5 in
  let expected = Median.baseline_sort arr in
  Alcotest.(check (float 1e-12)) "quickselect handles duplicates"
    expected (Median.baseline_quickselect arr);
  Alcotest.(check (float 1e-12)) "constant array" 0.5 expected

(* ------------------------------------------------------------------ *)
(* Game of Life (extension app) *)

module Life = Jstar_apps.Life

let coords = Alcotest.(list (pair int int))

let test_life_block_still () =
  let _, final = Life.run ~generations:5 ~alive:Life.block () in
  Alcotest.check coords "block is a still life" (List.sort compare Life.block) final

let test_life_blinker_period_two () =
  let _, g1 = Life.run ~generations:1 ~alive:Life.blinker () in
  let _, g2 = Life.run ~generations:2 ~alive:Life.blinker () in
  Alcotest.(check bool) "oscillates" true (g1 <> List.sort compare Life.blinker);
  Alcotest.check coords "period 2" (List.sort compare Life.blinker) g2

let test_life_glider_translates () =
  let _, g4 = Life.run ~generations:4 ~alive:Life.glider () in
  let expected =
    List.sort compare (List.map (fun (x, y) -> (x + 1, y + 1)) Life.glider)
  in
  Alcotest.check coords "glider moves (1,1) per 4 generations" expected g4

let test_life_matches_reference () =
  let alive = Life.glider @ [ (10, 10); (10, 11); (11, 10); (11, 11) ] in
  let _, got = Life.run ~generations:6 ~alive () in
  Alcotest.check coords "engine = synchronous reference"
    (Life.reference ~generations:6 alive) got

let test_life_parallel_deterministic () =
  let _, seq = Life.run ~threads:1 ~generations:6 ~alive:Life.glider () in
  let _, par = Life.run ~threads:2 ~generations:6 ~alive:Life.glider () in
  Alcotest.check coords "parallel = sequential" seq par

let test_life_windowed_gc () =
  let generations = 5 in
  (* windowed config: generation 0 is evicted by the end *)
  let app = Life.make ~generations ~alive:Life.glider () in
  let _, gamma_of =
    Jstar_core.Engine.run_with_gamma ~init:app.Life.init
      (Jstar_core.Program.freeze app.Life.program)
      (Life.config ())
  in
  Alcotest.check coords "generation 0 evicted" [] (app.Life.alive_at gamma_of 0);
  Alcotest.(check bool) "final generation retained" true
    (app.Life.alive_at gamma_of generations <> []);
  (* retain_all keeps history *)
  let app2 = Life.make ~generations ~alive:Life.glider () in
  let _, gamma2 =
    Jstar_core.Engine.run_with_gamma ~init:app2.Life.init
      (Jstar_core.Program.freeze app2.Life.program)
      (Life.config ~retain_all:true ())
  in
  Alcotest.check coords "history retained" (List.sort compare Life.glider)
    (app2.Life.alive_at gamma2 0)

let test_life_empty_board () =
  let _, final = Life.run ~generations:3 ~alive:[] () in
  Alcotest.check coords "empty stays empty" [] final

let suite =
  let tc = Alcotest.test_case in
  [
    ("apps.spaceinvaders", [ tc "Fig 2 trajectory" `Quick test_ship_trajectory ]);
    ( "apps.pvwatts",
      [
        tc "baseline = ground truth" `Quick test_pvwatts_baseline_matches_reference;
        tc "naive config" `Slow test_pvwatts_naive;
        tc "-noDelta config" `Quick test_pvwatts_nodelta;
        tc "hash store" `Quick test_pvwatts_hash_store;
        tc "month-array store" `Quick test_pvwatts_month_array_store;
        QCheck_alcotest.to_alcotest prop_month_array_contract;
        tc "month-array bad month" `Quick test_month_array_bad_month;
        tc "parallel configs" `Slow test_pvwatts_parallel;
        tc "-noDelta skips Delta" `Slow test_pvwatts_nodelta_skips_delta;
        tc "disruptor version" `Slow test_pvwatts_disruptor;
        tc "disruptor sorted input" `Slow test_pvwatts_disruptor_sorted_input;
      ] );
    ( "apps.matmul",
      [
        tc "unboxed sequential" `Quick test_matmul_unboxed_seq;
        tc "unboxed parallel" `Quick test_matmul_unboxed_par;
        tc "boxed sequential" `Quick test_matmul_boxed_seq;
        tc "boxed parallel" `Quick test_matmul_boxed_par;
        tc "one tuple per row through Delta" `Quick test_matmul_one_tuple_per_row;
      ] );
    ( "apps.shortest_path",
      [
        tc "2000 vertices sequential" `Slow test_shortest_path_seq;
        tc "2000 vertices parallel" `Slow test_shortest_path_par;
        tc "origin at distance 0" `Quick test_shortest_path_origin;
        tc "deterministic graph" `Quick test_shortest_path_deterministic_graph;
      ] );
    ( "apps.life",
      [
        tc "block still life" `Quick test_life_block_still;
        tc "blinker period 2" `Quick test_life_blinker_period_two;
        tc "glider translation" `Quick test_life_glider_translates;
        tc "matches reference" `Quick test_life_matches_reference;
        tc "parallel deterministic" `Quick test_life_parallel_deterministic;
        tc "windowed generation GC" `Quick test_life_windowed_gc;
        tc "empty board" `Quick test_life_empty_board;
      ] );
    ( "apps.median",
      [
        tc "below cutoff" `Quick test_median_small;
        tc "one round sequential" `Quick test_median_medium_seq;
        tc "one round parallel" `Quick test_median_medium_par;
        tc "multi-round parallel" `Slow test_median_large_par;
        tc "odd sizes" `Slow test_median_odd_sizes;
        tc "duplicate values" `Quick test_median_duplicates;
      ] );
  ]
