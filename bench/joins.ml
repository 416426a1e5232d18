(* Chunked rule firing on a join-heavy workload: transitive closure
   over a layered-cluster graph, the relational-algebra shape Phase B
   fires as (rule, table) chunks.

   Graph: C disjoint clusters, each d layers of m nodes with complete
   bipartite edges between adjacent layers — m^2 * (d-1) edges per
   cluster, ~10^6 edges at default scale.  Closure runs in BFS waves
   (all Path tuples share one literal timestamp, so each wave is one
   wide class): wave k joins every Path(x, y) against Edge(y, z) via a
   hash-indexed prefix probe on y.  The fan-in of the cluster shape
   makes most derived puts duplicates, so the workload prices exactly
   what chunk width touches: probe locality (the sorted chunk turns
   runs of equal-y probes into one cursor hit), Gamma dedup prechecks,
   and scratch-arena put sinking.

   Reports wall time at 4 threads for both ends of the grain range —
   [Auto_grain] chunks and the §5.2 [Fixed 1] one task per (tuple,
   rule) — asserts the determinism digests are byte-identical between
   them, and writes BENCH_joins.json. *)

open Jstar_core

let layers = 4
let width = 32

(* clusters scaled so edge count lands near the target *)
let clusters () =
  let edges_per_cluster = width * width * (layers - 1) in
  let target =
    match !Util.scale with
    | Util.Quick -> 20_000
    | Util.Default | Util.Paper -> 1_000_000
  in
  target / edges_per_cluster

let threads =
  match Sys.getenv_opt "JOINS_THREADS" with
  | Some s -> int_of_string s
  | None -> 4

let build () =
  let c = clusters () in
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
  Program.rule p "step" ~trigger:path
    ~reads:[ Spec.read ~prefix:[ Spec.Field "b" ] "Edge" ]
    (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      Query.iter ctx edge ~prefix:[| Value.Int y |] (fun e ->
          ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
  (* node id: cluster * (layers * width) + layer * width + slot *)
  let node cl l s = Value.Int ((((cl * layers) + l) * width) + s) in
  let init = ref [] in
  for cl = c - 1 downto 0 do
    for l = layers - 2 downto 0 do
      for a = width - 1 downto 0 do
        for b = width - 1 downto 0 do
          init := Tuple.make edge [| node cl l a; node cl (l + 1) b |] :: !init
        done
      done
    done
  done;
  (p, edge, path, !init)

let config_of ~auto =
  {
    (Config.parallel ~threads ()) with
    Config.stores =
      [ ("Edge", Store.Hash_index 1); ("Path", Store.Hash_index 2) ];
    grain = (if auto then Config.Auto_grain else Config.Fixed 1);
    digest = true;
  }

(* The warmup/digest pass already runs both modes once, so one timed
   round per mode keeps the default scale inside CI-friendly minutes;
   the quick scale is cheap enough for best-of-2. *)
let rounds () = match !Util.scale with Util.Quick -> 2 | _ -> 1

let run () =
  let c = clusters () in
  let n_edges = c * width * width * (layers - 1) in
  Util.heading
    (Printf.sprintf
       "Chunked joins: transitive closure, %d edges (%d clusters), %d threads"
       n_edges c threads);
  let run_once ~auto =
    let p, _edge, _path, init = build () in
    let t0 = Unix.gettimeofday () in
    let r = Engine.run_program ~init p (config_of ~auto) in
    let t = Unix.gettimeofday () -. t0 in
    (match Sys.getenv_opt "JOINS_DEBUG" with
    | Some _ ->
        Printf.printf
          "DEBUG auto_grain=%b: tuples=%d steps=%d dins=%d ddup=%d \
           extract=%.3f gamma=%.3f rules=%.3f t=%.3f\n%!"
          auto r.Engine.tuples_processed r.Engine.steps
          r.Engine.delta_inserted r.Engine.delta_deduped
          r.Engine.phases.Engine.t_extract r.Engine.phases.Engine.t_gamma
          r.Engine.phases.Engine.t_rules t
    | None -> ());
    (r, t)
  in
  (* Warmup pass + the acceptance check: both grains must produce
     byte-identical determinism digests. *)
  let digest3 r =
    match r.Engine.digest with
    | Some d -> (d.Engine.d_gamma, d.Engine.d_classes, d.Engine.d_tables)
    | None -> failwith "joins: digest missing"
  in
  let r_ref, t_ref = run_once ~auto:false in
  let r_auto, t_a = run_once ~auto:true in
  if digest3 r_ref <> digest3 r_auto then
    failwith "joins: Auto_grain and Fixed 1 digests diverge";
  Util.note "digests identical across grains (%d tuples, %d steps)"
    r_ref.Engine.tuples_processed r_ref.Engine.steps;
  (* Interleaved best-of-N rounds; the digest pass above is a full
     identical run of each grain, so its times join the pool. *)
  let best_fixed = ref t_ref and best_auto = ref t_a in
  for _ = 1 to rounds () do
    let _, t = run_once ~auto:false in
    if t < !best_fixed then best_fixed := t;
    let _, t = run_once ~auto:true in
    if t < !best_auto then best_auto := t
  done;
  let ratio = !best_fixed /. !best_auto in
  Util.bar_chart ~title:"wall time per grain" ~unit:"s"
    [ ("Fixed 1", !best_fixed); ("Auto_grain", !best_auto) ];
  Util.note "Auto_grain vs Fixed 1: %.2fx" ratio;
  let json =
    let b = Buffer.create 512 in
    Buffer.add_string b "{\n";
    Buffer.add_string b "  \"bench\": \"joins\",\n";
    Buffer.add_string b
      (Printf.sprintf "  \"meta\": %s,\n" (Util.meta_json ()));
    Buffer.add_string b
      (Printf.sprintf
         "  \"edges\": %d,\n  \"clusters\": %d,\n  \"layers\": %d,\n\
         \  \"width\": %d,\n  \"threads\": %d,\n"
         n_edges c layers width threads);
    Buffer.add_string b
      (Printf.sprintf "  \"tuples_processed\": %d,\n"
         r_ref.Engine.tuples_processed);
    Buffer.add_string b
      (Printf.sprintf "  \"digests_identical\": true,\n");
    Buffer.add_string b
      (Printf.sprintf "  \"fixed_grain_seconds\": %.6f,\n" !best_fixed);
    Buffer.add_string b
      (Printf.sprintf "  \"auto_grain_seconds\": %.6f,\n" !best_auto);
    Buffer.add_string b
      (Printf.sprintf "  \"speedup_auto_vs_fixed_grain\": %.4f\n" ratio);
    Buffer.add_string b "}\n";
    Buffer.contents b
  in
  print_string json;
  let oc = open_out "BENCH_joins.json" in
  output_string oc json;
  close_out oc;
  Util.note "JSON written to BENCH_joins.json"
