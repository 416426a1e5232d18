(* Shared-nothing sharded execution on a put-heavy scatter workload:
   breadth-first waves where every firing puts [fanout] tuples whose
   mixed hashes land on arbitrary shards — the contention shape
   sharding targets.  There are no joins and no aggregates, so the
   run prices exactly what the mode changes: put routing, mailbox
   post/drain, and the per-shard Delta against the striped shared
   Delta.

   Graph: [seeds] roots, each firing derives [fanout] children by a
   multiplicative hash into a [universe]-sized id space for [rounds]
   waves; collisions make later waves duplicate-heavy, pricing the
   dedup path on both sides.  All tuples share one literal timestamp,
   so each wave is one wide class.

   Runs the full shards x threads grid, asserts the determinism
   digests are byte-identical on every point (the acceptance gate for
   the mode), reports wall times and the cross-shard message counters
   from /metrics, and writes BENCH_shards.json. *)

open Jstar_core

let rounds = 6

let params () =
  match !Util.scale with
  | Util.Quick -> (64, 4, 20_000) (* seeds, fanout, universe *)
  | Util.Default | Util.Paper -> (128, 8, 100_000)

let shard_counts = [ 0; 1; 2; 4; 8 ]

let build () =
  let seeds, fanout, universe = params () in
  let p = Program.create () in
  let node =
    Program.table p "Node"
      ~columns:Schema.[ int_col "x"; int_col "r" ]
      ~orderby:Schema.[ Lit "Node" ]
      ()
  in
  Program.order p [ "Node" ];
  Program.rule p "scatter" ~trigger:node (fun ctx t ->
      let x = Tuple.get t 0 |> Value.to_int
      and r = Tuple.get t 1 |> Value.to_int in
      if r < rounds then
        for j = 0 to fanout - 1 do
          (* multiplicative mix: children of one trigger spread across
             the id space (and therefore across shard owners) *)
          let y = abs ((x * 1103515245) + (j * 2654435761) + 12345) mod universe in
          ctx.Rule.put (Tuple.make node [| Value.Int y; Value.Int (r + 1) |])
        done);
  let init =
    List.init seeds (fun i ->
        Tuple.make node [| Value.Int (i * (universe / seeds)); Value.Int 0 |])
  in
  (p, init)

let config_of ~shards ~threads =
  let base =
    if threads = 1 then Config.default else Config.parallel ~threads ()
  in
  {
    base with
    Config.shards;
    agg_cache = false;
    advisor = None;
    digest = true;
  }

let counter_of metrics name =
  List.fold_left
    (fun acc row ->
      if row.Jstar_obs.Metrics.name = name then
        List.fold_left
          (fun a (_, v) ->
            match v with
            | Jstar_obs.Metrics.Int n -> a + n
            | Jstar_obs.Metrics.Float f -> a + int_of_float f)
          acc row.Jstar_obs.Metrics.fields
      else acc)
    0
    (Jstar_obs.Metrics.snapshot metrics)

type point = {
  pt_shards : int;
  pt_threads : int;
  pt_seconds : float;
  pt_tuples : int;
  pt_msgs_posted : int;
  pt_msgs_cross : int;
  pt_tuples_shipped : int;
  pt_tuples_cross : int;
}

let digest3 r =
  match r.Engine.digest with
  | Some d -> (d.Engine.d_gamma, d.Engine.d_classes, d.Engine.d_tables)
  | None -> failwith "shards: digest missing"

let run () =
  let seeds, fanout, universe = params () in
  Util.heading
    (Printf.sprintf
       "Sharded execution: scatter waves, %d seeds x %d fanout x %d rounds \
        (universe %d)"
       seeds fanout rounds universe);
  let reference = ref None in
  let run_point ~shards ~threads =
    let p, init = build () in
    let t0 = Unix.gettimeofday () in
    let r = Engine.run_program ~init p (config_of ~shards ~threads) in
    let t = Unix.gettimeofday () -. t0 in
    (* the acceptance gate: every grid point must reproduce the
       unsharded single-thread digests bit-for-bit *)
    (match !reference with
    | None -> reference := Some (digest3 r)
    | Some d ->
        if digest3 r <> d then
          failwith
            (Printf.sprintf
               "shards: digests diverge at shards=%d threads=%d" shards
               threads));
    {
      pt_shards = shards;
      pt_threads = threads;
      pt_seconds = t;
      pt_tuples = r.Engine.tuples_processed;
      pt_msgs_posted = counter_of r.Engine.metrics "shard.msgs_posted";
      pt_msgs_cross = counter_of r.Engine.metrics "shard.msgs_cross";
      pt_tuples_shipped = counter_of r.Engine.metrics "shard.tuples_shipped";
      pt_tuples_cross = counter_of r.Engine.metrics "shard.tuples_cross";
    }
  in
  let grid =
    List.concat_map
      (fun threads ->
        List.map (fun shards -> run_point ~shards ~threads) shard_counts)
      Util.thread_counts
  in
  Util.note "digests identical across all %d grid points"
    (List.length grid);
  List.iter
    (fun pt ->
      Util.note
        "shards=%d threads=%d: %.3fs (%d tuples, %d msgs posted, %d cross, \
         %d tuples shipped, %d cross)"
        pt.pt_shards pt.pt_threads pt.pt_seconds pt.pt_tuples
        pt.pt_msgs_posted pt.pt_msgs_cross pt.pt_tuples_shipped
        pt.pt_tuples_cross)
    grid;
  (* headline: best sharded vs unsharded at the widest thread count *)
  let widest = List.fold_left max 1 Util.thread_counts in
  let at_widest = List.filter (fun pt -> pt.pt_threads = widest) grid in
  let unsharded =
    List.find (fun pt -> pt.pt_shards = 0) at_widest
  in
  let best_sharded =
    List.fold_left
      (fun acc pt ->
        if pt.pt_shards > 0 && pt.pt_seconds < acc.pt_seconds then pt else acc)
      (List.find (fun pt -> pt.pt_shards > 0) at_widest)
      at_widest
  in
  let ratio = unsharded.pt_seconds /. best_sharded.pt_seconds in
  Util.bar_chart ~title:"wall time at widest thread count" ~unit:"s"
    [
      ("unsharded", unsharded.pt_seconds);
      ( Printf.sprintf "%d shards" best_sharded.pt_shards,
        best_sharded.pt_seconds );
    ];
  Util.note "best sharded vs unsharded at %d threads: %.2fx" widest ratio;
  let json =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n";
    Buffer.add_string b "  \"bench\": \"shards\",\n";
    Buffer.add_string b
      (Printf.sprintf "  \"meta\": %s,\n" (Util.meta_json ()));
    Buffer.add_string b
      (Printf.sprintf
         "  \"seeds\": %d,\n  \"fanout\": %d,\n  \"rounds\": %d,\n\
         \  \"universe\": %d,\n"
         seeds fanout rounds universe);
    Buffer.add_string b "  \"digests_identical\": true,\n";
    Buffer.add_string b "  \"grid\": [\n";
    List.iteri
      (fun i pt ->
        Buffer.add_string b
          (Printf.sprintf
             "    {\"shards\": %d, \"threads\": %d, \"seconds\": %.6f, \
              \"tuples\": %d, \"msgs_posted\": %d, \"msgs_cross\": %d, \
              \"tuples_shipped\": %d, \"tuples_cross\": %d}%s\n"
             pt.pt_shards pt.pt_threads pt.pt_seconds pt.pt_tuples
             pt.pt_msgs_posted pt.pt_msgs_cross pt.pt_tuples_shipped
             pt.pt_tuples_cross
             (if i = List.length grid - 1 then "" else ",")))
      grid;
    Buffer.add_string b "  ],\n";
    Buffer.add_string b
      (Printf.sprintf "  \"widest_threads\": %d,\n" widest);
    Buffer.add_string b
      (Printf.sprintf "  \"unsharded_seconds\": %.6f,\n"
         unsharded.pt_seconds);
    Buffer.add_string b
      (Printf.sprintf "  \"best_sharded_shards\": %d,\n"
         best_sharded.pt_shards);
    Buffer.add_string b
      (Printf.sprintf "  \"best_sharded_seconds\": %.6f,\n"
         best_sharded.pt_seconds);
    Buffer.add_string b
      (Printf.sprintf "  \"speedup_sharded_vs_unsharded\": %.4f\n" ratio);
    Buffer.add_string b "}\n";
    Buffer.contents b
  in
  print_string json;
  let oc = open_out "BENCH_shards.json" in
  output_string oc json;
  close_out oc;
  Util.note "JSON written to BENCH_shards.json"
