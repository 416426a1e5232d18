(* Durability cost: what the write-ahead log adds to a feed/drain
   session under each fsync policy, and how long recovery takes from
   (a) pure WAL replay and (b) a snapshot plus a short WAL suffix.

   The workload is the CLI's sensor-stream shape — small feed batches,
   one drain per tick, a cheap per-tuple rule — so the timings isolate
   the persistence layer (codec + CRC + write + fsync) rather than rule
   work.  Writes BENCH_persist.json. *)

open Jstar_core
open Jstar_persist

let ticks () =
  match !Util.scale with
  | Util.Quick -> 300
  | Util.Default -> 1_500
  | Util.Paper -> 8_000

let sensors = 16
let config = { Config.default with Config.digest = true }

let build () =
  let p = Program.create () in
  let reading =
    Program.table p "Reading"
      ~columns:Schema.[ int_col "t"; int_col "sensor"; int_col "value" ]
      ~orderby:Schema.[ Lit "Reading"; Seq "t" ]
      ()
  in
  let alarm =
    Program.table p "Alarm"
      ~columns:Schema.[ int_col "t"; int_col "sensor"; int_col "value" ]
      ~orderby:Schema.[ Lit "Alarm"; Seq "t" ]
      ()
  in
  Program.order p [ "Reading"; "Alarm" ];
  Program.rule p "alarm" ~trigger:reading (fun ctx r ->
      if Tuple.int r "value" >= 90 then
        ctx.Rule.put
          (Tuple.make alarm [| Tuple.get r 0; Tuple.get r 1; Tuple.get r 2 |]));
  Program.output p alarm (fun t ->
      Printf.sprintf "alarm %d %d %d" (Tuple.int t "t") (Tuple.int t "sensor")
        (Tuple.int t "value"));
  (p, reading)

let batch reading t =
  List.init sensors (fun s ->
      Tuple.make reading
        [| Value.Int t; Value.Int s; Value.Int (((t * 31) + (s * 17)) mod 100) |])

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* One full session through the plain engine: the baseline. *)
let run_plain n =
  let p, reading = build () in
  let t0 = Jstar_obs.Monotonic.now_ns () in
  let s = Engine.start (Program.freeze p) config in
  for t = 0 to n - 1 do
    Engine.feed s (batch reading t);
    ignore (Engine.drain s)
  done;
  let r = Engine.finish s in
  (r, Jstar_obs.Monotonic.since_s t0)

(* The same schedule through Durable; the directory is left behind so
   recovery can be timed against it. *)
let run_durable ?(checkpoint_every = 0) ~fsync n dir =
  rm_rf dir;
  let p, reading = build () in
  let t0 = Jstar_obs.Monotonic.now_ns () in
  let d, _ = Durable.open_ ~checkpoint_every ~fsync ~dir (Program.freeze p) config in
  for t = 0 to n - 1 do
    Durable.feed d (batch reading t);
    ignore (Durable.drain d)
  done;
  let r = Durable.finish d in
  (r, Jstar_obs.Monotonic.since_s t0)

let time_recovery dir =
  let p, _ = build () in
  let t0 = Jstar_obs.Monotonic.now_ns () in
  let d, status = Durable.open_ ~dir (Program.freeze p) config in
  let dt = Jstar_obs.Monotonic.since_s t0 in
  let feeds, drains =
    match status with
    | Durable.Restored r -> (r.Durable.r_feeds, r.Durable.r_drains)
    | Durable.Fresh -> failwith "persist bench: nothing to recover"
  in
  ignore (Durable.finish d);
  (dt, feeds, drains)

type policy = { label : string; fsync : Wal.fsync_policy }

let policies =
  [
    { label = "fsync-never"; fsync = Wal.Never };
    { label = "fsync-every-64"; fsync = Wal.Every 64 };
    { label = "fsync-always"; fsync = Wal.Always };
  ]

let rounds = 3

let run () =
  let n = ticks () in
  let tuples = n * sensors in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "jstar-bench-persist-%d" (Unix.getpid ()))
  in
  rm_rf root;
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let digest3 r =
    match r.Engine.digest with
    | Some d -> (d.Engine.d_gamma, d.Engine.d_classes, d.Engine.d_outputs)
    | None -> failwith "persist bench: digest missing"
  in
  (* Warmup doubling as the invariance check: the WAL must not change
     what the program computes or prints. *)
  let base_r, _ = run_plain n in
  List.iter
    (fun pol ->
      let r, _ =
        run_durable ~fsync:pol.fsync n (Filename.concat root pol.label)
      in
      if digest3 r <> digest3 base_r then
        failwith ("persist bench: digests diverge under " ^ pol.label))
    policies;
  (* Interleaved rounds, best-of-N (as in Hotpath). *)
  let best = Hashtbl.create 8 in
  let note label t =
    match Hashtbl.find_opt best label with
    | Some t' when t' <= t -> ()
    | _ -> Hashtbl.replace best label t
  in
  for _ = 1 to rounds do
    let _, t = run_plain n in
    note "baseline" t;
    List.iter
      (fun pol ->
        let _, t =
          run_durable ~fsync:pol.fsync n (Filename.concat root pol.label)
        in
        note pol.label t)
      policies
  done;
  let t_base = Hashtbl.find best "baseline" in
  let rows =
    List.map
      (fun pol ->
        let t = Hashtbl.find best pol.label in
        let over = (t -. t_base) /. float_of_int tuples *. 1e6 in
        (pol, t, over))
      policies
  in
  (* Recovery: replay the fsync-every-64 directory (whole history in
     the WAL), then a checkpointed directory (snapshot + short WAL
     suffix — the last tenth of the schedule). *)
  let wal_dir = Filename.concat root "fsync-every-64" in
  let rec_wal, wal_feeds, wal_drains = time_recovery wal_dir in
  let ck_dir = Filename.concat root "checkpointed" in
  (* +1 keeps the interval off n's divisors, so a genuine WAL suffix
     survives past the last checkpoint. *)
  let every = max 2 ((n / 10) + 1) in
  ignore (run_durable ~checkpoint_every:every ~fsync:(Wal.Every 64) n ck_dir);
  let rec_ck, ck_feeds, ck_drains = time_recovery ck_dir in
  Util.heading
    (Printf.sprintf "Durability cost (%d ticks x %d readings = %d tuples)" n
       sensors tuples);
  Util.bar_chart ~title:"session wall time per fsync policy" ~unit:"s"
    (("baseline", t_base)
    :: List.map (fun (pol, t, _) -> (pol.label, t)) rows);
  List.iter
    (fun (pol, t, over) ->
      Util.note "%s: %+.1f%% vs baseline, %.2f us/tuple WAL overhead"
        pol.label
        ((t /. t_base -. 1.0) *. 100.0)
        over)
    rows;
  Util.note "recovery, WAL replay: %.3fs (%d feeds, %d drains)" rec_wal
    wal_feeds wal_drains;
  Util.note
    "recovery, snapshot + suffix (checkpoint every %d drains): %.3fs (%d \
     feeds, %d drains replayed)"
    every rec_ck ck_feeds ck_drains;
  let json =
    let b = Buffer.create 512 in
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"bench\": \"persist\",\n  \"meta\": %s,\n  \"ticks\": %d,\n\
         \  \"batch\": %d,\n  \"tuples\": %d,\n\
         \  \"baseline_seconds\": %.6f,\n"
         (Util.meta_json ()) n sensors tuples t_base);
    Buffer.add_string b "  \"policies\": [\n";
    List.iteri
      (fun i (pol, t, over) ->
        Buffer.add_string b
          (Printf.sprintf
             "    {\"label\": \"%s\", \"seconds\": %.6f, \"overhead_pct\": \
              %.2f, \"wal_us_per_tuple\": %.3f}%s\n"
             pol.label t
             ((t /. t_base -. 1.0) *. 100.0)
             over
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string b "  ],\n  \"recovery\": [\n";
    Buffer.add_string b
      (Printf.sprintf
         "    {\"label\": \"wal-replay\", \"seconds\": %.6f, \"feeds\": %d, \
          \"drains\": %d},\n"
         rec_wal wal_feeds wal_drains);
    Buffer.add_string b
      (Printf.sprintf
         "    {\"label\": \"snapshot\", \"checkpoint_every\": %d, \
          \"seconds\": %.6f, \"feeds\": %d, \"drains\": %d}\n"
         every rec_ck ck_feeds ck_drains);
    Buffer.add_string b "  ]\n}\n";
    Buffer.contents b
  in
  print_string json;
  let oc = open_out "BENCH_persist.json" in
  output_string oc json;
  close_out oc;
  rm_rf root;
  Util.note "JSON written to BENCH_persist.json"
