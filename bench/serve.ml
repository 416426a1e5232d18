(* jstar-serve saturation: a real server on a loopback socket, a grid
   of concurrent sessions and connections feeding the sensor stream
   through the binary protocol, measured as end-to-end tuples/s — the
   price of serving (framing, CRC, socket hops, mailbox handoff, WAL)
   over the engine alone.

   Three honesty checks ride along:
   - digest parity: every single-writer session must finish with
     exactly the digests of a standalone durable session fed the same
     schedule — the server adds transport, never semantics;
   - branch + merge: a forked session fed a suffix and merged back
     must land on the standalone oracle's digest for the whole stream;
   - backpressure: a deliberately slow consumer must cap its backlog
     at the feed quota (asserted from the server's metrics registry,
     peak_backlog <= quota and flow_pauses >= 1) rather than buffer
     without bound.

   Writes BENCH_serve.json. *)

open Jstar_core
module Serve = Jstar_serve

let ticks () =
  match !Util.scale with
  | Util.Quick -> 150
  | Util.Default -> 600
  | Util.Paper -> 2_000

let sensors = 16
let drain_every = 10

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

type fingerprint = { gamma : string; outputs : int; out_lanes : int * int }

let fingerprint_of (d : Serve.Protocol.digest_info) =
  {
    gamma = d.Serve.Protocol.d_gamma;
    outputs = d.d_outputs;
    out_lanes = d.d_out_lanes;
  }

(* The standalone oracle: one durable session on this process's heap,
   no server, fed the same schedule. *)
let oracle frozen root ~from ~ticks =
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root "oracle" in
  rm_rf dir;
  let d, _ =
    Jstar_persist.Durable.open_ ~fsync:Jstar_persist.Wal.Never ~dir frozen
      Config.default
  in
  for t = from to from + ticks - 1 do
    Jstar_persist.Durable.feed d (Serve.Demo.batch frozen ~sensors ~t);
    if (t - from + 1) mod drain_every = 0 then
      ignore (Jstar_persist.Durable.drain d)
  done;
  ignore (Jstar_persist.Durable.drain d);
  let session = Jstar_persist.Durable.session d in
  let st = Engine.session_state ~with_outputs:false session in
  let fp =
    {
      gamma = Engine.gamma_digest session;
      outputs = st.Engine.ss_outputs_count;
      out_lanes = Jstar_persist.Durable.output_lanes d;
    }
  in
  ignore (Jstar_persist.Durable.finish d);
  rm_rf dir;
  fp

(* One client thread: feed [ticks] timesteps into [session], draining
   on the oracle's rhythm; returns the final digest fingerprint. *)
let client_run frozen ~port ~session ~from ~ticks =
  let c = Serve.Client.connect ~port frozen in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      ignore (Serve.Client.open_session c session);
      for t = from to from + ticks - 1 do
        ignore (Serve.Client.feed c (Serve.Demo.batch frozen ~sensors ~t));
        if (t - from + 1) mod drain_every = 0 then
          ignore (Serve.Client.drain c)
      done;
      ignore (Serve.Client.drain c);
      fingerprint_of (Serve.Client.digest c))

let start_server ?(feed_quota = 32768) frozen root =
  rm_rf root;
  Serve.Server.start
    {
      (Serve.Server.default_config ~root) with
      Serve.Server.feed_quota;
      idle_timeout = 0.0;
      fsync = Jstar_persist.Wal.Never;
    }
    frozen

(* -- the saturation grid ------------------------------------------------ *)

type cell = {
  c_sessions : int;
  c_conns : int;  (** connections per session *)
  c_tuples : int;
  c_seconds : float;
  c_rate : float;  (** tuples/s end to end *)
  c_parity : bool;  (** digests checked against the standalone oracle *)
}

(* Run every job on its own thread; collect results in order. *)
let concurrently jobs =
  let results = Array.make (List.length jobs) None in
  let threads =
    List.mapi
      (fun i job -> Thread.create (fun () -> results.(i) <- Some (job ())) ())
      jobs
  in
  List.iter Thread.join threads;
  Array.to_list results |> List.map Option.get

(* [sessions] single-writer sessions fed concurrently, or one session
   fed by [conns] connections on disjoint tick ranges (throughput only
   — interleaving across connections is scheduler-chosen, so there is
   no single-session oracle to compare against). *)
let run_cell frozen root ~sessions ~conns ~oracle_fp =
  let n = ticks () in
  let server = start_server frozen root in
  let port = Serve.Server.port server in
  let t0 = Jstar_obs.Monotonic.now_ns () in
  let results =
    if conns = 1 then
      concurrently
        (List.init sessions (fun i () ->
             client_run frozen ~port
               ~session:(Printf.sprintf "bench/s%d" i)
               ~from:0 ~ticks:n))
    else
      let per = n / conns in
      concurrently
        (List.init conns (fun i () ->
             client_run frozen ~port ~session:"bench/shared" ~from:(i * per)
               ~ticks:per))
  in
  let seconds = Jstar_obs.Monotonic.since_s t0 in
  let parity =
    conns = 1 && List.for_all (fun fp -> fp = oracle_fp) results
  in
  if conns = 1 && not parity then
    failwith "serve bench: session digest diverged from the standalone oracle";
  Serve.Server.stop server;
  rm_rf root;
  let tuples = sessions * (conns * (n / conns)) * (sensors + 1) in
  {
    c_sessions = sessions;
    c_conns = conns;
    c_tuples = tuples;
    c_seconds = seconds;
    c_rate = float_of_int tuples /. seconds;
    c_parity = parity;
  }

(* -- branch + merge vs oracle ------------------------------------------- *)

let run_branch_merge frozen root =
  let n = ticks () in
  let half = n / 2 in
  let server = start_server frozen root in
  let port = Serve.Server.port server in
  let c = Serve.Client.connect ~port frozen in
  ignore (Serve.Client.open_session c "bm/main");
  for t = 0 to half - 1 do
    ignore (Serve.Client.feed c (Serve.Demo.batch frozen ~sensors ~t));
    if (t + 1) mod drain_every = 0 then ignore (Serve.Client.drain c)
  done;
  ignore (Serve.Client.drain c);
  ignore (Serve.Client.branch c "bm/side");
  (* feed the suffix into the branch, then merge it back *)
  let c2 = Serve.Client.connect ~port frozen in
  ignore (Serve.Client.open_session c2 "bm/side");
  for t = half to n - 1 do
    ignore (Serve.Client.feed c2 (Serve.Demo.batch frozen ~sensors ~t));
    if (t - half + 1) mod drain_every = 0 then ignore (Serve.Client.drain c2)
  done;
  ignore (Serve.Client.drain c2);
  Serve.Client.close c2;
  ignore (Serve.Client.merge c ~from:"bm/side");
  let merged = fingerprint_of (Serve.Client.digest c) in
  Serve.Client.close c;
  Serve.Server.stop server;
  let want = oracle frozen root ~from:0 ~ticks:n in
  rm_rf root;
  if merged <> want then
    failwith "serve bench: branch+merge diverged from the standalone oracle";
  true

(* -- backpressure -------------------------------------------------------- *)

(* A program whose rule is deliberately slow (0.5 ms per reading), so
   the session worker provably lags a loopback feeder and the quota
   must engage.  The assertions read the server's own metrics registry
   — the same lanes /metrics exports. *)
let slow_program () =
  let p = Program.create () in
  let reading =
    Program.table p "Reading"
      ~columns:Schema.[ int_col "t"; int_col "sensor"; int_col "value" ]
      ~orderby:Schema.[ Lit "Reading"; Seq "t" ]
      ()
  in
  Program.order p [ "Reading" ];
  Program.rule p "slow" ~trigger:reading (fun _ _ -> Unix.sleepf 0.0005);
  Program.freeze p

let run_backpressure root =
  let frozen = slow_program () in
  let quota = 64 in
  let server = start_server ~feed_quota:quota frozen root in
  let port = Serve.Server.port server in
  let reading = frozen.Program.tables.(0) in
  let batch t =
    List.init 16 (fun s ->
        Tuple.make reading [| Value.Int t; Value.Int s; Value.Int 0 |])
  in
  (* Connection A loads 800 slow tuples and drains them: the session
     worker is now provably busy for ~0.4 s (0.5 ms x 800). *)
  let c = Serve.Client.connect ~port frozen in
  ignore (Serve.Client.open_session c "bp/main");
  for t = 0 to 49 do
    ignore (Serve.Client.feed c (batch t))
  done;
  let drainer = Thread.create (fun () -> ignore (Serve.Client.drain c)) () in
  Thread.delay 0.05;
  (* Connection B feeds the same session behind the running drain; its
     batches queue against a stalled worker, so the quota must engage
     within a few round trips. *)
  let c2 = Serve.Client.connect ~port frozen in
  ignore (Serve.Client.open_session c2 "bp/main");
  let fed = ref 0 in
  (try
     for t = 50 to 149 do
       ignore (Serve.Client.feed c2 (batch t));
       incr fed;
       if Serve.Client.pauses c2 > 0 then raise Exit
     done
   with Exit -> ());
  Thread.join drainer;
  ignore (Serve.Client.drain c2);
  let metrics = Serve.Server.metrics server in
  let read name =
    match Jstar_obs.Metrics.read metrics name with
    | Some v -> int_of_float v
    | None -> failwith ("serve bench: metric missing: " ^ name)
  in
  let peak = read "serve.peak_backlog" in
  let pauses = read "serve.flow_pauses" in
  let client_pauses = Serve.Client.pauses c2 in
  Serve.Client.close c2;
  Serve.Client.close c;
  Serve.Server.stop server;
  rm_rf root;
  if peak > quota then
    failwith
      (Printf.sprintf
         "serve bench: backlog exceeded the quota (peak %d > %d)" peak quota);
  if pauses < 1 then
    failwith "serve bench: slow consumer never triggered a Flow pause";
  (quota, peak, pauses, client_pauses)

(* -- driver -------------------------------------------------------------- *)

let grid () =
  match !Util.scale with
  | Util.Quick -> [ (1, 1); (2, 1); (4, 1); (1, 2) ]
  | Util.Default | Util.Paper ->
      [ (1, 1); (2, 1); (4, 1); (8, 1); (1, 2); (1, 4) ]

let run () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "jstar-bench-serve-%d" (Unix.getpid ()))
  in
  let frozen = Serve.Demo.sensor_program () in
  let n = ticks () in
  let oracle_fp = oracle frozen root ~from:0 ~ticks:n in
  let cells =
    List.map
      (fun (sessions, conns) ->
        run_cell frozen root ~sessions ~conns ~oracle_fp)
      (grid ())
  in
  let bm_ok = run_branch_merge frozen root in
  let bp_quota, bp_peak, bp_pauses, bp_client_pauses = run_backpressure root in
  Util.heading
    (Printf.sprintf
       "jstar-serve saturation (%d ticks x %d readings per session, drain \
        every %d)"
       n sensors drain_every);
  List.iter
    (fun c ->
      Util.note
        "%d session(s) x %d conn(s): %d tuples in %.3fs = %.0f tuples/s%s"
        c.c_sessions c.c_conns c.c_tuples c.c_seconds c.c_rate
        (if c.c_parity then " [digests = oracle]" else ""))
    cells;
  Util.note "branch + merge reproduces the standalone oracle digest: %b" bm_ok;
  Util.note
    "backpressure: peak backlog %d <= quota %d, %d server pauses (%d seen by \
     client)"
    bp_peak bp_quota bp_pauses bp_client_pauses;
  let json =
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf
         "{\n  \"bench\": \"serve\",\n  \"meta\": %s,\n  \"ticks\": %d,\n\
         \  \"sensors\": %d,\n  \"drain_every\": %d,\n  \"grid\": [\n"
         (Util.meta_json ()) n sensors drain_every);
    List.iteri
      (fun i c ->
        Buffer.add_string b
          (Printf.sprintf
             "    {\"sessions\": %d, \"connections\": %d, \"tuples\": %d, \
              \"seconds\": %.6f, \"tuples_per_s\": %.0f, \"oracle_parity\": \
              %s}%s\n"
             c.c_sessions c.c_conns c.c_tuples c.c_seconds c.c_rate
             (* multi-connection cells have no single-session oracle:
                null, not false *)
             (if c.c_conns = 1 then string_of_bool c.c_parity else "null")
             (if i = List.length cells - 1 then "" else ",")))
      cells;
    let best_rate =
      List.fold_left (fun acc c -> Float.max acc c.c_rate) 0.0 cells
    in
    Buffer.add_string b
      (Printf.sprintf
         "  ],\n  \"tuples_per_s_best\": %.0f,\n\
         \  \"branch_merge_oracle_parity\": %b,\n\
         \  \"backpressure\": {\"quota\": %d, \"peak_backlog\": %d, \
          \"flow_pauses\": %d}\n}\n"
         best_rate bm_ok bp_quota bp_peak bp_pauses);
    Buffer.contents b
  in
  print_string json;
  let oc = open_out "BENCH_serve.json" in
  output_string oc json;
  close_out oc;
  Util.note "JSON written to BENCH_serve.json"
