(* serve_sessions: the real jstar-serve binary as a child process with
   its defaults (1 engine thread per session, --fsync 5ms,
   --checkpoint-every 256); only the port (0) and a fresh root are
   overridden.  Two client connections from this process, each the only
   writer of its own session, run a closed loop: one Feed frame per tick
   (a Tick plus 16 seeded Readings), a Drain after every 10 ticks.  The
   round ends with SIGKILL, a restart and both sessions reopened.

   Checks, all engine-free: every Drained frame's alarm lines equal the
   readings at >= 90 of its window; each session's Digest after recovery
   equals its Digest before the kill, and counts every alarm fed.

   The traced run replays the same inputs down a ladder of rungs —
   Engine, Durable, Session, then the binary over loopback — so each
   layer's self time is the difference of adjacent rungs, and what the
   rungs leave unexplained is printed as the residual. *)

open Jstar_core
open Util
module Client = Jstar_serve.Client
module Protocol = Jstar_serve.Protocol
module Session = Jstar_serve.Session
module Demo = Jstar_serve.Demo
module Durable = Jstar_persist.Durable
module Wal = Jstar_persist.Wal

let sessions = 2
let ticks = 3000
let sensors = 16
let drain_every = 10
let windows = ticks / drain_every

(* The binary's defaults, mirrored by the in-process rungs. *)
let fsync = Wal.Every_ms 5
let checkpoint_every = 256
let feed_quota = 32768

(* -- inputs ---------------------------------------------------------------- *)

type input = {
  batches : Tuple.t list array;  (** one feed frame per tick *)
  expected : string list array;  (** sorted alarm lines per window *)
  alarms : int;
}

let generate frozen ~seed ~session =
  let rng = Random.State.make [| seed; session; 0x73657276 |] in
  let table name = Program.find_table frozen.Program.program name in
  let tick = table "Tick" and reading = table "Reading" in
  let expected = Array.make windows [] and alarms = ref 0 in
  let batches =
    Array.init ticks (fun t ->
        Tuple.make tick [| Value.Int t |]
        :: List.init sensors (fun s ->
               let v = Random.State.int rng 100 in
               if v >= 90 then begin
                 incr alarms;
                 let w = t / drain_every in
                 expected.(w) <-
                   Printf.sprintf "alarm t=%d sensor=%d value=%d" t s v
                   :: expected.(w)
               end;
               Tuple.make reading [| Value.Int t; Value.Int s; Value.Int v |]))
  in
  { batches; expected = Array.map (List.sort compare) expected; alarms = !alarms }

let window_ok input w lines = List.sort compare lines = input.expected.(w)

let describe inputs =
  let tuples = ticks * (sensors + 1) in
  let alarms = Array.fold_left (fun a i -> a + i.alarms) 0 inputs in
  note
    "input: %d sessions x %d ticks = %d tuples per session (%d windows); \
     alarms %.2f%% of readings; final Gamma %d tuples per session (mean)"
    sessions ticks tuples windows
    (100. *. float_of_int alarms /. float_of_int (sessions * ticks * sensors))
    (tuples + (alarms / sessions))

(* -- the child ------------------------------------------------------------- *)

type child = { pid : int; out : Unix.file_descr; port : int }

let live : int list ref = ref []
let live_m = Mutex.create ()

let kill_child pid =
  Mutex.lock live_m;
  let mine = List.mem pid !live in
  live := List.filter (( <> ) pid) !live;
  Mutex.unlock live_m;
  if mine then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  end

let kill_all () = List.iter kill_child !live

(* Read the advertised port from the child's first stdout line. *)
let read_port fd ~limit =
  let t_end = now_ns () + int_of_float (limit *. 1e9) in
  let buf = Buffer.create 128 and chunk = Bytes.create 256 in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> (
        let line = Buffer.sub buf 0 i in
        try Scanf.sscanf line "jstar-serve: listening on %_[^:]:%d" Fun.id
        with _ -> failwith ("unexpected jstar-serve banner: " ^ line))
    | None ->
        let left = float_of_int (t_end - now_ns ()) *. 1e-9 in
        if left <= 0. then raise (Deadline "port advertisement");
        (match Unix.select [ fd ] [] [] left with
        | [], _, _ -> ()
        | _ ->
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n = 0 then failwith "jstar-serve exited before listening";
            Buffer.add_subbytes buf chunk 0 n);
        go ()
  in
  go ()

let spawn ~bin ~root =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process bin
      [| bin; "serve"; "--port"; "0"; "--root"; root |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  Mutex.lock live_m;
  live := pid :: !live;
  Mutex.unlock live_m;
  match read_port r ~limit:20. with
  | port -> { pid; out = r; port }
  | exception e ->
      kill_child pid;
      Unix.close r;
      raise e

let stop child =
  kill_child child.pid;
  try Unix.close child.out with Unix.Unix_error _ -> ()

(* -- one binary round ------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let fail tally fmt =
  Printf.ksprintf
    (fun s ->
      tally.failed <- tally.failed + 1;
      note "failed: %s" s)
    fmt

type round = {
  setup : float;
  wall : float;
  recover : float;
  rss_mb : float;
  server_cpu : float;
  drains_ms : float list;
  pauses : int;
  killed_dir : string option;  (** copy of session 0's directory at the kill *)
}

let name i = Printf.sprintf "bench/s%d" i

let expect_prefix tally what prefix s =
  tally.attempted <- tally.attempted + 1;
  if not (String.length s >= String.length prefix
          && String.sub s 0 (String.length prefix) = prefix)
  then fail tally "%s answered %S, expected %s..." what s prefix

(* One session's closed loop; returns drain latencies (ms) and its
   digest.  Every exception is the caller's to count. *)
let client_loop tally tm c input ~rung =
  let lat = ref [] in
  for t = 0 to ticks - 1 do
    let w = t / drain_every in
    ignore
      (span ~parent:rung ~window:w "Client.feed" (fun () ->
           Client.feed c input.batches.(t)));
    Mutex.lock tm;
    tally.attempted <- tally.attempted + 1;
    Mutex.unlock tm;
    if (t + 1) mod drain_every = 0 then begin
      let (lines, _), s =
        span ~parent:rung ~window:w "Client.drain" (fun () -> Client.drain c)
      in
      lat := (s *. 1e3) :: !lat;
      Mutex.lock tm;
      tally.attempted <- tally.attempted + 1;
      if not (window_ok input w lines) then
        fail tally "window %d: drained alarm lines differ from the readings" w;
      Mutex.unlock tm
    end
  done;
  !lat

let round ~bin ~tmp ~wd ~tally ~keep_killed inputs =
  let root = Filename.concat tmp "serve-root" in
  rm_rf root;
  (* children not yet stopped: each is stopped (and its pipe closed)
     exactly once, here or on the way out *)
  let children = ref [] in
  let stop_child c =
    children := List.filter (fun x -> x.pid <> c.pid) !children;
    stop c
  in
  let cleanup () =
    List.iter stop !children;
    rm_rf root
  in
  Fun.protect ~finally:cleanup (fun () ->
      let frozen = Demo.sensor_program () in
      let start_child () =
        let c = spawn ~bin ~root in
        children := c :: !children;
        wd.on_expire <- (fun () -> kill_child c.pid);
        c
      in
      let connect_all child status =
        Array.init sessions (fun i ->
            let c = Client.connect ~port:child.port frozen in
            expect_prefix tally "Open" status (Client.open_session c (name i));
            c)
      in
      (* set-up: spawn, port, handshakes, both sessions open and fresh *)
      let (child, clients), setup =
        timed (fun () ->
            phase wd "set-up" ~limit:30. (fun () ->
                let child = start_child () in
                (child, connect_all child "fresh")))
      in
      let rung = open_span "rung.binary" in
      let cpu0 = proc_cpu_s child.pid in
      let t1 = now_ns () in
      let tm = Mutex.create () in
      let lat =
        phase wd "feed/drain" ~limit:60. (fun () ->
            let results = Array.make sessions (Error Exit) in
            let threads =
              Array.init sessions (fun i ->
                  Thread.create
                    (fun () ->
                      results.(i) <-
                        (try
                           Ok
                             (client_loop tally tm clients.(i) inputs.(i)
                                ~rung:(fst rung))
                         with e -> Error e))
                    ())
            in
            Array.iter Thread.join threads;
            Array.to_list results
            |> List.concat_map (function Ok l -> l | Error e -> raise e))
      in
      let wall = since_s t1 in
      ignore (close_span rung);
      let server_cpu = proc_cpu_s child.pid -. cpu0 in
      let before =
        Array.map
          (fun c ->
            tally.attempted <- tally.attempted + 1;
            Client.digest c)
          clients
      in
      let pauses = Array.fold_left (fun a c -> a + Client.pauses c) 0 clients in
      let rss_mb = peak_rss_mb (string_of_int child.pid) in
      Array.iter Client.close clients;
      stop_child child;
      let killed_dir =
        if keep_killed then begin
          let copy = Filename.concat tmp "killed-s0" in
          rm_rf copy;
          copy_tree (Filename.concat root (name 0)) copy;
          Some copy
        end
        else None
      in
      (* recovery: restart until both sessions answer Open with restored *)
      let (child2, clients2), recover =
        timed (fun () ->
            phase wd "recovery" ~limit:30. (fun () ->
                let child = start_child () in
                (child, connect_all child "restored")))
      in
      Array.iteri
        (fun i c ->
          tally.attempted <- tally.attempted + 1;
          let d = Client.digest c in
          if d <> before.(i) then
            fail tally "%s: digest after recovery differs from before the kill"
              (name i);
          if d.Protocol.d_outputs <> inputs.(i).alarms then
            fail tally "%s: %d output lines recorded, %d alarms fed" (name i)
              d.Protocol.d_outputs inputs.(i).alarms)
        clients2;
      Array.iter Client.close clients2;
      stop_child child2;
      {
        setup;
        wall;
        recover;
        rss_mb;
        server_cpu;
        drains_ms = lat;
        pauses;
        killed_dir;
      })

let guarded_round ~tally f =
  try Some (f ())
  with e ->
    (* the operation that raised *)
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    note "round failed: %s"
      (match e with
      | Deadline p -> Printf.sprintf "phase %S missed its deadline" p
      | Client.Server_error (code, msg) ->
          Printf.sprintf "Err frame %d: %s" code msg
      | e -> Printf.sprintf "dropped or failed: %s" (Printexc.to_string e));
    None

let inputs_for ~seed =
  let frozen = Demo.sensor_program () in
  Array.init sessions (fun session -> generate frozen ~seed ~session)

let run_e2e ~bin ~tmp ~seed ~seconds =
  let inputs = inputs_for ~seed in
  describe inputs;
  let wd = watchdog () in
  let tally = { attempted = 0; failed = 0 } in
  let go () =
    guarded_round ~tally (fun () ->
        round ~bin ~tmp ~wd ~tally ~keep_killed:false inputs)
  in
  (* a warm-up round: checked like the others, not timed *)
  ignore (go ());
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  let rounds = ref [] in
  while (List.length !rounds < 2 || now_ns () < t_end) && tally.failed = 0 do
    Option.iter (fun r -> rounds := r :: !rounds) (go ())
  done;
  wd.stop <- true;
  let rounds = List.rev !rounds in
  let drains = List.concat_map (fun r -> r.drains_ms) rounds in
  let med f = median (List.map f rounds) in
  note "rounds %d, drains %d, flow pauses %d, server CPU %.2f s per round"
    (List.length rounds) (List.length drains)
    (List.fold_left (fun a r -> a + r.pauses) 0 rounds)
    (med (fun r -> r.server_cpu));
  note "round walls (s): %s"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) rounds));
  note "round drain p50/p99 (ms): %s"
    (String.concat " "
       (List.map
          (fun r ->
            Printf.sprintf "%.2f/%.1f" (median r.drains_ms)
              (percentile 0.99 r.drains_ms))
          rounds));
  {
    attempted = tally.attempted;
    failed = tally.failed;
    correct = tally.failed = 0 && rounds <> [];
    metrics =
      [
        metric "setup_s" "s" (med (fun r -> r.setup));
        metric "wall_s" "s" (med (fun r -> r.wall));
        metric "drain_p50_ms" "ms" (median drains);
        metric "drain_p99_ms" "ms" (percentile 0.99 drains);
        metric "recover_s" "s" (med (fun r -> r.recover));
        metric "peak_rss_mb" "MB" (med (fun r -> r.rss_mb));
      ];
  }

(* -- the ladder ------------------------------------------------------------ *)

(* Drive both sessions' inputs through [feed]/[drain] of one rung,
   interleaved tick by tick on this thread; each call is a span.  The
   seconds spent in each kind of call are summed; [after_drain] returns
   the seconds of any extra call it makes (the Durable rung's
   checkpoints). *)
type rung_time = { feeds : float; drains : float; extra : float }

let total r = r.feeds +. r.drains +. r.extra

let drive ~tally ~rung inputs ~feed ~drain ~after_drain =
  let feeds = ref 0. and drains = ref 0. and extra = ref 0. in
  for t = 0 to ticks - 1 do
    let w = t / drain_every in
    for i = 0 to sessions - 1 do
      let (), s = span ~parent:rung ~window:w "feed" (fun () -> feed i inputs.(i).batches.(t)) in
      feeds := !feeds +. s
    done;
    if (t + 1) mod drain_every = 0 then
      for i = 0 to sessions - 1 do
        let lines, s = span ~parent:rung ~window:w "drain" (fun () -> drain i) in
        drains := !drains +. s;
        tally.attempted <- tally.attempted + 1;
        if not (window_ok inputs.(i) w lines) then
          fail tally "rung window %d: alarm lines differ from the readings" w;
        extra := !extra +. after_drain i (w + 1)
      done
  done;
  { feeds = !feeds; drains = !drains; extra = !extra }

type engine_rung = {
  e_time : rung_time;
  e_start : float;
  e_steps : int;
  e_tuples : int;
  e_inserted : int;
  e_deduped : int;
  e_cpu : float;  (** process CPU across Engine.drain *)
  e_minor : int;
  e_major : int;
  e_promoted : float;
}

let engine_rung ~tally inputs frozen ~threads =
  let root = open_span (Printf.sprintf "rung.engine_%dt" threads) in
  let config = { Config.default with threads } in
  let starts = ref [] in
  let ss =
    Array.init sessions (fun _ ->
        let s, t = span ~parent:(fst root) "Engine.start" (fun () -> Engine.start frozen config) in
        starts := t :: !starts;
        s)
  in
  let cpu = ref 0. and minor = ref 0 and major = ref 0 and promoted = ref 0. in
  let time =
    drive ~tally ~rung:(fst root) inputs
      ~feed:(fun i b -> Engine.feed ss.(i) b)
      ~drain:(fun i ->
        let g0 = Gc.quick_stat () and c0 = self_cpu_s () in
        let lines = Engine.drain ss.(i) in
        let c1 = self_cpu_s () and g1 = Gc.quick_stat () in
        cpu := !cpu +. c1 -. c0;
        minor := !minor + g1.Gc.minor_collections - g0.Gc.minor_collections;
        major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
        promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
        lines)
      ~after_drain:(fun _ _ -> 0.)
  in
  ignore (close_span root);
  let results = Array.map Engine.finish ss in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 results in
  {
    e_time = time;
    e_start = median !starts;
    e_steps = sum (fun r -> r.Engine.steps);
    e_tuples = sum (fun r -> r.Engine.tuples_processed);
    e_inserted = sum (fun r -> r.Engine.delta_inserted);
    e_deduped = sum (fun r -> r.Engine.delta_deduped);
    e_cpu = !cpu;
    e_minor = !minor;
    e_major = !major;
    e_promoted = !promoted;
  }

type durable_rung = {
  d_time : rung_time;
  d_checkpoints : float list;
  d_fsyncs : int;
  d_wal_bytes : int;
  d_snapshot_bytes : int;
}

let durable_rung ~tally ~tmp inputs frozen =
  let root = open_span "rung.durable" in
  let dirs = Array.init sessions (fun i -> Filename.concat tmp (Printf.sprintf "durable-s%d" i)) in
  Array.iter rm_rf dirs;
  let ds =
    Array.map
      (fun dir -> fst (Durable.open_ ~fsync ~dir frozen Config.default))
      dirs
  in
  let ckpts = ref [] and wal_bytes = ref 0 in
  let wal_size d = (Unix.stat (Durable.wal_path d)).Unix.st_size in
  let time =
    drive ~tally ~rung:(fst root) inputs
      ~feed:(fun i b -> Durable.feed ds.(i) b)
      ~drain:(fun i -> Durable.drain ds.(i))
      ~after_drain:(fun i drains ->
        if drains mod checkpoint_every = 0 then begin
          wal_bytes := !wal_bytes + wal_size ds.(i);
          let (), s =
            span ~parent:(fst root) "Durable.checkpoint" (fun () ->
                Durable.checkpoint ds.(i))
          in
          ckpts := s :: !ckpts;
          s
        end
        else 0.)
  in
  ignore (close_span root);
  let fsyncs = Array.fold_left (fun a d -> a + Durable.wal_fsyncs d) 0 ds in
  Array.iter (fun d -> wal_bytes := !wal_bytes + wal_size d) ds;
  let snapshot_bytes =
    Array.fold_left
      (fun a d ->
        let snap = Filename.concat (Durable.dir d) (Printf.sprintf "snap-%d" (Durable.generation d)) in
        a + if Sys.file_exists snap then tree_bytes snap else 0)
      0 ds
  in
  Array.iter (fun d -> ignore (Durable.finish d)) ds;
  Array.iter rm_rf dirs;
  {
    d_time = time;
    d_checkpoints = !ckpts;
    d_fsyncs = fsyncs;
    d_wal_bytes = !wal_bytes;
    d_snapshot_bytes = snapshot_bytes;
  }

type session_rung = { s_time : rung_time; s_enqueue : float }

let session_rung ~tally ~tmp inputs frozen =
  let root = open_span "rung.session" in
  let dirs = Array.init sessions (fun i -> Filename.concat tmp (Printf.sprintf "session-s%d" i)) in
  Array.iter rm_rf dirs;
  let ss =
    Array.mapi
      (fun i dir ->
        fst
          (Session.start ~name:(name i) ~dir ~quota:feed_quota
             ~checkpoint_every ~fsync frozen Config.default))
      dirs
  in
  let ok what = function
    | Ok v -> v
    | Error msg -> failwith (Printf.sprintf "Session.%s: %s" what msg)
  in
  let time =
    drive ~tally ~rung:(fst root) inputs
      ~feed:(fun i b ->
        ignore
          (ok "enqueue_feed"
             (Session.enqueue_feed ss.(i) b ~on_pause:ignore ~on_resume:ignore)))
      ~drain:(fun i -> fst (ok "drain" (Session.drain ss.(i))))
      ~after_drain:(fun _ _ -> 0.)
  in
  ignore (close_span root);
  Array.iter (fun s -> ignore (Session.stop s)) ss;
  Array.iter rm_rf dirs;
  { s_time = time; s_enqueue = time.feeds }

(* Protocol codec over this run's own frames: every Feed and Drain the
   clients send and every Fed and Drained the server answers, encoded,
   framed and decoded once each. *)
let codec_pass inputs frozen =
  let tables = frozen.Program.tables in
  let buf = Buffer.create 4096 in
  let frames = ref 0 in
  let roundtrip write decode frame =
    Buffer.clear buf;
    write buf frame;
    let bytes = Buffer.to_bytes buf in
    match Protocol.read_frame_bytes bytes (ref 0) with
    | `Frame (kind, payload) ->
        incr frames;
        ignore (decode kind payload)
    | `Incomplete -> failwith "codec: incomplete frame"
  in
  let client = roundtrip Protocol.write_client (Protocol.decode_client ~tables) in
  let server = roundtrip Protocol.write_server Protocol.decode_server in
  let mark =
    { Protocol.w_steps = 0; w_outputs = 0; w_seq_lanes = (0, 0); w_out_lanes = (0, 0) }
  in
  let (), s =
    span "Protocol.codec" (fun () ->
        Array.iter
          (fun input ->
            Array.iteri
              (fun t batch ->
                client (Protocol.Feed batch);
                server (Protocol.Fed { accepted = List.length batch; backlog = 0 });
                if (t + 1) mod drain_every = 0 then begin
                  client Protocol.Drain;
                  server
                    (Protocol.Drained
                       { lines = input.expected.(t / drain_every); mark })
                end)
              input.batches)
          inputs)
  in
  (s, !frames)

(* persist.recover_s: Durable.open_ on a copy of the killed session's
   directory, with what it replayed. *)
let recover_copy frozen dir =
  let (d, status), s =
    span "Durable.open_" (fun () -> Durable.open_ ~fsync ~dir frozen Config.default)
  in
  ignore (Durable.finish d);
  let replayed =
    match status with
    | Durable.Restored r -> r.Durable.r_feeds + r.Durable.r_drains
    | Durable.Fresh -> 0
  in
  (s, replayed)

let run_traced ~bin ~tmp ~seed =
  (* the in-process rungs run with the binary's runtime setting *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let inputs = inputs_for ~seed in
  describe inputs;
  let wd = watchdog () in
  let tally = { attempted = 0; failed = 0 } in
  let binary ~trace ~keep =
    tracing := trace;
    let r =
      guarded_round ~tally (fun () ->
          round ~bin ~tmp ~wd ~tally ~keep_killed:keep inputs)
    in
    tracing := false;
    r
  in
  let untraced = binary ~trace:false ~keep:false in
  tracing := true;
  let frozen, freeze = span "Demo.sensor_program" Demo.sensor_program in
  let e1 = engine_rung ~tally inputs frozen ~threads:1 in
  let e2 = engine_rung ~tally inputs frozen ~threads:2 in
  let du = durable_rung ~tally ~tmp inputs frozen in
  let se = session_rung ~tally ~tmp inputs frozen in
  let codec_s, frames = codec_pass inputs frozen in
  tracing := false;
  let traced = binary ~trace:true ~keep:true in
  let untraced2 = binary ~trace:false ~keep:false in
  wd.stop <- true;
  let recover_s, replayed =
    match traced with
    | Some { killed_dir = Some dir; _ } ->
        let r = recover_copy frozen dir in
        rm_rf dir;
        r
    | _ -> (nan, 0)
  in
  let untraced_wall =
    median (List.filter_map (Option.map (fun r -> r.wall)) [ untraced; untraced2 ])
  in
  let b = match traced with Some r -> r | None -> failwith "traced binary round failed" in
  let feeds = float_of_int (sessions * ticks) in
  let drains = float_of_int (sessions * windows) in
  let tuples = float_of_int (sessions * ticks * (sensors + 1)) in
  let engine = total e1.e_time and durable = total du.d_time in
  let session = total se.s_time in
  let residual = b.wall -. session -. codec_s in
  let pct x = 100. *. x /. b.wall in
  note "ledger (binary rung wall %.4f s = sum of the rows):" b.wall;
  List.iter
    (fun (layer, s) -> note "  %-34s %9.4f s  %5.1f%%" layer s (pct s))
    [
      ("core (Engine rung)", engine);
      ("persist: WAL, fsync, checkpoint", durable -. engine);
      ("serve: mailbox (Session - Durable)", session -. durable);
      ("serve: codec", codec_s);
      ("residual: transport, threads, wait", residual);
    ];
  note "tracing overhead: traced wall %.4f s - untraced wall %.4f s = %+.4f s"
    b.wall untraced_wall (b.wall -. untraced_wall);
  let ck = List.map (fun s -> s *. 1e3) du.d_checkpoints in
  let attempts = e1.e_inserted + e1.e_deduped in
  {
    attempted = tally.attempted;
    failed = tally.failed;
    correct = tally.failed = 0;
    metrics =
      [
        metric "serve.server_cpu_s" "s" b.server_cpu;
        metric "serve.codec_us_per_frame" "us" (1e6 *. codec_s /. float_of_int frames);
        metric "serve.mailbox_us_per_feed" "us" (1e6 *. se.s_enqueue /. feeds);
        metric "serve.mailbox_us_per_drain" "us"
          (1e6 *. (session -. se.s_enqueue -. durable) /. drains);
        metric "serve.transport_ms_per_window" "ms" (1e3 *. residual /. drains);
        metric "serve.flow_pauses" "count" (float_of_int b.pauses);
        metric "persist.wal_us_per_feed" "us"
          (1e6 *. (du.d_time.feeds -. e1.e_time.feeds) /. feeds);
        metric "persist.wal_bytes_per_tuple" "B" (float_of_int du.d_wal_bytes /. tuples);
        metric "persist.fsyncs" "count" (float_of_int du.d_fsyncs);
        metric "persist.checkpoints" "count" (float_of_int (List.length ck));
        metric "persist.checkpoint_ms_p50" "ms" (median ck);
        metric "persist.checkpoint_ms_max" "ms" (maximum ck);
        metric "persist.snapshot_mb" "MB" (float_of_int du.d_snapshot_bytes /. 1048576.);
        metric "persist.recover_s" "s" recover_s;
        metric "persist.replayed_records" "count" (float_of_int replayed);
        metric "core.feed_us_per_tuple" "us" (1e6 *. e1.e_time.feeds /. tuples);
        metric "core.drain_us_per_step" "us"
          (1e6 *. e1.e_time.drains /. float_of_int (max 1 e1.e_steps));
        metric "causality.freeze_ms" "ms" (1e3 *. freeze);
        metric "core.start_ms" "ms" (1e3 *. e1.e_start);
        metric "core.feed_s" "s" e1.e_time.feeds;
        metric "core.drain_s" "s" e1.e_time.drains;
        metric "core.steps" "count" (float_of_int e1.e_steps);
        metric "core.tuples" "count" (float_of_int e1.e_tuples);
        metric "core.useful_put_ratio" "ratio"
          (if attempts = 0 then 1. else float_of_int e1.e_inserted /. float_of_int attempts);
        metric "core.put_attempts" "count" (float_of_int attempts);
        metric "sched.speedup_2t" "x" (e1.e_time.drains /. e2.e_time.drains);
        metric "sched.busy_cores" "cores" (e1.e_cpu /. e1.e_time.drains);
        metric "gc.minor_collections" "count" (float_of_int e1.e_minor);
        metric "gc.major_collections" "count" (float_of_int e1.e_major);
        metric "gc.promoted_mb" "MB"
          (e1.e_promoted *. float_of_int (Sys.word_size / 8) /. 1048576.);
        metric "trace.overhead_s" "s" (b.wall -. untraced_wall);
      ];
  }
