(* jstar-serve (PR 10): the wire protocol round-trips every frame and
   rejects every mangled one without crashing; the server end to end —
   garbage bytes get a clean Err frame, admission control refuses
   excess sessions and connections, backpressure engages at the feed
   quota, idle sessions are evicted and recover on reopen, and
   branch → feed → merge lands on exactly the digests of a
   single-session oracle at 1/2/4 engine threads. *)

open Jstar_core
module Serve = Jstar_serve
module P = Jstar_serve.Protocol

let frozen = Serve.Demo.sensor_program ()
let tables = frozen.Program.tables
let schema_hash = Jstar_persist.Codec.schema_hash tables

let tmp_counter = ref 0

let fresh_root () =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "jstar-serve-%d-%d" (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_server ?(max_sessions = 16) ?(max_connections = 16)
    ?(feed_quota = 4096) ?(idle_timeout = 0.0) ?(engine = Config.default) f =
  let root = fresh_root () in
  let server =
    Serve.Server.start
      {
        (Serve.Server.default_config ~root) with
        Serve.Server.max_sessions;
        max_connections;
        feed_quota;
        idle_timeout;
        fsync = Jstar_persist.Wal.Never;
        engine;
      }
      frozen
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      rm_rf root)
    (fun () -> f server)

(* ------------------------------------------------------------------ *)
(* Frame round-trips (qcheck) *)

let tuple_gen =
  QCheck.Gen.(
    let* i = int_range 0 (Array.length tables - 1) in
    let schema = tables.(i) in
    let* vals =
      array_repeat (Schema.arity schema) (map (fun n -> Value.Int n) small_nat)
    in
    return (Tuple.make schema vals))

let watermark_gen =
  QCheck.Gen.(
    let* a = small_nat and* b = small_nat and* c = nat and* d = nat in
    let* e = nat and* f = nat in
    return
      {
        P.w_steps = a;
        w_outputs = b;
        w_seq_lanes = (c, d);
        w_out_lanes = (e, f);
      })

let client_frame_gen =
  QCheck.Gen.(
    oneof
      [
        (let* v = small_nat and* h = nat in
         return (P.Hello { version = v; schema_hash = h land 0xffffffff }));
        map (fun s -> P.Open s) string_small;
        (let* ts = list_size (int_range 0 6) tuple_gen in
         return (P.Feed ts));
        return P.Drain;
        map (fun s -> P.Branch s) string_small;
        map (fun s -> P.Merge s) string_small;
        return P.Digest;
        return P.Checkpoint;
        return P.Bye;
      ])

let server_frame_gen =
  QCheck.Gen.(
    oneof
      [
        (let* v = small_nat and* h = nat in
         return
           (P.Welcome
              {
                version = v;
                schema_hash = h land 0xffffffff;
                max_payload = P.max_payload;
              }));
        map (fun s -> P.Okay s) string_small;
        (let* a = small_nat and* b = small_nat in
         return (P.Fed { accepted = a; backlog = b }));
        (let* lines = list_size (int_range 0 5) string_small
         and* mark = watermark_gen in
         return (P.Drained { lines; mark }));
        (let* g = string_small and* o = small_nat in
         let* c = nat and* d = nat and* e = nat and* f = nat in
         return
           (P.Digests
              {
                d_gamma = g;
                d_outputs = o;
                d_seq_lanes = (c, d);
                d_out_lanes = (e, f);
              }));
        (let* pause = bool and* b = small_nat in
         return (P.Flow { pause; backlog = b }));
        (let* code = small_nat and* msg = string_small in
         return (P.Err { code; msg }));
      ])

let client_frame_eq a b =
  match (a, b) with
  | P.Feed xs, P.Feed ys ->
      List.length xs = List.length ys && List.for_all2 Tuple.equal xs ys
  | _ -> a = b

let encode_client frame =
  let b = Buffer.create 64 in
  P.write_client b frame;
  Buffer.to_bytes b

let encode_server frame =
  let b = Buffer.create 64 in
  P.write_server b frame;
  Buffer.to_bytes b

let roundtrip_client =
  QCheck.Test.make ~name:"client frames round-trip the wire" ~count:300
    (QCheck.make client_frame_gen) (fun frame ->
      let bytes = encode_client frame in
      let pos = ref 0 in
      match P.read_frame_bytes bytes pos with
      | `Incomplete -> false
      | `Frame (kind, payload) ->
          !pos = Bytes.length bytes
          && client_frame_eq frame (P.decode_client ~tables kind payload))

let roundtrip_server =
  QCheck.Test.make ~name:"server frames round-trip the wire" ~count:300
    (QCheck.make server_frame_gen) (fun frame ->
      let bytes = encode_server frame in
      let pos = ref 0 in
      match P.read_frame_bytes bytes pos with
      | `Incomplete -> false
      | `Frame (kind, payload) ->
          !pos = Bytes.length bytes && frame = P.decode_server kind payload)

(* Mangling never yields a valid frame: truncation reads as Incomplete
   (wait for more bytes), a flipped bit or an oversized length raises
   Frame_error — and nothing crashes. *)
let mangled_frames =
  QCheck.Test.make ~name:"mangled frames are rejected, never decoded"
    ~count:200 (QCheck.make client_frame_gen) (fun frame ->
      let bytes = encode_client frame in
      let n = Bytes.length bytes in
      (* every strict prefix: a valid wait-for-more, never a frame *)
      let prefixes_ok =
        List.for_all
          (fun k ->
            match P.read_frame_bytes (Bytes.sub bytes 0 k) (ref 0) with
            | `Incomplete -> true
            | `Frame _ -> false
            | exception P.Frame_error _ -> true)
          (List.init n Fun.id)
      in
      (* every single-byte corruption: error or starvation, never a
         frame that differs silently *)
      let flips_ok =
        List.for_all
          (fun k ->
            let m = Bytes.copy bytes in
            Bytes.set m k (Char.chr (Char.code (Bytes.get m k) lxor 0x40));
            match P.read_frame_bytes m (ref 0) with
            | `Incomplete -> true
            | `Frame _ -> false
            | exception P.Frame_error _ -> true)
          (List.init n Fun.id)
      in
      prefixes_ok && flips_ok)

(* The socket reader parses frames where they lie in its buffer: frames
   written in any chunking — several per write, one split over many
   writes, one larger than the initial buffer — come out of
   [read_frame] intact and in order, and a stream that ends inside a
   frame raises [Frame_error] rather than reading as a clean EOF. *)
let stream_gen =
  QCheck.Gen.(
    let big = map (fun n -> P.Open (String.make n 'x')) (int_range 8000 20000) in
    let* frames = list_size (int_range 1 12) (frequency [ (9, client_frame_gen); (1, big) ])
    and* chunks =
      list_size (int_range 1 16)
        (frequency
           [ (3, int_range 1 8); (3, int_range 9 300); (1, int_range 301 30000) ])
    and* torn = opt nat in
    return (frames, chunks, torn))

let chunked_stream =
  QCheck.Test.make ~name:"socket reader: any chunking, in order; torn tail raises"
    ~count:200 (QCheck.make stream_gen) (fun (frames, chunks, torn) ->
      let encoded = List.map encode_client frames in
      let tail =
        match torn with
        | None -> Bytes.empty
        | Some k ->
            let e = List.hd encoded in
            Bytes.sub e 0 (1 + (k mod (Bytes.length e - 1)))
      in
      let stream = Bytes.concat Bytes.empty (encoded @ [ tail ]) in
      let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (* a reader bug shows as a failed property, not a hung suite *)
      Unix.setsockopt_float r Unix.SO_RCVTIMEO 5.0;
      Unix.setsockopt_float w Unix.SO_SNDTIMEO 5.0;
      let writer =
        Thread.create
          (fun () ->
            let chunks = Array.of_list chunks in
            let off = ref 0 and k = ref 0 in
            try
              while !off < Bytes.length stream do
                let n =
                  min chunks.(!k mod Array.length chunks)
                    (Bytes.length stream - !off)
                in
                incr k;
                ignore (Unix.write w stream !off n);
                off := !off + n;
                Thread.yield ()
              done;
              Unix.shutdown w Unix.SHUTDOWN_SEND
            with Unix.Unix_error _ -> ())
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Thread.join writer;
          List.iter Unix.close [ w; r ])
        (fun () ->
          let reader = P.reader r in
          let in_order =
            List.for_all
              (fun f ->
                match P.read_frame reader with
                | Some (kind, payload) ->
                    client_frame_eq f (P.decode_client ~tables kind payload)
                | None -> false)
              frames
          in
          in_order
          &&
          match P.read_frame reader with
          | None -> torn = None
          | Some _ -> false
          | exception P.Frame_error _ -> torn <> None))

let test_oversized_frame () =
  let b = Buffer.create 16 in
  Jstar_persist.Codec.put_u8 b 3;
  Jstar_persist.Codec.put_u32 b (P.max_payload + 1);
  Buffer.add_string b (String.make 16 'x');
  match P.read_frame_bytes (Buffer.to_bytes b) (ref 0) with
  | exception P.Frame_error _ -> ()
  | `Incomplete -> Alcotest.fail "oversized length accepted as incomplete"
  | `Frame _ -> Alcotest.fail "oversized frame decoded"

(* ------------------------------------------------------------------ *)
(* End-to-end: garbage, handshake, admission, flow, eviction *)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let test_garbage_gets_err () =
  with_server (fun server ->
      let port = Serve.Server.port server in
      let fd = raw_connect port in
      let junk = Bytes.init 64 (fun i -> Char.chr (i * 37 mod 251)) in
      ignore (Unix.write fd junk 0 (Bytes.length junk));
      let r = P.reader fd in
      (match P.read_frame r with
      | Some (kind, payload) -> (
          match P.decode_server kind payload with
          | P.Err { code; _ } ->
              Alcotest.(check int) "bad-frame code" P.err_bad_frame code
          | _ -> Alcotest.fail "expected Err for garbage bytes")
      | None -> Alcotest.fail "server closed without an Err frame");
      Unix.close fd;
      (* the server survived: a well-formed client still works *)
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "alive/check");
      ignore (Serve.Client.digest c);
      Serve.Client.close c)

let test_handshake_rejects_schema () =
  with_server (fun server ->
      let port = Serve.Server.port server in
      let fd = raw_connect port in
      P.send_client fd
        (P.Hello { version = P.version; schema_hash = schema_hash lxor 0xff });
      let r = P.reader fd in
      (match P.read_frame r with
      | Some (kind, payload) -> (
          match P.decode_server kind payload with
          | P.Err { code; _ } ->
              Alcotest.(check int) "handshake code" P.err_handshake code
          | _ -> Alcotest.fail "expected Err for schema mismatch")
      | None -> Alcotest.fail "no reply to bad Hello");
      Unix.close fd)

let test_admission_sessions () =
  with_server ~max_sessions:1 (fun server ->
      let port = Serve.Server.port server in
      let a = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session a "adm/a");
      let b = Serve.Client.connect ~port frozen in
      (match Serve.Client.open_session b "adm/b" with
      | exception Serve.Client.Server_error (code, _) ->
          Alcotest.(check int) "capacity code" P.err_capacity code
      | _ -> Alcotest.fail "second session admitted past max_sessions");
      (* the same name is attachable — it is not a new session *)
      ignore (Serve.Client.open_session b "adm/a");
      Serve.Client.close b;
      Serve.Client.close a)

let test_admission_connections () =
  with_server ~max_connections:1 (fun server ->
      let port = Serve.Server.port server in
      let a = Serve.Client.connect ~port frozen in
      (match Serve.Client.connect ~port frozen with
      | exception Serve.Client.Server_error (code, _) ->
          Alcotest.(check int) "capacity code" P.err_capacity code
      | b ->
          Serve.Client.close b;
          Alcotest.fail "second connection admitted past max_connections");
      Serve.Client.close a)

let test_flow_pause () =
  with_server ~feed_quota:8 (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "flow/main");
      (* 17 tuples > quota 8: the server must pause us at least once,
         then accept — the client absorbs the Flow exchange. *)
      ignore (Serve.Client.feed c (Serve.Demo.batch frozen ~sensors:16 ~t:0));
      ignore (Serve.Client.drain c);
      Alcotest.(check bool) "client saw a pause" true (Serve.Client.pauses c >= 1);
      Alcotest.(check bool)
        "server counted it" true
        (Serve.Server.flow_pauses server >= 1);
      Serve.Client.close c)

let test_idle_eviction_and_recovery () =
  with_server ~idle_timeout:0.2 (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "evict/me");
      for t = 0 to 9 do
        ignore (Serve.Client.feed c (Serve.Demo.batch frozen ~sensors:8 ~t))
      done;
      ignore (Serve.Client.drain c);
      let before = Serve.Client.digest c in
      Serve.Client.close c;
      Alcotest.(check int) "session live" 1 (Serve.Server.sessions_open server);
      (* the janitor runs on the acceptor's 1 s tick *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Serve.Server.sessions_open server > 0
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.1
      done;
      Alcotest.(check int) "session evicted" 0
        (Serve.Server.sessions_open server);
      (* reopening recovers the checkpointed state exactly *)
      let c = Serve.Client.connect ~port frozen in
      let status = Serve.Client.open_session c "evict/me" in
      Alcotest.(check bool)
        "reopen restores" true
        (String.length status >= 8 && String.sub status 0 8 = "restored");
      let after = Serve.Client.digest c in
      Serve.Client.close c;
      Alcotest.(check string)
        "digest survives eviction" before.P.d_gamma after.P.d_gamma;
      Alcotest.(check bool)
        "output lanes survive eviction" true
        (before.P.d_out_lanes = after.P.d_out_lanes))

(* ------------------------------------------------------------------ *)
(* Branch -> feed -> merge equals the single-session oracle *)

type fingerprint = { gamma : string; outputs : int; out_lanes : int * int }

let fingerprint_of (d : P.digest_info) =
  { gamma = d.P.d_gamma; outputs = d.d_outputs; out_lanes = d.d_out_lanes }

let fp =
  Alcotest.testable
    (fun ppf f ->
      Format.fprintf ppf "{gamma=%s; outputs=%d; lanes=(%x,%x)}" f.gamma
        f.outputs (fst f.out_lanes) (snd f.out_lanes))
    ( = )

let sensors = 8
let drain_every = 5

let oracle_fingerprint ~engine ~ticks =
  let dir = fresh_root () in
  let d, _ =
    Jstar_persist.Durable.open_ ~fsync:Jstar_persist.Wal.Never ~dir frozen
      engine
  in
  for t = 0 to ticks - 1 do
    Jstar_persist.Durable.feed d (Serve.Demo.batch frozen ~sensors ~t);
    if (t + 1) mod drain_every = 0 then
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

let feed_range c ~from ~ticks =
  for t = from to from + ticks - 1 do
    ignore (Serve.Client.feed c (Serve.Demo.batch frozen ~sensors ~t));
    if (t - from + 1) mod drain_every = 0 then ignore (Serve.Client.drain c)
  done;
  ignore (Serve.Client.drain c)

let branch_merge_vs_oracle threads () =
  let engine =
    { (if threads = 1 then Config.default else Config.parallel ~threads ()) with
      Config.digest = true }
  in
  let want = oracle_fingerprint ~engine ~ticks:40 in
  with_server ~engine (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "bm/main");
      feed_range c ~from:0 ~ticks:20;
      ignore (Serve.Client.branch c "bm/side");
      (* the branch diverges with the suffix *)
      let c2 = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c2 "bm/side");
      feed_range c2 ~from:20 ~ticks:20;
      let side = fingerprint_of (Serve.Client.digest c2) in
      Alcotest.check fp "branch alone = oracle" want side;
      Serve.Client.close c2;
      (* merging the divergence brings main to the same point *)
      ignore (Serve.Client.merge c ~from:"bm/side");
      let merged = fingerprint_of (Serve.Client.digest c) in
      Alcotest.check fp "merge = oracle" want merged;
      (* and the branch is unharmed *)
      let c3 = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c3 "bm/side");
      Alcotest.check fp "source intact after merge" want
        (fingerprint_of (Serve.Client.digest c3));
      Serve.Client.close c3;
      Serve.Client.close c)

(* A checkpoint empties the source's WAL, so its post-fork divergence
   window is gone: merging afterwards must be refused — never reported
   as success while silently replaying only the post-checkpoint rump. *)
let test_merge_refused_after_checkpoint () =
  with_server (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "ck/main");
      feed_range c ~from:0 ~ticks:10;
      ignore (Serve.Client.branch c "ck/side");
      let c2 = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c2 "ck/side");
      feed_range c2 ~from:10 ~ticks:10;
      Serve.Client.checkpoint c2;
      Serve.Client.close c2;
      (match Serve.Client.merge c ~from:"ck/side" with
      | exception Serve.Client.Server_error (code, _) ->
          Alcotest.(check int) "truncated window refused" P.err_merge code
      | _ -> Alcotest.fail "merged a checkpoint-truncated divergence window");
      Serve.Client.close c)

let test_merge_conflicts () =
  with_server (fun server ->
      let port = Serve.Server.port server in
      let c = Serve.Client.connect ~port frozen in
      ignore (Serve.Client.open_session c "mc/main");
      (match Serve.Client.merge c ~from:"mc/main" with
      | exception Serve.Client.Server_error (code, _) ->
          Alcotest.(check int) "self-merge refused" P.err_merge code
      | _ -> Alcotest.fail "merged a session into itself");
      match Serve.Client.merge c ~from:"mc/ghost" with
      | exception Serve.Client.Server_error (code, _) ->
          Alcotest.(check int) "unknown source refused" P.err_no_session code;
          Serve.Client.close c
      | _ -> Alcotest.fail "merged from a session that does not exist")

(* ------------------------------------------------------------------ *)
(* Session workers on executor domains *)

(* Poll until [cond] holds; a broken barrier fails the test instead
   of hanging the suite. *)
let eventually what cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what;
    Thread.delay 0.001
  done

(* A tuple of a program with one more table than the sensor program:
   its table id is out of range there, so Engine.feed raises on it
   after Durable.feed has appended it to the WAL. *)
let alien_tuple () =
  let p = Program.create () in
  let names = List.init (Array.length tables + 1) (Printf.sprintf "T%d") in
  let schemas =
    List.map
      (fun n ->
        Program.table p n ~columns:Schema.[ int_col "x" ] ~orderby:Schema.[ Lit n ] ())
      names
  in
  Program.order p names;
  Tuple.make (List.nth schemas (Array.length tables)) [| Value.Int 0 |]

(* The worker's exception barrier, with the worker on an executor
   domain: a feed that raises inside Durable.feed kills the session
   loudly — the drain ahead of it still completes, a feed parked on
   the quota behind it returns, every later command gets Error, the
   backlog drains to 0 and stop returns. *)
let test_worker_crash_barrier () =
  let dir = fresh_root () in
  let placement = Serve.Placement.create ~slots:2 () in
  (* the first drain parks its worker in the step hook until [gate] *)
  let inside = Atomic.make false and gate = Atomic.make false in
  let engine =
    {
      Config.default with
      Config.step_hook =
        Some
          (fun _ _ ->
            if not (Atomic.get gate) then begin
              Atomic.set inside true;
              while not (Atomic.get gate) do
                Thread.delay 0.001
              done
            end);
    }
  in
  let s, _ =
    Serve.Session.start ~name:"crash/me" ~dir ~quota:8
      ~fsync:Jstar_persist.Wal.Never ~placement frozen engine
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set gate true;
      ignore (Serve.Session.stop s);
      Serve.Placement.shutdown placement;
      rm_rf dir)
    (fun () ->
      Alcotest.(check (array int)) "worker on the executor" [| 0; 1 |]
        (Serve.Placement.load placement);
      let feed ?(on_pause = ignore) tuples =
        Serve.Session.enqueue_feed s tuples ~on_pause ~on_resume:ignore
      in
      ignore (feed (Serve.Demo.batch frozen ~sensors:2 ~t:0));
      let drained = Atomic.make None in
      let drainer =
        Thread.create
          (fun () -> Atomic.set drained (Some (Serve.Session.drain s)))
          ()
      in
      eventually "the drain to enter the step hook" (fun () -> Atomic.get inside);
      Alcotest.(check (result int string))
        "poison admitted" (Ok 1)
        (feed [ alien_tuple () ]);
      (* 1 queued + 8 > quota 8: this feed parks behind the poison *)
      let parked = Atomic.make false and fed = Atomic.make None in
      let feeder =
        Thread.create
          (fun () ->
            Atomic.set fed
              (Some
                 (feed
                    ~on_pause:(fun _ -> Atomic.set parked true)
                    (Serve.Demo.batch frozen ~sensors:7 ~t:1))))
          ()
      in
      eventually "the feed to park" (fun () -> Atomic.get parked);
      Atomic.set gate true;
      eventually "the drain ahead of the crash" (fun () ->
          Option.is_some (Atomic.get drained));
      eventually "the parked feed to return" (fun () ->
          Option.is_some (Atomic.get fed));
      Thread.join drainer;
      Thread.join feeder;
      Alcotest.(check bool) "drain ahead of the crash succeeds" true
        (Option.fold ~none:false ~some:Result.is_ok (Atomic.get drained));
      Alcotest.(check bool) "drain after the crash fails" true
        (Result.is_error (Serve.Session.drain s));
      Alcotest.(check bool) "digest after the crash fails" true
        (Result.is_error (Serve.Session.digest s));
      Alcotest.(check bool) "feed after the crash fails" true
        (Result.is_error (feed (Serve.Demo.batch frozen ~sensors:2 ~t:2)));
      Alcotest.(check int) "backlog released" 0 (Serve.Session.backlog s);
      Alcotest.(check bool) "stop returns" true
        (Result.is_error (Serve.Session.stop s));
      Alcotest.(check (array int)) "worker gone" [| 0; 0 |]
        (Serve.Placement.load placement))

(* More sessions than slots, each fed by its own client at once: every
   slot hosts two or three workers, and every session still lands on
   the standalone oracle's digests. *)
let test_parallel_sessions_vs_oracle () =
  let engine = { Config.default with Config.digest = true } in
  let slots = Domain.recommended_domain_count () in
  let n = (2 * slots) + 1 in
  let ticks i = 20 + i in
  let want = Array.init n (fun i -> oracle_fingerprint ~engine ~ticks:(ticks i)) in
  with_server ~max_sessions:n ~max_connections:n ~engine (fun server ->
      let port = Serve.Server.port server in
      let clients =
        Array.init n (fun i ->
            let c = Serve.Client.connect ~port frozen in
            ignore (Serve.Client.open_session c (Printf.sprintf "par/%d" i));
            c)
      in
      let load = Serve.Server.slot_load server in
      Alcotest.(check int) "one slot per recommended domain" slots
        (Array.length load);
      Alcotest.(check bool) "workers spread evenly" true
        (Array.for_all (fun l -> l = 2 || l = 3) load);
      let got = Array.make n (Error "not run") in
      let threads =
        Array.init n (fun i ->
            Thread.create
              (fun () ->
                got.(i) <-
                  (try
                     feed_range clients.(i) ~from:0 ~ticks:(ticks i);
                     Ok (fingerprint_of (Serve.Client.digest clients.(i)))
                   with e -> Error (Printexc.to_string e)))
              ())
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          match r with
          | Ok f -> Alcotest.check fp (Printf.sprintf "par/%d = oracle" i) want.(i) f
          | Error m -> Alcotest.failf "par/%d: %s" i m)
        got;
      Array.iter Serve.Client.close clients)

let suite =
  [
    ( "serve.protocol",
      List.map QCheck_alcotest.to_alcotest
        [ roundtrip_client; roundtrip_server; mangled_frames; chunked_stream ]
      @ [
          Alcotest.test_case "oversized frame rejected" `Quick
            test_oversized_frame;
        ] );
    ( "serve.server",
      [
        Alcotest.test_case "garbage gets a clean Err frame" `Quick
          test_garbage_gets_err;
        Alcotest.test_case "handshake rejects schema mismatch" `Quick
          test_handshake_rejects_schema;
        Alcotest.test_case "admission: max sessions" `Quick
          test_admission_sessions;
        Alcotest.test_case "admission: max connections" `Quick
          test_admission_connections;
        Alcotest.test_case "flow pause at the feed quota" `Quick
          test_flow_pause;
        Alcotest.test_case "idle eviction, then recovery" `Quick
          test_idle_eviction_and_recovery;
      ] );
    ( "serve.branch-merge",
      [
        Alcotest.test_case "branch+merge = oracle, threads=1" `Quick
          (branch_merge_vs_oracle 1);
        Alcotest.test_case "branch+merge = oracle, threads=2" `Quick
          (branch_merge_vs_oracle 2);
        Alcotest.test_case "branch+merge = oracle, threads=4" `Quick
          (branch_merge_vs_oracle 4);
        Alcotest.test_case "merge conflicts are refused" `Quick
          test_merge_conflicts;
        Alcotest.test_case "merge refused after source checkpoint" `Quick
          test_merge_refused_after_checkpoint;
      ] );
    ( "serve.placement",
      [
        Alcotest.test_case "worker crash barrier on an executor" `Quick
          test_worker_crash_barrier;
        Alcotest.test_case "2 x slots + 1 sessions in parallel = oracle" `Quick
          test_parallel_sessions_vs_oracle;
      ] );
  ]
