(* The jstar-serve reactor: one acceptor thread multiplexing a
   listening socket against a shutdown self-pipe, one thread per client
   connection speaking the binary protocol, and one single-owner worker
   per session (Session).  The acceptor and connection threads run on
   the domain that called [start]; each worker goes to the least-loaded
   of the server's placement slots (Placement: that domain plus
   [Domain.recommended_domain_count () - 1] executor domains), so
   independent sessions run in parallel.  Admission control front-loads
   every resource decision: connections are counted at accept, sessions
   at open, queued tuples per session at feed — past those gates
   nothing is unbounded.

   Branch and merge are orchestrated here because they span sessions:
   branch = Durable.fork on the source's worker + a fresh Session over
   the linked generation; merge = harvest the source's WAL divergence
   (digest-verified) and replay it into the target, preserving the
   feed/drain rhythm so the merged digests equal the single-session
   oracle's. *)

open Jstar_core
module Json = Jstar_obs.Json
module Journal = Jstar_obs.Journal
module Metrics = Jstar_obs.Metrics
module P = Protocol

type config = {
  root : string;  (** session directories live under here *)
  addr : string;
  port : int;  (** 0 = ephemeral *)
  max_sessions : int;
  max_connections : int;
  feed_quota : int;  (** queued-tuple cap per session mailbox *)
  idle_timeout : float;  (** seconds; <= 0 disables idle eviction *)
  checkpoint_every : int;
  fsync : Jstar_persist.Wal.fsync_policy;
  engine : Config.t;
  ops_port : int option;
  flight_dir : string option;
}

let default_config ~root =
  {
    root;
    addr = "127.0.0.1";
    port = 0;
    max_sessions = 64;
    max_connections = 128;
    feed_quota = 32768;
    idle_timeout = 300.0;
    checkpoint_every = 0;
    fsync = Jstar_persist.Wal.Every_ms 5;
    engine = Config.default;
    ops_port = None;
    flight_dir = None;
  }

type t = {
  cfg : config;
  frozen : Program.frozen;
  schema_hash : int;
  lsock : Unix.file_descr;
  port : int;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  journal : Journal.t;
  metrics : Metrics.t;
  placement : Placement.t;
  registry : (string, Session.t) Hashtbl.t;
  reg_m : Mutex.t;
  lanes : (string, unit) Hashtbl.t;  (* names with metric lanes registered *)
  mutable conns : (Unix.file_descr * Thread.t) list;  (* under conn_m *)
  conn_m : Mutex.t;
  conn_count : int Atomic.t;
  conns_total : int Atomic.t;
  rejected_conns : int Atomic.t;
  rejected_sessions : int Atomic.t;
  sessions_opened : int Atomic.t;
  sessions_evicted : int Atomic.t;
  branches : int Atomic.t;
  merges : int Atomic.t;
  flow_pauses : int Atomic.t;
  retired_tuples : int Atomic.t;  (* folded in when a session stops *)
  retired_peak : int Atomic.t;
  shutting_down : bool Atomic.t;
  mutable acceptor : Thread.t option;
  mutable ops : Jstar_ops.Httpd.t option;
  mutable recorder : Jstar_obs.Recorder.t option;
  mutable stopped : bool;  (* under conn_m; stop runs once *)
  start_ns : int;
}

(* -- names and directories --------------------------------------------- *)

let name_ok name =
  let seg_ok s =
    s <> "" && s <> "." && s <> ".."
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9')
           || c = '_' || c = '-' || c = '.')
         s
  in
  String.length name <= 128
  && name <> ""
  && List.for_all seg_ok (String.split_on_char '/' name)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let session_dir t name =
  let dir =
    List.fold_left Filename.concat t.cfg.root (String.split_on_char '/' name)
  in
  mkdir_p (Filename.dirname dir);
  dir

(* -- journal ----------------------------------------------------------- *)

let jlog t ~event ?(fields = []) name =
  Journal.info t.journal ~comp:"serve" ~event
    (("session", Json.Str name) :: fields)

let num i = Json.Num (float_of_int i)

(* -- registry helpers -------------------------------------------------- *)

let with_registry t f =
  Mutex.lock t.reg_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reg_m) f

let live_sessions t =
  with_registry t (fun () ->
      Hashtbl.fold (fun _ s acc -> s :: acc) t.registry [])

(* Per-session metric lanes, registered once per name ever seen; they
   read through the registry so an evicted-then-reopened session keeps
   its lane, and a closed one reads 0. *)
let register_lanes t name =
  if not (Hashtbl.mem t.lanes name) then begin
    Hashtbl.replace t.lanes name ();
    let read f =
      Mutex.lock t.reg_m;
      let v =
        match Hashtbl.find_opt t.registry name with
        | Some s -> f s
        | None -> 0
      in
      Mutex.unlock t.reg_m;
      v
    in
    let g metric f =
      Metrics.register_gauge t.metrics
        ~name:(Printf.sprintf "serve.session.%s.%s" name metric) (fun () ->
          Metrics.Int (read f))
    in
    g "backlog" Session.backlog;
    g "tuples_in" Session.tuples_in;
    g "drains" Session.drains
  end

(* Must hold reg_m.  Opens or recovers [name]'s session. *)
let open_session_locked t name =
  match Hashtbl.find_opt t.registry name with
  | Some s -> Ok (s, `Attached)
  | None ->
      if Hashtbl.length t.registry >= t.cfg.max_sessions then begin
        ignore (Atomic.fetch_and_add t.rejected_sessions 1);
        jlog t ~event:"reject"
          ~fields:[ ("reason", Json.Str "max-sessions") ]
          name;
        Error (P.err_capacity, "session table full")
      end
      else begin
        match
          Session.start ~name ~dir:(session_dir t name)
            ~quota:t.cfg.feed_quota ~checkpoint_every:t.cfg.checkpoint_every
            ~fsync:t.cfg.fsync ~placement:t.placement t.frozen t.cfg.engine
        with
        | s, status ->
            Hashtbl.replace t.registry name s;
            register_lanes t name;
            ignore (Atomic.fetch_and_add t.sessions_opened 1);
            let st =
              match status with
              | Jstar_persist.Durable.Fresh -> `Fresh
              | Jstar_persist.Durable.Restored _ -> `Restored
            in
            jlog t ~event:"open"
              ~fields:
                [
                  ( "state",
                    Json.Str (if st = `Fresh then "fresh" else "restored") );
                  ("gen", num (Jstar_persist.Durable.generation (Session.durable s)));
                ]
              name;
            Ok (s, st)
        | exception e -> Error (P.err_conflict, Printexc.to_string e)
      end

(* Must hold reg_m. *)
let stop_session_locked t ~event s =
  Hashtbl.remove t.registry (Session.name s);
  ignore (Atomic.fetch_and_add t.retired_tuples (Session.tuples_in s));
  let rec fold_peak () =
    let p = Atomic.get t.retired_peak in
    let sp = Session.peak_backlog s in
    if sp > p && not (Atomic.compare_and_set t.retired_peak p sp) then
      fold_peak ()
  in
  fold_peak ();
  (match Session.stop s with
  | Ok () -> jlog t ~event (Session.name s)
  | Error m ->
      jlog t ~event ~fields:[ ("error", Json.Str m) ] (Session.name s))

let evict_idle t =
  with_registry t (fun () ->
      let victims =
        Hashtbl.fold
          (fun _ s acc ->
            if
              Session.attached s = 0
              && Session.backlog s = 0
              && Session.idle_seconds s > t.cfg.idle_timeout
            then s :: acc
            else acc)
          t.registry []
      in
      List.iter
        (fun s ->
          ignore (Atomic.fetch_and_add t.sessions_evicted 1);
          stop_session_locked t ~event:"evict" s)
        victims)

(* -- connection protocol ----------------------------------------------- *)

let send fd frame = try P.send_server fd frame with _ -> ()

let handle_open t conn_session name =
  if not (name_ok name) then Error (P.err_bad_name, "bad session name")
  else if Atomic.get t.shutting_down then
    Error (P.err_shutting_down, "server draining")
  else
    with_registry t (fun () ->
        match open_session_locked t name with
        | Error _ as e -> e
        | Ok (s, st) ->
            (match !conn_session with
            | Some old -> Session.set_attached old (Session.attached old - 1)
            | None -> ());
            Session.set_attached s (Session.attached s + 1);
            Session.touch s;
            conn_session := Some s;
            let state =
              match st with
              | `Fresh -> "fresh"
              | `Restored -> "restored"
              | `Attached -> "attached"
            in
            Ok
              (Printf.sprintf "%s %s gen=%d" state name
                 (Jstar_persist.Durable.generation (Session.durable s))))

let handle_branch t s target =
  if not (name_ok target) then Error (P.err_bad_name, "bad branch name")
  else if Atomic.get t.shutting_down then
    Error (P.err_shutting_down, "server draining")
  else
    with_registry t (fun () ->
        if Hashtbl.mem t.registry target then
          Error (P.err_conflict, "branch name already open")
        else if Hashtbl.length t.registry >= t.cfg.max_sessions then
          Error (P.err_capacity, "session table full")
        else
          let dir = session_dir t target in
          if Sys.file_exists (Filename.concat dir "CURRENT") then
            Error (P.err_conflict, "branch name already on disk")
          else
            match Session.fork s ~dir with
            | Error m -> Error (P.err_conflict, m)
            | Ok gen -> (
                match
                  Session.start ~name:target ~dir ~quota:t.cfg.feed_quota
                    ~checkpoint_every:t.cfg.checkpoint_every
                    ~fsync:t.cfg.fsync ~placement:t.placement t.frozen
                    t.cfg.engine
                with
                | branch, _ ->
                    Hashtbl.replace t.registry target branch;
                    register_lanes t target;
                    ignore (Atomic.fetch_and_add t.branches 1);
                    ignore (Atomic.fetch_and_add t.sessions_opened 1);
                    jlog t ~event:"branch"
                      ~fields:
                        [ ("from", Json.Str (Session.name s)); ("gen", num gen) ]
                      target;
                    Ok (Printf.sprintf "branched %s gen=%d" target gen)
                | exception e -> Error (P.err_conflict, Printexc.to_string e)))

let handle_merge t s from_name =
  if from_name = Session.name s then
    Error (P.err_merge, "cannot merge a session into itself")
  else
    let from =
      with_registry t (fun () ->
          match Hashtbl.find_opt t.registry from_name with
          | Some f ->
              (* pin: the janitor must not evict mid-merge *)
              Session.set_attached f (Session.attached f + 1);
              Some f
          | None -> None)
    in
    match from with
    | None -> Error (P.err_no_session, "no such session: " ^ from_name)
    | Some from ->
        let unpin () =
          with_registry t (fun () ->
              Session.set_attached from (Session.attached from - 1))
        in
        Fun.protect ~finally:unpin (fun () ->
            match Session.harvest from with
            | Error m -> Error (P.err_merge, "harvest: " ^ m)
            | Ok records -> (
                match Session.replay s records with
                | Error m -> Error (P.err_merge, "replay: " ^ m)
                | Ok (tuples, drains) ->
                    ignore (Atomic.fetch_and_add t.merges 1);
                    jlog t ~event:"merge"
                      ~fields:
                        [
                          ("from", Json.Str from_name);
                          ("tuples", num tuples);
                          ("drains", num drains);
                        ]
                      (Session.name s);
                    Ok
                      (Printf.sprintf "merged %s: %d tuples, %d drains"
                         from_name tuples drains)))

let handle_feed t fd s tuples =
  Session.touch s;
  (* Admission lives in Session.enqueue_feed (atomic across connection
     threads); this layer just translates its park/unpark into Flow
     frames on the wire. *)
  match
    Session.enqueue_feed s tuples
      ~on_pause:(fun backlog ->
        ignore (Atomic.fetch_and_add t.flow_pauses 1);
        send fd (P.Flow { pause = true; backlog }))
      ~on_resume:(fun backlog -> send fd (P.Flow { pause = false; backlog }))
  with
  | Ok backlog -> send fd (P.Fed { accepted = List.length tuples; backlog })
  | Error m -> send fd (P.Err { code = P.err_conflict; msg = m })

let conn_main t fd () =
  let reader = P.reader fd in
  let conn_session = ref None in
  let require_session k =
    match !conn_session with
    | None ->
        send fd
          (P.Err { code = P.err_no_session; msg = "open a session first" })
    | Some s -> k s
  in
  let reply_result = function
    | Ok info -> send fd (P.Okay info)
    | Error (code, msg) -> send fd (P.Err { code; msg })
  in
  (try
     (* Handshake: the first frame must be a Hello that matches our
        protocol version and program shape. *)
     (match P.read_frame reader with
     | None -> ()
     | Some (kind, payload) -> (
         match P.decode_client ~tables:t.frozen.Program.tables kind payload with
         | P.Hello { version; schema_hash } ->
             if version <> P.version then
               send fd
                 (P.Err
                    {
                      code = P.err_handshake;
                      msg = Printf.sprintf "protocol version %d, want %d"
                              version P.version;
                    })
             else if schema_hash <> t.schema_hash land 0xffffffff then
               send fd
                 (P.Err
                    {
                      code = P.err_handshake;
                      msg = "schema hash mismatch (different program?)";
                    })
             else begin
               send fd
                 (P.Welcome
                    {
                      version = P.version;
                      schema_hash = t.schema_hash;
                      max_payload = P.max_payload;
                    });
               let bye = ref false in
               while not !bye do
                 match P.read_frame reader with
                 | None -> bye := true
                 | Some (kind, payload) -> (
                     match
                       P.decode_client ~tables:t.frozen.Program.tables kind
                         payload
                     with
                     | P.Hello _ ->
                         send fd
                           (P.Err
                              {
                                code = P.err_bad_frame;
                                msg = "already greeted";
                              })
                     | P.Open name ->
                         reply_result (handle_open t conn_session name)
                     | P.Feed tuples ->
                         require_session (fun s -> handle_feed t fd s tuples)
                     | P.Drain ->
                         require_session (fun s ->
                             Session.touch s;
                             match Session.drain s with
                             | Ok (lines, mark) ->
                                 send fd (P.Drained { lines; mark })
                             | Error m ->
                                 send fd
                                   (P.Err { code = P.err_conflict; msg = m }))
                     | P.Digest ->
                         require_session (fun s ->
                             match Session.digest s with
                             | Ok d -> send fd (P.Digests d)
                             | Error m ->
                                 send fd
                                   (P.Err { code = P.err_conflict; msg = m }))
                     | P.Checkpoint ->
                         require_session (fun s ->
                             match Session.checkpoint s with
                             | Ok () -> send fd (P.Okay "checkpointed")
                             | Error m ->
                                 send fd
                                   (P.Err { code = P.err_conflict; msg = m }))
                     | P.Branch target ->
                         require_session (fun s ->
                             reply_result (handle_branch t s target))
                     | P.Merge from_name ->
                         require_session (fun s ->
                             reply_result (handle_merge t s from_name))
                     | P.Bye ->
                         send fd (P.Okay "bye");
                         bye := true)
               done
             end
         | _ ->
             send fd
               (P.Err { code = P.err_handshake; msg = "expected Hello" })))
   with
  | P.Frame_error msg ->
      (* Torn, oversized, corrupt or undecodable framing: one clean
         error frame, then hang up — never a crash. *)
      send fd (P.Err { code = P.err_bad_frame; msg })
  | Unix.Unix_error _ -> ());
  (match !conn_session with
  | Some s ->
      with_registry t (fun () ->
          Session.set_attached s (Session.attached s - 1);
          Session.touch s)
  | None -> ());
  (* Deregister and close in one conn_m critical section: [wait] issues
     its shutdowns under the same lock, so an fd it finds in [conns] is
     guaranteed not yet closed — its number cannot have been recycled
     for a WAL file or another socket. *)
  Mutex.lock t.conn_m;
  t.conns <- List.filter (fun (cfd, _) -> cfd <> fd) t.conns;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.unlock t.conn_m;
  ignore (Atomic.fetch_and_add t.conn_count (-1))

(* -- acceptor ---------------------------------------------------------- *)

let accept_one t =
  match Unix.accept t.lsock with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      ignore (Atomic.fetch_and_add t.conns_total 1);
      if Atomic.get t.shutting_down then begin
        send fd (P.Err { code = P.err_shutting_down; msg = "server draining" });
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else if Atomic.get t.conn_count >= t.cfg.max_connections then begin
        ignore (Atomic.fetch_and_add t.rejected_conns 1);
        jlog t ~event:"reject"
          ~fields:[ ("reason", Json.Str "max-connections") ]
          "-";
        send fd (P.Err { code = P.err_capacity; msg = "connection table full" });
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        ignore (Atomic.fetch_and_add t.conn_count 1);
        (* Register under conn_m around the spawn: conn_main's exit path
           takes the same lock before deregistering, so even a
           connection that finishes instantly cannot leave a dead entry
           (with an already-closed fd) behind in [conns]. *)
        Mutex.lock t.conn_m;
        let th = Thread.create (conn_main t fd) () in
        t.conns <- (fd, th) :: t.conns;
        Mutex.unlock t.conn_m
      end

let acceptor t () =
  (* The 1 s tick serves two masters: the idle-eviction janitor, and
     signal delivery — a pending OCaml signal handler (SIGTERM →
     request_shutdown) only runs when some thread is executing OCaml
     code, so the acceptor must never sleep in [select] forever. *)
  let running = ref true in
  while !running do
    (match Unix.select [ t.lsock; t.stop_r ] [] [] 1.0 with
    | readable, _, _ ->
        if List.mem t.stop_r readable then running := false
        else if List.mem t.lsock readable then accept_one t
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if !running && t.cfg.idle_timeout > 0.0 then evict_idle t
  done

(* -- ops plane --------------------------------------------------------- *)

let session_json s =
  let d = Session.durable s in
  let lag = Jstar_persist.Durable.wal_lag d in
  Json.Obj
    [
      ("name", Json.Str (Session.name s));
      ("gen", num (Jstar_persist.Durable.generation d));
      ("attached", num (Session.attached s));
      ("backlog", num (Session.backlog s));
      ("peak_backlog", num (Session.peak_backlog s));
      ("tuples_in", num (Session.tuples_in s));
      ("feeds", num (Session.feeds s));
      ("drains", num (Session.drains s));
      ("idle_s", Json.Num (Session.idle_seconds s));
      ("wal_lag_records", num lag.Jstar_persist.Wal.lag_records);
      ("fsync", Json.Str (Jstar_persist.Durable.fsync_policy_name d));
    ]

let health_json t =
  let sessions = live_sessions t in
  let degraded =
    List.exists (fun s -> Session.backlog s >= Session.quota s) sessions
  in
  Json.Obj
    [
      ( "status",
        Json.Str
          (if Atomic.get t.shutting_down then "draining"
           else if degraded then "degraded"
           else "ok") );
      ( "uptime_s",
        Json.Num
          (float_of_int (Jstar_obs.Monotonic.now_ns () - t.start_ns) *. 1e-9)
      );
      ("port", num t.port);
      ("connections", num (Atomic.get t.conn_count));
      ("sessions_open", num (List.length sessions));
      ( "sessions",
        Json.Arr
          (List.map session_json
             (List.sort
                (fun a b -> compare (Session.name a) (Session.name b))
                sessions)) );
    ]

let make_recorder t ~dir =
  let r =
    Jstar_obs.Recorder.create ~journal:t.journal ~metrics:t.metrics ~dir ()
  in
  Jstar_obs.Recorder.add_section r "server" (fun () ->
      Json.Obj
        [
          ("connections", num (Atomic.get t.conn_count));
          ("connections_total", num (Atomic.get t.conns_total));
          ("sessions_opened", num (Atomic.get t.sessions_opened));
          ("sessions_evicted", num (Atomic.get t.sessions_evicted));
          ("branches", num (Atomic.get t.branches));
          ("merges", num (Atomic.get t.merges));
          ("flow_pauses", num (Atomic.get t.flow_pauses));
        ]);
  Jstar_obs.Recorder.add_section r "sessions" (fun () ->
      Json.Arr (List.map session_json (live_sessions t)));
  r

let ops_index =
  "jstar-serve ops endpoints:\n\
  \  /metrics    Prometheus text format (server + per-session lanes)\n\
  \  /health     aggregate heartbeat with per-session status\n\
  \  /sessions   per-session detail (JSON)\n\
  \  /dump       write a flight-recorder bundle\n"

let start_ops t =
  match t.cfg.ops_port with
  | None -> ()
  | Some port ->
      t.recorder <-
        Option.map (fun dir -> make_recorder t ~dir) t.cfg.flight_dir;
      let routes =
        [
          ("/", fun _ -> Jstar_ops.Httpd.text ops_index);
          ( "/metrics",
            fun _ ->
              {
                Jstar_ops.Httpd.status = 200;
                content_type = "text/plain; version=0.0.4";
                body = Jstar_obs.Prom.render t.metrics;
              } );
          ( "/health",
            fun _ ->
              Jstar_ops.Httpd.json (Json.to_string (health_json t) ^ "\n") );
          ( "/sessions",
            fun _ ->
              Jstar_ops.Httpd.json
                (Json.to_string
                   (Json.Arr (List.map session_json (live_sessions t)))
                ^ "\n") );
          ( "/dump",
            fun _ ->
              match t.recorder with
              | None ->
                  Jstar_ops.Httpd.json ~status:404
                    "{\"error\": \"no flight recorder (set --flight-dir)\"}\n"
              | Some r ->
                  let path = Jstar_obs.Recorder.dump r ~reason:"ops-dump" in
                  Jstar_ops.Httpd.json
                    (Json.to_string (Json.Obj [ ("path", Json.Str path) ])
                    ^ "\n") );
        ]
      in
      t.ops <- Some (Jstar_ops.Httpd.start ~addr:t.cfg.addr ~port routes)

let register_metrics t =
  let c name read = Metrics.register_counter t.metrics ~name read in
  let g name read =
    Metrics.register_gauge t.metrics ~name (fun () -> Metrics.Int (read ()))
  in
  c "serve.connections_total" (fun () -> Atomic.get t.conns_total);
  c "serve.rejected_connections" (fun () -> Atomic.get t.rejected_conns);
  c "serve.rejected_sessions" (fun () -> Atomic.get t.rejected_sessions);
  c "serve.sessions_opened" (fun () -> Atomic.get t.sessions_opened);
  c "serve.sessions_evicted" (fun () -> Atomic.get t.sessions_evicted);
  c "serve.branches" (fun () -> Atomic.get t.branches);
  c "serve.merges" (fun () -> Atomic.get t.merges);
  c "serve.flow_pauses" (fun () -> Atomic.get t.flow_pauses);
  c "serve.tuples_in_total" (fun () ->
      Atomic.get t.retired_tuples
      + List.fold_left
          (fun acc s -> acc + Session.tuples_in s)
          0 (live_sessions t));
  g "serve.connections_open" (fun () -> Atomic.get t.conn_count);
  g "serve.sessions_open" (fun () ->
      with_registry t (fun () -> Hashtbl.length t.registry));
  g "serve.backlog_total" (fun () ->
      List.fold_left (fun acc s -> acc + Session.backlog s) 0 (live_sessions t));
  g "serve.peak_backlog" (fun () ->
      List.fold_left
        (fun acc s -> max acc (Session.peak_backlog s))
        (Atomic.get t.retired_peak) (live_sessions t));
  g "serve.feed_quota" (fun () -> t.cfg.feed_quota)

(* -- lifecycle --------------------------------------------------------- *)

let start cfg frozen =
  mkdir_p cfg.root;
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lsock Unix.SO_REUSEADDR true;
     Unix.bind lsock
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.addr, cfg.port));
     Unix.listen lsock 64
   with e ->
     (try Unix.close lsock with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let stop_r, stop_w = Unix.pipe () in
  let t =
    {
      cfg;
      frozen;
      schema_hash = Jstar_persist.Codec.schema_hash frozen.Program.tables;
      lsock;
      port;
      stop_r;
      stop_w;
      journal = Journal.create ();
      metrics = Metrics.create ();
      placement = Placement.create ();
      registry = Hashtbl.create 16;
      reg_m = Mutex.create ();
      lanes = Hashtbl.create 16;
      conns = [];
      conn_m = Mutex.create ();
      conn_count = Atomic.make 0;
      conns_total = Atomic.make 0;
      rejected_conns = Atomic.make 0;
      rejected_sessions = Atomic.make 0;
      sessions_opened = Atomic.make 0;
      sessions_evicted = Atomic.make 0;
      branches = Atomic.make 0;
      merges = Atomic.make 0;
      flow_pauses = Atomic.make 0;
      retired_tuples = Atomic.make 0;
      retired_peak = Atomic.make 0;
      shutting_down = Atomic.make false;
      acceptor = None;
      ops = None;
      recorder = None;
      stopped = false;
      start_ns = Jstar_obs.Monotonic.now_ns ();
    }
  in
  register_metrics t;
  (try start_ops t
   with e ->
     Placement.shutdown t.placement;
     List.iter
       (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
       [ lsock; stop_r; stop_w ];
     raise e);
  t.acceptor <- Some (Thread.create (acceptor t) ());
  Journal.info t.journal ~comp:"serve" ~event:"start"
    [ ("port", num port); ("root", Json.Str cfg.root) ];
  t

let port t = t.port
let metrics t = t.metrics
let journal t = t.journal
let ops_port t = Option.map Jstar_ops.Httpd.port t.ops
let sessions_open t = with_registry t (fun () -> Hashtbl.length t.registry)
let connections t = Atomic.get t.conn_count
let flow_pauses t = Atomic.get t.flow_pauses
let slot_load t = Placement.load t.placement

let request_shutdown t =
  Atomic.set t.shutting_down true;
  try ignore (Unix.write t.stop_w (Bytes.make 1 '.') 0 1)
  with Unix.Unix_error _ -> ()

let wait t =
  (match t.acceptor with Some th -> Thread.join th | None -> ());
  let run_cleanup =
    Mutex.lock t.conn_m;
    let first = not t.stopped in
    t.stopped <- true;
    Mutex.unlock t.conn_m;
    first
  in
  if run_cleanup then begin
    (* Unblock every connection thread, then join them: their sessions
       must be detached before the drain below.  The shutdowns happen
       while holding conn_m — conn_main closes fds under the same lock,
       so every fd still in the list is live and is ours. *)
    Mutex.lock t.conn_m;
    let conns = t.conns in
    List.iter
      (fun (fd, _) ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    Mutex.unlock t.conn_m;
    List.iter (fun (_, th) -> Thread.join th) conns;
    (* Graceful drain: every session applies its queue, quiesces,
       checkpoints, closes. *)
    with_registry t (fun () ->
        let all = Hashtbl.fold (fun _ s acc -> s :: acc) t.registry [] in
        List.iter (fun s -> stop_session_locked t ~event:"drain" s) all);
    (* every worker has exited: the executor domains can go *)
    Placement.shutdown t.placement;
    (match t.ops with Some o -> Jstar_ops.Httpd.stop o | None -> ());
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.lsock; t.stop_r; t.stop_w ];
    Journal.info t.journal ~comp:"serve" ~event:"stopped" []
  end

let stop t =
  request_shutdown t;
  wait t
