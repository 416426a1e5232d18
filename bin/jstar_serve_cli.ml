(* jstar-serve: a long-lived server multiplexing many concurrent named
   engine sessions over the binary serve protocol, with branch/merge
   and admission control (DESIGN.md §15).  The client subcommands drive
   the shared sensor demo program against a running server — enough to
   walk the README's serving example end to end.  The server keeps the
   runtime's default minor heap: each session worker may run on its own
   domain, and every domain's minor heap is collected stop-the-world. *)

open Cmdliner

(* -- shared options ---------------------------------------------------- *)

let port_arg =
  let doc = "Server TCP port (serve: 0 asks the OS for an ephemeral port)." in
  Arg.(value & opt int 7479 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let addr_arg =
  let doc = "Bind/connect address." in
  Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~docv:"ADDR" ~doc)

let session_arg =
  let doc = "Session name, branch-style: $(b,proj/main)." in
  Arg.(value & opt string "proj/main" & info [ "s"; "session" ] ~docv:"NAME" ~doc)

let fsync_conv =
  let parse s =
    match s with
    | "always" -> Ok Jstar_persist.Wal.Always
    | "never" -> Ok Jstar_persist.Wal.Never
    | s when Filename.check_suffix s "ms" -> (
        match int_of_string_opt (Filename.chop_suffix s "ms") with
        | Some n when n > 0 -> Ok (Jstar_persist.Wal.Every_ms n)
        | _ -> Error (`Msg "expected a positive window like 5ms"))
    | s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok (Jstar_persist.Wal.Every n)
        | _ ->
            Error
              (`Msg
                 "expected always, never, a positive record count, or a \
                  window like 5ms"))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with
      | Jstar_persist.Wal.Always -> "always"
      | Jstar_persist.Wal.Never -> "never"
      | Jstar_persist.Wal.Every n -> string_of_int n
      | Jstar_persist.Wal.Every_ms n -> Printf.sprintf "%dms" n)
  in
  Arg.conv (parse, print)

(* -- serve ------------------------------------------------------------- *)

let serve_cmd =
  let root =
    let doc = "Directory for session state (created if missing)." in
    Arg.(value & opt string "./serve-root" & info [ "root" ] ~docv:"DIR" ~doc)
  in
  let max_sessions =
    let doc = "Maximum concurrently open sessions." in
    Arg.(value & opt int 64 & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let max_conns =
    let doc = "Maximum concurrent client connections." in
    Arg.(value & opt int 128 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let feed_quota =
    let doc =
      "Per-session queued-tuple quota; feeds past it get a Flow pause \
       until the session's worker catches up."
    in
    Arg.(value & opt int 32768 & info [ "feed-quota" ] ~docv:"TUPLES" ~doc)
  in
  let idle_timeout =
    let doc =
      "Evict (checkpoint + close) sessions idle this many seconds with \
       no attached connections; 0 disables."
    in
    Arg.(value & opt float 300.0 & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let checkpoint_every =
    let doc = "Auto-checkpoint a session after every N drains; 0 = never." in
    Arg.(value & opt int 256 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let fsync =
    let doc =
      "WAL fsync policy: $(b,always), $(b,never), every $(b,N) records, \
       or a group-commit window like $(b,5ms)."
    in
    Arg.(
      value
      & opt fsync_conv (Jstar_persist.Wal.Every_ms 5)
      & info [ "fsync" ] ~docv:"POLICY" ~doc)
  in
  let threads =
    let doc = "Engine fork/join pool size per session." in
    Arg.(value & opt int 1 & info [ "t"; "threads" ] ~docv:"N" ~doc)
  in
  let ops_port =
    let doc =
      "Serve the HTTP ops plane (/metrics /health /sessions /dump) on \
       this port."
    in
    Arg.(value & opt (some int) None & info [ "ops-port" ] ~docv:"PORT" ~doc)
  in
  let flight_dir =
    let doc = "Arm the flight recorder; bundles go under this directory." in
    Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR" ~doc)
  in
  let run root addr port max_sessions max_connections feed_quota idle_timeout
      checkpoint_every fsync threads ops_port flight_dir =
    let frozen = Jstar_serve.Demo.sensor_program () in
    let cfg =
      {
        (Jstar_serve.Server.default_config ~root) with
        addr;
        port;
        max_sessions;
        max_connections;
        feed_quota;
        idle_timeout;
        checkpoint_every;
        fsync;
        engine = { Jstar_core.Config.default with threads };
        ops_port;
        flight_dir;
      }
    in
    let t = Jstar_serve.Server.start cfg frozen in
    Fmt.pr "jstar-serve: listening on %s:%d (root %s)@." addr
      (Jstar_serve.Server.port t) root;
    (match Jstar_serve.Server.ops_port t with
    | Some p ->
        Fmt.pr "ops: serving http://127.0.0.1:%d (/metrics /health /sessions \
                /dump)@."
          p
    | None -> ());
    Format.pp_print_flush Fmt.stdout ();
    let on_signal _ = Jstar_serve.Server.request_shutdown t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Jstar_serve.Server.wait t;
    Fmt.pr "jstar-serve: drained and stopped@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve many concurrent durable sessions of the sensor demo \
          program; SIGTERM drains, checkpoints and exits.")
    Term.(
      const run $ root $ addr_arg $ port_arg $ max_sessions $ max_conns
      $ feed_quota $ idle_timeout $ checkpoint_every $ fsync $ threads
      $ ops_port $ flight_dir)

(* -- client subcommands ------------------------------------------------ *)

let with_client addr port session f =
  let frozen = Jstar_serve.Demo.sensor_program () in
  let c = Jstar_serve.Client.connect ~addr ~port frozen in
  Fun.protect
    ~finally:(fun () -> Jstar_serve.Client.close c)
    (fun () ->
      Fmt.pr "open: %s@." (Jstar_serve.Client.open_session c session);
      f frozen c)

let print_digest (d : Jstar_serve.Protocol.digest_info) =
  Fmt.pr "gamma %s@.outputs %d@.seq-lanes %x:%x@.out-lanes %x:%x@."
    d.Jstar_serve.Protocol.d_gamma d.d_outputs (fst d.d_seq_lanes)
    (snd d.d_seq_lanes) (fst d.d_out_lanes) (snd d.d_out_lanes)

let feed_cmd =
  let ticks =
    let doc = "Timesteps to feed (one Tick + one Reading per sensor each)." in
    Arg.(value & opt int 100 & info [ "ticks" ] ~docv:"N" ~doc)
  in
  let sensors =
    let doc = "Sensors per timestep." in
    Arg.(value & opt int 16 & info [ "sensors" ] ~docv:"N" ~doc)
  in
  let from_tick =
    let doc = "First timestep (continue a stream where it left off)." in
    Arg.(value & opt int 0 & info [ "from" ] ~docv:"T" ~doc)
  in
  let drain_every =
    let doc = "Drain after every N ticks." in
    Arg.(value & opt int 10 & info [ "drain-every" ] ~docv:"N" ~doc)
  in
  let show_output =
    let doc = "Print drained output lines." in
    Arg.(value & flag & info [ "show-output" ] ~doc)
  in
  let run addr port session ticks sensors from_tick drain_every show_output =
    with_client addr port session (fun frozen c ->
        let outputs = ref 0 in
        for t = from_tick to from_tick + ticks - 1 do
          ignore
            (Jstar_serve.Client.feed c
               (Jstar_serve.Demo.batch frozen ~sensors ~t));
          if (t - from_tick + 1) mod drain_every = 0 then begin
            let lines, _ = Jstar_serve.Client.drain c in
            outputs := !outputs + List.length lines;
            if show_output then List.iter (Fmt.pr "%s@.") lines
          end
        done;
        let lines, mark = Jstar_serve.Client.drain c in
        outputs := !outputs + List.length lines;
        if show_output then List.iter (Fmt.pr "%s@.") lines;
        Fmt.pr "fed %d ticks x %d sensors: %d outputs this run, %d total, \
                %d flow pauses@."
          ticks sensors !outputs mark.Jstar_serve.Protocol.w_outputs
          (Jstar_serve.Client.pauses c);
        print_digest (Jstar_serve.Client.digest c))
  in
  Cmd.v
    (Cmd.info "feed"
       ~doc:"Feed the sensor stream into a session and print its digests.")
    Term.(
      const run $ addr_arg $ port_arg $ session_arg $ ticks $ sensors
      $ from_tick $ drain_every $ show_output)

let digest_cmd =
  let run addr port session =
    with_client addr port session (fun _ c ->
        print_digest (Jstar_serve.Client.digest c))
  in
  Cmd.v
    (Cmd.info "digest" ~doc:"Print a session's determinism digests.")
    Term.(const run $ addr_arg $ port_arg $ session_arg)

let branch_cmd =
  let to_arg =
    let doc = "Name for the new branch." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let run addr port session name =
    with_client addr port session (fun _ c ->
        Fmt.pr "%s@." (Jstar_serve.Client.branch c name))
  in
  Cmd.v
    (Cmd.info "branch"
       ~doc:
         "Fork a session's durable state under a new name without \
          copying segments.")
    Term.(const run $ addr_arg $ port_arg $ session_arg $ to_arg)

let merge_cmd =
  let from_arg =
    let doc = "Session whose divergence to replay into this one." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FROM" ~doc)
  in
  let run addr port session from =
    with_client addr port session (fun _ c ->
        Fmt.pr "%s@." (Jstar_serve.Client.merge c ~from);
        print_digest (Jstar_serve.Client.digest c))
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Replay another session's digest-verified divergence into this \
          session.")
    Term.(const run $ addr_arg $ port_arg $ session_arg $ from_arg)

(* -- main -------------------------------------------------------------- *)

let main =
  Cmd.group
    (Cmd.info "jstar-serve" ~version:"dev"
       ~doc:
         "Multi-tenant session server for the JStar runtime: branchable, \
          mergeable, durable sessions over a binary protocol.")
    [ serve_cmd; feed_cmd; digest_cmd; branch_cmd; merge_cmd ]

let () = exit (Cmd.eval main)
