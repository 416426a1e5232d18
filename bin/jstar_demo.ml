(* jstar-demo: command-line driver for the case-study programs.

   This binary is the runtime analogue of the JStar compiler's flag
   interface: the same declarative programs run under different
   parallelisation strategies and data-structure choices selected purely
   by options ("-sequential", "--threads=N", "-noDelta T", store
   overrides), demonstrating the paper's central claim that none of
   these choices require touching program text. *)

open Cmdliner
open Jstar_core

let tune_runtime () =
  (* The paper ran the JVM with a large heap (§6.2); the OCaml 5
     analogue is a large per-domain minor heap.  Must precede any
     domain spawn. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 }

(* -- shared options -------------------------------------------------- *)

let threads =
  let doc = "Fork/join pool size; 1 runs sequentially on the caller." in
  Arg.(value & opt int 2 & info [ "t"; "threads" ] ~docv:"N" ~doc)

let tracing =
  let doc =
    "Runtime observability level: $(b,off) (zero overhead), \
     $(b,counters) (metrics registry), or $(b,spans) (metrics plus \
     per-domain event rings for Chrome-trace export)."
  in
  Arg.(
    value
    & opt
        (enum
           [ ("off", Jstar_obs.Level.Off);
             ("counters", Jstar_obs.Level.Counters);
             ("spans", Jstar_obs.Level.Spans) ])
        Jstar_obs.Level.Off
    & info [ "tracing" ] ~docv:"LEVEL" ~doc)

let trace_out =
  let doc =
    "Write a Chrome trace-event JSON file (open in Perfetto or \
     chrome://tracing).  Implies $(b,--tracing spans)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out =
  let doc =
    "Write the metrics registry snapshot as CSV.  Implies at least \
     $(b,--tracing counters)."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let audit =
  let doc =
    "Audit the law of causality dynamically: besides the put-side check, \
     every firing's queries must visit only tuples the law allows \
     (positive at or before the trigger, negative/aggregate strictly \
     before)."
  in
  Arg.(value & flag & info [ "audit" ] ~doc)

let digest =
  let doc =
    "Compute order-independent 128-bit determinism digests of the final \
     database and of the per-step class sequence, printed after the run \
     (equal digests across $(b,--threads) values certify a deterministic \
     run)."
  in
  Arg.(value & flag & info [ "digest" ] ~doc)

let trace_sample =
  let doc =
    "With $(b,--tracing spans), record only every $(docv)-th event per \
     kind and domain (1 = record everything)."
  in
  Arg.(value & opt int 1 & info [ "trace-sample" ] ~docv:"N" ~doc)

let show_stats =
  let doc = "Print per-table usage statistics after the run." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let profile_flag =
  let doc =
    "Enable the continuous profiler: per-rule self time and fire counts, \
     per-table put/query attribution, scheduler utilization and GC deltas, \
     folded at each step barrier (already on for configs built with \
     $(b,Config.parallel)).  Timing lanes are non-deterministic; digests \
     are unaffected."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let metrics_every =
  let doc =
    "With $(b,--metrics-out), rewrite the CSV snapshot atomically (temp \
     file + rename) every $(docv) engine steps instead of only at the \
     end, so a live run can be watched from the filesystem.  Implies at \
     least $(b,--tracing counters)."
  in
  Arg.(value & opt int 0 & info [ "metrics-every" ] ~docv:"N" ~doc)

(* [--trace-out] / [--metrics-out] / [--metrics-every] imply the level
   they need, so "--trace-out t.json" alone produces a useful trace. *)
let effective_tracing tracing ~trace_out ~metrics_out ~metrics_every =
  match tracing with
  | Jstar_obs.Level.Spans -> tracing
  | _ when trace_out <> None -> Jstar_obs.Level.Spans
  | Jstar_obs.Level.Counters -> tracing
  | Jstar_obs.Level.Off when metrics_out <> None || metrics_every > 0 ->
      Jstar_obs.Level.Counters
  | _ -> tracing

(* Temp + rename so a concurrent reader never sees a half-written
   snapshot. *)
let flush_metrics_csv path metrics =
  let tmp = path ^ ".tmp" in
  Jstar_obs.Export.write_metrics_csv tmp metrics;
  Sys.rename tmp path

let apply_common ?alert_hook config ~tracing ~trace_out
    ~metrics_out ~audit ~digest ~trace_sample
    ~profile ~metrics_every =
  let metrics_hook =
    match (metrics_out, metrics_every) with
    | Some path, n when n > 0 ->
        Some
          (fun step metrics ->
            if step > 0 && step mod n = 0 then flush_metrics_csv path metrics)
    | _ -> None
  in
  (* Compose the per-step-barrier hooks: alert evaluation first (cheap
     named reads), then the CSV rewrite. *)
  let step_hook =
    match (alert_hook, metrics_hook) with
    | None, None -> None
    | Some h, None | None, Some h -> Some h
    | Some a, Some m ->
        Some
          (fun step metrics ->
            a step metrics;
            m step metrics)
  in
  {
    config with
    Config.tracing =
      effective_tracing tracing ~trace_out ~metrics_out ~metrics_every;
    audit_causality = audit;
    digest;
    trace_sample;
    profile = config.Config.profile || profile;
    step_hook;
  }

let report ?(max_lines = 20) ?trace_out ?metrics_out result show_stats =
  let outputs = result.Engine.outputs in
  let n = List.length outputs in
  List.iteri
    (fun i line -> if i < max_lines then Fmt.pr "%s@." line)
    outputs;
  if n > max_lines then Fmt.pr "... (%d more lines)@." (n - max_lines);
  Fmt.pr "-- %.3fs, %d steps, %d tuples processed, %d delta inserts (%d dups)@."
    result.Engine.elapsed result.Engine.steps result.Engine.tuples_processed
    result.Engine.delta_inserted result.Engine.delta_deduped;
  if show_stats then
    Fmt.pr "%a" Table_stats.pp_snapshot (Table_stats.snapshot result.Engine.stats);
  (match result.Engine.digest with
  | Some d ->
      Fmt.pr "digest: gamma=%s@." d.Engine.d_gamma;
      Fmt.pr "digest: classes=%s@." d.Engine.d_classes;
      Fmt.pr "digest: outputs=%s@." d.Engine.d_outputs;
      List.iter
        (fun (table, h) -> Fmt.pr "digest: %s=%s@." table h)
        d.Engine.d_tables
  | None -> ());
  let tracer = result.Engine.tracer in
  if Jstar_obs.Tracer.counters_on tracer then
    Jstar_obs.Export.console Fmt.stdout ~metrics:result.Engine.metrics tracer;
  (match trace_out with
  | Some path ->
      Jstar_obs.Export.write_chrome_trace path tracer;
      Fmt.pr "trace -> %s (%d events, %d dropped)@." path
        (List.fold_left
           (fun acc r -> acc + Jstar_obs.Ring.length r)
           0 (Jstar_obs.Tracer.rings tracer))
        (Jstar_obs.Tracer.dropped tracer)
  | None -> ());
  match metrics_out with
  | Some path ->
      Jstar_obs.Export.write_metrics_csv path result.Engine.metrics;
      Fmt.pr "metrics -> %s@." path
  | None -> ()

(* -- explain ----------------------------------------------------------- *)

(* [--explain Table:v1,v2,...] selects tuples by a leading-field prefix;
   the values are parsed against the table's column types. *)
let parse_explain_spec program spec =
  let fail msg = `Error (Printf.sprintf "--explain %s: %s" spec msg) in
  match String.index_opt spec ':' with
  | None -> fail "expected TABLE:v1,v2,..."
  | Some i -> (
      let tname = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      match Program.find_table program tname with
      | exception Schema.Schema_error msg -> fail msg
      | schema -> (
          let raw =
            if rest = "" then [] else String.split_on_char ',' rest
          in
          if List.length raw > Schema.arity schema then
            fail
              (Printf.sprintf "%d values but %s has arity %d"
                 (List.length raw) tname (Schema.arity schema))
          else
            try
              let prefix =
                List.mapi
                  (fun j s ->
                    match Schema.field_ty schema j with
                    | Value.TInt -> Value.Int (int_of_string (String.trim s))
                    | Value.TFloat ->
                        Value.Float (float_of_string (String.trim s))
                    | Value.TBool ->
                        Value.Bool (bool_of_string (String.trim s))
                    | Value.TStr -> Value.Str s)
                  raw
              in
              `Ok (schema, Array.of_list prefix)
            with Failure _ -> fail "value does not parse at its column type"))

let explain_run ~spec ~json_out ~dot_out ~depth ~width ~frozen ~gamma result =
  match parse_explain_spec frozen.Program.program spec with
  | `Error msg ->
      Fmt.epr "jstar-demo: %s@." msg;
      exit 2
  | `Ok (schema, prefix) ->
      let lineage =
        match result.Engine.lineage with
        | Some l -> l
        | None -> (* --explain implies provenance *) assert false
      in
      let matches = ref [] in
      (gamma schema).Store.iter_prefix prefix (fun t ->
          matches := t :: !matches);
      let matches = List.sort Tuple.compare !matches in
      let max_shown = 10 in
      (match matches with
      | [] -> Fmt.pr "explain: no stored tuple matches %s@." spec
      | _ ->
          List.iteri
            (fun i t ->
              if i < max_shown then
                match
                  Jstar_prov.Explain.derive ~lineage ~frozen ~max_depth:depth
                    ~max_width:width t
                with
                | Some node -> Fmt.pr "@.%a" Jstar_prov.Explain.pp node
                | None ->
                    Fmt.pr "@.%a: stored but not tracked by lineage@."
                      Tuple.pp t)
            matches;
          if List.length matches > max_shown then
            Fmt.pr "... (%d more matching tuples)@."
              (List.length matches - max_shown));
      let first_tree =
        match matches with
        | t :: _ ->
            Jstar_prov.Explain.derive ~lineage ~frozen ~max_depth:depth
              ~max_width:width t
        | [] -> None
      in
      let write path contents what =
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Fmt.pr "%s -> %s@." what path
      in
      (match (json_out, first_tree) with
      | Some path, Some node ->
          write path (Jstar_prov.Explain.json_string node) "explain json"
      | Some _, None -> Fmt.epr "jstar-demo: no tree to write as JSON@."
      | None, _ -> ());
      match (dot_out, first_tree) with
      | Some path, Some node ->
          write path (Jstar_prov.Explain.to_dot node) "explain dot"
      | Some _, None -> Fmt.epr "jstar-demo: no tree to write as DOT@."
      | None, _ -> ()

(* -- pvwatts ---------------------------------------------------------- *)

let pvwatts_cmd =
  let installations =
    Arg.(value & opt int 10 & info [ "installations" ] ~docv:"N"
           ~doc:"Installations in the synthetic dataset (paper: 1000).")
  in
  let naive =
    Arg.(value & flag & info [ "naive" ]
           ~doc:"Disable -noDelta: route every PvWatts tuple through Delta.")
  in
  let store =
    Arg.(value & opt (enum [ ("skiplist", Jstar_apps.Pvwatts.Default_store);
                             ("hash", Jstar_apps.Pvwatts.Hash_store);
                             ("month-array", Jstar_apps.Pvwatts.Month_array_store) ])
           Jstar_apps.Pvwatts.Month_array_store
         & info [ "store" ] ~docv:"KIND"
             ~doc:"Gamma store for the PvWatts table: $(b,skiplist), $(b,hash) or $(b,month-array).")
  in
  let sorted =
    Arg.(value & flag & info [ "sorted" ]
           ~doc:"Round-robin input ordering (the paper's best case) instead of month-major.")
  in
  let chunks =
    Arg.(value & opt int 0 & info [ "chunks" ] ~docv:"N"
           ~doc:"Parallel CSV reader chunks (default 2x threads).  Chunking \
                 shapes the seed tuples, so hold it fixed when comparing \
                 $(b,--digest) or $(b,--explain) output across thread counts.")
  in
  let disruptor =
    Arg.(value & flag & info [ "disruptor" ]
           ~doc:"Run the Disruptor redesign (§6.3) instead of the engine version.")
  in
  let consumers =
    Arg.(value & opt int 12 & info [ "consumers" ] ~docv:"N"
           ~doc:"Disruptor consumer count (Table 1 uses 12).")
  in
  let dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Write the program's dependency graph in Graphviz format.")
  in
  let explain =
    Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"TABLE:V1,V2,..."
           ~doc:"Print the derivation tree of every stored tuple of \
                 $(b,TABLE) whose leading fields equal the given values \
                 (implies provenance capture): why does this tuple exist?")
  in
  let explain_json =
    Arg.(value & opt (some string) None & info [ "explain-json" ] ~docv:"FILE"
           ~doc:"Also write the first explained tuple's tree as JSON.")
  in
  let explain_dot =
    Arg.(value & opt (some string) None & info [ "explain-dot" ] ~docv:"FILE"
           ~doc:"Also write the first explained tuple's tree as a Graphviz digraph.")
  in
  let explain_depth =
    Arg.(value & opt int 12 & info [ "explain-depth" ] ~docv:"N"
           ~doc:"Derivation-tree depth limit.")
  in
  let explain_width =
    Arg.(value & opt int 16 & info [ "explain-width" ] ~docv:"N"
           ~doc:"Inputs shown per derivation node.")
  in
  let run installations threads naive store sorted chunks disruptor consumers
      dot explain explain_json explain_dot explain_depth explain_width tracing
      trace_out metrics_out audit digest trace_sample profile metrics_every
      show_stats =
    tune_runtime ();
    let ordering =
      if sorted then Jstar_csv.Pvwatts_data.Round_robin
      else Jstar_csv.Pvwatts_data.Month_major
    in
    Fmt.pr "generating %d records...@."
      (Jstar_csv.Pvwatts_data.record_count ~installations);
    let data = Jstar_csv.Pvwatts_data.to_bytes ~installations ~ordering in
    if disruptor then begin
      let r =
        Jstar_apps.Pvwatts_disruptor.run
          ~options:
            { Jstar_disruptor.Disruptor.pvwatts_options with num_consumers = consumers }
          ~data ()
      in
      List.iter (Fmt.pr "%s@.") r.Jstar_apps.Pvwatts_disruptor.outputs;
      Fmt.pr "-- producer %.3fs, total %.3fs, %d events@."
        r.Jstar_apps.Pvwatts_disruptor.stats.Jstar_disruptor.Disruptor.elapsed_producer
        r.Jstar_apps.Pvwatts_disruptor.stats.Jstar_disruptor.Disruptor.elapsed_total
        r.Jstar_apps.Pvwatts_disruptor.stats.Jstar_disruptor.Disruptor.published
    end
    else begin
      let chunks = if chunks > 0 then chunks else max 2 (2 * threads) in
      let app = Jstar_apps.Pvwatts.make ~data ~chunks () in
      (match dot with
      | Some path ->
          Jstar_stats.Depgraph.write_dot
            (Jstar_stats.Depgraph.of_program app.Jstar_apps.Pvwatts.program)
            path;
          Fmt.pr "dependency graph -> %s@." path
      | None -> ());
      let config =
        apply_common ~tracing ~trace_out ~metrics_out ~audit ~digest
          ~trace_sample ~profile ~metrics_every
          (Jstar_apps.Pvwatts.config ~threads ~no_delta:(not naive) ~store ())
      in
      let config =
        if explain <> None then { config with Config.provenance = true }
        else config
      in
      let frozen = Program.freeze app.Jstar_apps.Pvwatts.program in
      let result, gamma =
        Engine.run_with_gamma ~init:app.Jstar_apps.Pvwatts.init frozen config
      in
      report ?trace_out ?metrics_out result show_stats;
      match explain with
      | Some spec ->
          explain_run ~spec ~json_out:explain_json ~dot_out:explain_dot
            ~depth:explain_depth ~width:explain_width ~frozen ~gamma result
      | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "pvwatts" ~doc:"Monthly solar-power averages (§6.2-6.3).")
    Term.(
      const run $ installations $ threads $ naive $ store $ sorted $ chunks
      $ disruptor $ consumers $ dot $ explain $ explain_json $ explain_dot
      $ explain_depth $ explain_width $ tracing $ trace_out $ metrics_out
      $ audit $ digest $ trace_sample $ profile_flag $ metrics_every
      $ show_stats)

(* -- matmul ----------------------------------------------------------- *)

let matmul_cmd =
  let n =
    Arg.(value & opt int 400 & info [ "n" ] ~docv:"N"
           ~doc:"Matrix dimension (paper: 1000).")
  in
  let boxed =
    Arg.(value & flag & info [ "boxed" ]
           ~doc:"Write results as boxed tuples through put (the slow XText path, §6.1).")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Check against the naive baseline.")
  in
  let run n threads boxed verify show_stats =
    tune_runtime ();
    let variant = if boxed then Jstar_apps.Matmul.Boxed else Jstar_apps.Matmul.Unboxed in
    let t0 = Jstar_obs.Monotonic.now_ns () in
    let result, get = Jstar_apps.Matmul.run ~n ~variant ~threads () in
    Fmt.pr "C[0][0]=%d C[%d][%d]=%d@." (get 0 0) (n - 1) (n - 1)
      (get (n - 1) (n - 1));
    Fmt.pr "-- %.3fs (%s, %d threads)@."
      (Jstar_obs.Monotonic.since_s t0)
      (if boxed then "boxed" else "unboxed")
      threads;
    if verify then begin
      let a = Jstar_apps.Matmul.generate_matrix 1 n
      and b = Jstar_apps.Matmul.generate_matrix 2 n in
      let want = Jstar_apps.Matmul.baseline_naive a b in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if get i j <> want.(i).(j) then ok := false
        done
      done;
      Fmt.pr "verification: %s@." (if !ok then "ok" else "FAILED")
    end;
    if show_stats then
      Fmt.pr "%a" Table_stats.pp_snapshot (Table_stats.snapshot result.Engine.stats)
  in
  Cmd.v
    (Cmd.info "matmul" ~doc:"Naive matrix multiplication (§6.4).")
    Term.(
      const run $ n $ threads $ boxed $ verify $ show_stats)

(* -- dijkstra ---------------------------------------------------------- *)

let dijkstra_cmd =
  let vertices =
    Arg.(value & opt int 100_000 & info [ "vertices" ] ~docv:"N"
           ~doc:"Graph size; edges are ~2x this (paper: 1,000,000).")
  in
  let tasks =
    Arg.(value & opt int 24 & info [ "gen-tasks" ] ~docv:"N"
           ~doc:"Parallel graph-generation tasks (the paper split a serial rule into 24).")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Check against the binary-heap baseline.")
  in
  let run vertices threads tasks verify show_stats =
    tune_runtime ();
    let result, app = Jstar_apps.Shortest_path.run ~tasks ~vertices ~threads () in
    Fmt.pr "reached %d of %d vertices@."
      (app.Jstar_apps.Shortest_path.reached_count ())
      vertices;
    List.iter
      (fun v ->
        match app.Jstar_apps.Shortest_path.distance_of v with
        | Some d -> Fmt.pr "shortest path to %d is %d@." v d
        | None -> Fmt.pr "vertex %d unreachable@." v)
      [ 1; vertices / 2; vertices - 1 ];
    Fmt.pr "-- %.3fs, %d steps@." result.Engine.elapsed result.Engine.steps;
    if verify then begin
      let want = Jstar_apps.Shortest_path.baseline ~tasks ~vertices () in
      let ok = ref true in
      for v = 0 to vertices - 1 do
        if app.Jstar_apps.Shortest_path.distance_of v <> Some want.(v) then
          ok := false
      done;
      Fmt.pr "verification: %s@." (if !ok then "ok" else "FAILED")
    end;
    if show_stats then
      Fmt.pr "%a" Table_stats.pp_snapshot (Table_stats.snapshot result.Engine.stats)
  in
  Cmd.v
    (Cmd.info "dijkstra" ~doc:"Single-source shortest paths (§6.5, Fig 5).")
    Term.(
      const run $ vertices $ threads $ tasks $ verify $ show_stats)

(* -- median ------------------------------------------------------------ *)

let median_cmd =
  let n =
    Arg.(value & opt int 4_000_000 & info [ "n" ] ~docv:"N"
           ~doc:"Array size (paper: 100,000,000).")
  in
  let regions =
    Arg.(value & opt int 8 & info [ "regions" ] ~docv:"N"
           ~doc:"Parallel partition regions per round.")
  in
  let run n threads regions show_stats =
    tune_runtime ();
    let result = Jstar_apps.Median.run ~regions ~n ~threads () in
    report result show_stats
  in
  Cmd.v
    (Cmd.info "median" ~doc:"Median of N random doubles (§6.6).")
    Term.(
      const run $ n $ threads $ regions $ show_stats)

(* -- ship -------------------------------------------------------------- *)

let ship_cmd =
  let run threads tracing trace_out metrics_out audit digest trace_sample
      profile metrics_every show_stats =
    tune_runtime ();
    let app = Jstar_apps.Spaceinvaders.make () in
    let config =
      apply_common ~tracing ~trace_out ~metrics_out ~audit ~digest
        ~trace_sample ~profile ~metrics_every
        { Config.default with threads }
    in
    report ?trace_out ?metrics_out
      (Engine.run_program ~init:app.Jstar_apps.Spaceinvaders.init
         app.Jstar_apps.Spaceinvaders.program config)
      show_stats
  in
  Cmd.v
    (Cmd.info "ship" ~doc:"The Space Invaders Ship example of §3 (Fig 2).")
    Term.(
      const run $ threads $ tracing $ trace_out $ metrics_out
      $ audit $ digest $ trace_sample $ profile_flag $ metrics_every
      $ show_stats)

(* -- stream ------------------------------------------------------------ *)

(* A long-lived event-driven session with optional durability: one tick
   = one feed + one drain.  With --persist the session writes a WAL and
   (optionally) snapshot checkpoints, restores automatically on
   restart, and --crash-after can SIGKILL the process mid-run to
   demonstrate recovery. *)

let stream_cmd =
  let ticks =
    Arg.(value & opt int 200 & info [ "ticks" ] ~docv:"N"
           ~doc:"Input ticks to feed (one drain per tick).")
  in
  let sensors =
    Arg.(value & opt int 8 & info [ "sensors" ] ~docv:"N"
           ~doc:"Synthetic sensor readings per tick.")
  in
  let persist =
    Arg.(value & opt (some string) None & info [ "persist" ] ~docv:"DIR"
           ~doc:"Make the session durable: write-ahead log + snapshots \
                 in $(docv), restoring automatically when the directory \
                 already holds a session.")
  in
  let checkpoint_every =
    Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"With $(b,--persist), take a snapshot checkpoint every \
                 $(docv) drains (0 = never; the WAL then holds the whole \
                 history).")
  in
  let fsync =
    Arg.(value
         & opt
             (conv' Jstar_persist.Wal.(fsync_policy_of_string, pp_fsync_policy))
             Jstar_persist.Wal.Always
         & info [ "fsync" ] ~docv:"POLICY"
             ~doc:"WAL durability: $(b,always) (fsync every commit), \
                   $(b,never), a number N (fsync once per N records), or a \
                   group-commit window like $(b,5ms).")
  in
  let crash_after =
    Arg.(value & opt (some int) None & info [ "crash-after" ] ~docv:"K"
           ~doc:"SIGKILL this process after $(docv) drains — rerun with \
                 the same $(b,--persist) directory to watch recovery.")
  in
  let ops_port =
    Arg.(value & opt (some int) None & info [ "ops-port" ] ~docv:"PORT"
           ~doc:"Serve the live introspection endpoints ($(b,/metrics), \
                 $(b,/health), $(b,/profile), $(b,/explain), $(b,/alerts), \
                 $(b,/dump)) on 127.0.0.1:$(docv) while the session runs \
                 (0 picks an ephemeral port, printed at startup).  Implies \
                 $(b,--profile) and provenance capture; the server shuts \
                 down when the last drain completes.")
  in
  let flight_dir =
    Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR"
           ~doc:"Arm the flight recorder: on an uncaught engine exception \
                 (including a causality violation), on SIGUSR1, or on the \
                 ops plane's $(b,/dump), write one atomic diagnostic \
                 bundle (journal tail, metrics, profiler top-K, WAL lag, \
                 explain trees for tuples a violation named) into \
                 $(docv).")
  in
  let alert_specs =
    Arg.(value & opt_all string [] & info [ "alert" ] ~docv:"SPEC"
           ~doc:"Declare a threshold alert over the metrics registry, \
                 evaluated at every step barrier with ok/pending/firing \
                 hysteresis.  Forms: $(b,NAME:METRIC>VAL), \
                 $(b,NAME:METRIC<VAL), $(b,NAME:rate(METRIC)>VAL) (EMA \
                 units/step), $(b,NAME:absent(METRIC)); optional \
                 $(b,:for=N) (consecutive evals before firing) and \
                 $(b,:clear=M) suffixes.  Repeatable.  Served at \
                 $(b,/alerts) and exported in the Prometheus ALERTS \
                 convention.")
  in
  let run ticks sensors persist checkpoint_every fsync crash_after ops_port
      flight_dir alert_specs threads tracing trace_out metrics_out audit
      digest trace_sample profile metrics_every show_stats =
    tune_runtime ();
    let alerts =
      match alert_specs with
      | [] -> None
      | specs ->
          let rules =
            List.map
              (fun s ->
                match Jstar_obs.Alerts.parse_spec s with
                | Ok r -> r
                | Error msg ->
                    Fmt.epr "jstar-demo: --alert %s: %s@." s msg;
                    exit 2)
              specs
          in
          Some (Jstar_obs.Alerts.create rules)
    in
    let alert_hook =
      Option.map
        (fun a step metrics -> Jstar_obs.Alerts.eval a ~step metrics)
        alerts
    in
    let frozen = Jstar_serve.Demo.sensor_program () in
    let config =
      apply_common ?alert_hook ~tracing ~trace_out ~metrics_out
        ~audit ~digest ~trace_sample
        ~profile:(profile || ops_port <> None)
        ~metrics_every
        { Config.default with Config.threads }
    in
    (* /explain needs lineage, so a live ops session captures it. *)
    let config =
      if ops_port <> None then { config with Config.provenance = true }
      else config
    in
    (* Arm the flight recorder over a live session: SIGUSR1 and the
       uncaught-exception wrap below; /dump when the ops plane is up. *)
    let make_recorder session ~wal_section =
      match flight_dir with
      | None -> None
      | Some dir ->
          let r = Jstar_ops.Ops.make_recorder ~dir session in
          (match wal_section with
          | Some f -> Jstar_obs.Recorder.add_section r "wal" f
          | None -> ());
          Jstar_obs.Recorder.on_signal r;
          Fmt.pr "flight recorder: armed (SIGUSR1, /dump, exceptions) -> %s@."
            dir;
          Format.pp_print_flush Fmt.stdout ();
          Some r
    in
    let guard recorder f =
      match recorder with
      | None -> f ()
      | Some r -> (
          try f ()
          with exn ->
            let path =
              Jstar_obs.Recorder.dump r ~reason:"exception"
                ~detail:
                  [ ("exception", Jstar_obs.Json.Str (Printexc.to_string exn)) ]
            in
            Fmt.epr "flight recorder: bundle -> %s@." path;
            raise exn)
    in
    let start_ops session ~extra ~recorder =
      (match alerts with
      | Some a ->
          Jstar_obs.Alerts.set_journal a (Engine.session_journal session)
      | None -> ());
      match ops_port with
      | None -> None
      | Some p ->
          let o =
            Jstar_ops.Ops.attach ~port:p ~extra_health:extra ?alerts ?recorder
              session
          in
          Fmt.pr
            "ops: serving http://127.0.0.1:%d (/metrics /health /profile \
             /explain /alerts /dump)@."
            (Jstar_ops.Ops.port o);
          Format.pp_print_flush Fmt.stdout ();
          Some o
    in
    let batch t = Jstar_serve.Demo.batch frozen ~sensors ~t in
    let maybe_crash drains =
      match crash_after with
      | Some k when drains >= k ->
          Fmt.pr "persist: simulating crash (SIGKILL) after %d drains@." k;
          Format.pp_print_flush Fmt.stdout ();
          Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ()
    in
    match persist with
    | None ->
        let s = Engine.start frozen config in
        let recorder = make_recorder s ~wal_section:None in
        let ops = start_ops s ~extra:(fun () -> []) ~recorder in
        guard recorder (fun () ->
            for t = 0 to ticks - 1 do
              Engine.feed s (batch t);
              ignore (Engine.drain s);
              maybe_crash (t + 1)
            done);
        Option.iter Jstar_ops.Ops.stop ops;
        report ?trace_out ?metrics_out (Engine.finish s) show_stats
    | Some dir ->
        let d, status =
          match
            Jstar_persist.Durable.open_ ~checkpoint_every ~fsync ~dir frozen
              config
          with
          | opened -> opened
          | exception Jstar_persist.Durable.Recovery_error msg ->
              (* One line, not cmdliner's internal-error report (exit
                 125).  Most messages already lead with the directory. *)
              let msg =
                if String.starts_with ~prefix:dir msg then msg
                else dir ^ ": " ^ msg
              in
              Fmt.epr "jstar-demo: cannot reopen %s@." msg;
              exit 1
        in
        let wal_json () =
          let lag = Jstar_persist.Durable.wal_lag d in
          Jstar_obs.Json.Obj
            [
              ( "fsync",
                Jstar_obs.Json.Str (Jstar_persist.Durable.fsync_policy_name d)
              );
              ( "generation",
                Jstar_obs.Json.Num
                  (float_of_int (Jstar_persist.Durable.generation d)) );
              ( "lag_records",
                Jstar_obs.Json.Num
                  (float_of_int lag.Jstar_persist.Wal.lag_records) );
              ( "lag_seconds",
                Jstar_obs.Json.Num lag.Jstar_persist.Wal.lag_seconds );
            ]
        in
        let wal_extras () = [ ("wal", wal_json ()) ] in
        let recorder =
          make_recorder
            (Jstar_persist.Durable.session d)
            ~wal_section:(Some wal_json)
        in
        let ops =
          start_ops
            (Jstar_persist.Durable.session d)
            ~extra:wal_extras ~recorder
        in
        let start =
          match status with
          | Jstar_persist.Durable.Fresh ->
              Fmt.pr "persist: fresh session in %s@." dir;
              0
          | Jstar_persist.Durable.Restored r ->
              (* resume after the last tick whose drain reached Gamma *)
              let next = ref 0 in
              let tick = Program.find_table frozen.Program.program "Tick" in
              (Engine.session_gamma (Jstar_persist.Durable.session d) tick)
                .Store.iter (fun t -> next := max !next (Tuple.int t "t" + 1));
              Fmt.pr
                "persist: restored generation %d from %s (replayed %d \
                 feeds, %d verified drains, %d pending tuples); resuming \
                 at tick %d@."
                r.Jstar_persist.Durable.r_gen dir
                r.Jstar_persist.Durable.r_feeds r.Jstar_persist.Durable.r_drains
                r.Jstar_persist.Durable.r_pending !next;
              !next
        in
        let drains = ref 0 in
        guard recorder (fun () ->
            for t = start to ticks - 1 do
              Jstar_persist.Durable.feed d (batch t);
              ignore (Jstar_persist.Durable.drain d);
              incr drains;
              maybe_crash !drains
            done);
        Option.iter Jstar_ops.Ops.stop ops;
        let gen = Jstar_persist.Durable.generation d in
        report ?trace_out ?metrics_out (Jstar_persist.Durable.finish d)
          show_stats;
        Fmt.pr "persisted -> %s (generation %d)@." dir gen
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"Event-driven sensor session; with --persist, a durable one \
             (WAL + snapshot checkpoints + automatic restore).")
    Term.(
      const run $ ticks $ sensors $ persist $ checkpoint_every $ fsync
      $ crash_after $ ops_port $ flight_dir $ alert_specs $ threads $ tracing
      $ trace_out $ metrics_out $ audit $ digest $ trace_sample
      $ profile_flag $ metrics_every $ show_stats)

(* -- check ------------------------------------------------------------- *)

let check_cmd =
  let run () =
    (* Run the causality checker over every case-study program. *)
    let check name program =
      let report = Jstar_causality.Check.check_program program in
      Fmt.pr "@.%s:@.  %a" name Jstar_causality.Check.pp_report report;
      let strata = Jstar_causality.Strata.analyse program in
      if not (Jstar_causality.Strata.globally_stratified strata) then
        Fmt.pr "  %a" Jstar_causality.Strata.pp strata
    in
    check "ship" (Jstar_apps.Spaceinvaders.make ()).Jstar_apps.Spaceinvaders.program;
    let data = Jstar_csv.Pvwatts_data.to_bytes ~installations:1
        ~ordering:Jstar_csv.Pvwatts_data.Month_major in
    check "pvwatts" (Jstar_apps.Pvwatts.make ~data ~chunks:2 ()).Jstar_apps.Pvwatts.program;
    let mm, _ = Jstar_apps.Matmul.make ~n:4 ~variant:Jstar_apps.Matmul.Unboxed () in
    check "matmul" mm.Jstar_apps.Matmul.program;
    let sp, _, _ = Jstar_apps.Shortest_path.make ~vertices:4 () in
    check "dijkstra" sp.Jstar_apps.Shortest_path.program;
    let md, _ = Jstar_apps.Median.make ~n:16 () in
    check "median" md.Jstar_apps.Median.program
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Discharge the causality proof obligations of every case-study program (§4).")
    Term.(const run $ const ())

let main =
  let doc = "JStar case-study programs under configurable parallelisation" in
  Cmd.group
    (Cmd.info "jstar-demo" ~version:"1.0.0" ~doc)
    [
      pvwatts_cmd; matmul_cmd; dijkstra_cmd; median_cmd; ship_cmd; stream_cmd;
      check_cmd;
    ]

let () = exit (Cmd.eval main)
