(* Observability layer: span rings, the tracer's recording discipline,
   Chrome-trace export, the metrics registry, and the guarantee that a
   disabled tracer adds nothing to instrumented hot paths. *)

open Jstar_core
open Jstar_obs

let v_int i = Value.Int i

(* A deterministic chain program: T(x) puts T(x+1) until x = last.
   Every class is a single tuple, so event counts are exact functions
   of the chain length. *)
let chain_program ~last =
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Int"; Seq "x" ]
      ()
  in
  Program.rule p "next" ~trigger:t (fun ctx tuple ->
      let x = Tuple.int tuple "x" in
      if x < last then ctx.Rule.put (Tuple.make t [| v_int (x + 1) |]));
  (* A second rule on the same trigger so multi-rule tuples are
     exercised (one batch-fire chunk per rule and tuple). *)
  Program.rule p "count" ~trigger:t (fun _ _ -> ());
  (p, t)

let run_chain ~last config =
  let p, t = chain_program ~last in
  Engine.run_program ~init:[ Tuple.make t [| v_int 0 |] ] p config

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring_wrap () =
  let r = Ring.create ~capacity:16 ~tid:3 in
  for i = 0 to 39 do
    Ring.record r ~kind:1 ~ts:i ~dur:(-1) ~arg:i
  done;
  Alcotest.(check int) "length capped" 16 (Ring.length r);
  Alcotest.(check int) "dropped" 24 (Ring.dropped r);
  let seen = ref [] in
  Ring.iter r (fun ~kind:_ ~ts ~dur:_ ~arg:_ -> seen := ts :: !seen);
  Alcotest.(check (list int)) "oldest retained first"
    (List.init 16 (fun i -> 24 + i))
    (List.rev !seen)

let test_ring_capacity_rounding () =
  let r = Ring.create ~capacity:33 ~tid:0 in
  Alcotest.(check int) "rounded to pow2" 64 (Ring.capacity r);
  Alcotest.(check int) "tid kept" 0 (Ring.tid r)

let test_tracer_ring_wrap_drops () =
  (* A tiny tracer ring on a real run must report drops, not lie about
     coverage. *)
  let tracer = Tracer.create ~capacity:8 ~level:Level.Spans () in
  for i = 0 to 99 do
    Tracer.instant tracer ~arg:i Kind.steal
  done;
  Alcotest.(check int) "drops counted" 92 (Tracer.dropped tracer)

(* ------------------------------------------------------------------ *)
(* Exact event counts on the fixed chain, threads = 1 *)

let test_exact_event_counts () =
  let config = { Config.default with Config.tracing = Level.Spans } in
  let result = run_chain ~last:5 config in
  Alcotest.(check int) "six steps" 6 result.Engine.steps;
  let counts = Array.make Kind.builtin_count 0 in
  Tracer.events result.Engine.tracer
    (fun ~tid:_ ~kind ~ts:_ ~dur:_ ~arg:_ ->
      if kind < Kind.builtin_count then counts.(kind) <- counts.(kind) + 1);
  let count k = counts.(Kind.to_int k) in
  Alcotest.(check int) "one step span per class" 6 (count Kind.step);
  Alcotest.(check int) "extract spans = steps + final empty" 7
    (count Kind.extract);
  Alcotest.(check int) "gamma-insert span per step" 6 (count Kind.gamma_insert);
  Alcotest.(check int) "batch-fire span per fired tuple and rule" 12
    (count Kind.batch_fire);
  (* rule-fire spans cover -noDelta immediate firings only *)
  Alcotest.(check int) "no rule-fire spans" 0 (count Kind.rule_fire);
  Alcotest.(check int) "nothing dropped" 0 (Tracer.dropped result.Engine.tracer)

(* ------------------------------------------------------------------ *)
(* trace_sample, the one span filter: 1 in N spans of each kind, per
   domain, the first of every window kept — so every kind survives. *)

let test_sample_engine () =
  let config =
    { Config.default with Config.tracing = Level.Spans; trace_sample = 2 }
  in
  let result = run_chain ~last:5 config in
  let counts = Array.make Kind.builtin_count 0 in
  Tracer.events result.Engine.tracer
    (fun ~tid:_ ~kind ~ts:_ ~dur:_ ~arg:_ ->
      if kind < Kind.builtin_count then counts.(kind) <- counts.(kind) + 1);
  let count k = counts.(Kind.to_int k) in
  (* unsampled: 12 batch-fire, 6 step, 7 extract, 1 drain *)
  Alcotest.(check int) "batch-fire 1 in 2" 6 (count Kind.batch_fire);
  Alcotest.(check int) "step 1 in 2" 3 (count Kind.step);
  Alcotest.(check int) "extract 1 in 2" 4 (count Kind.extract);
  Alcotest.(check int) "rare kind kept" 1 (count Kind.drain)

let test_sample_unit () =
  (match Tracer.create ~sample:0 ~level:Level.Spans () with
  | _ -> Alcotest.fail "sample 0 accepted"
  | exception Invalid_argument _ -> ());
  let t = Tracer.create ~sample:3 ~level:Level.Spans () in
  for i = 0 to 9 do
    Tracer.instant t ~arg:i Kind.steal
  done;
  Tracer.instant t Kind.spawn;
  (* Registered (custom) kinds keep their own window too. *)
  let custom = Tracer.register_kind t "bench-phase" in
  Tracer.instant t custom;
  let steals = ref [] and others = ref 0 in
  Tracer.events t (fun ~tid:_ ~kind ~ts:_ ~dur:_ ~arg ->
      if kind = Kind.to_int Kind.steal then steals := arg :: !steals
      else incr others);
  Alcotest.(check (list int)) "first of each window of 3" [ 0; 3; 6; 9 ]
    (List.rev !steals);
  Alcotest.(check int) "other kinds keep their first" 2 !others;
  Alcotest.(check bool) "spans still on" true (Tracer.spans_on t)

(* One firing chunk, two sinks: the batch-fire span and the profiler's
   bracket time the same interval from the same two clock readings, so
   over a run their totals agree to the nanosecond.  One rule and no
   -noDelta table, so no nested bracket carves time out of the rule's
   self time; one thread, so every span and bracket lands on one
   domain. *)
let test_one_reading_every_sink () =
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Int"; Seq "x" ]
      ()
  in
  Program.rule p "next" ~trigger:t (fun ctx tuple ->
      let x = Tuple.int tuple "x" in
      if x < 2000 then ctx.Rule.put (Tuple.make t [| v_int (x + 1) |]));
  let config =
    {
      Config.default with
      Config.tracing = Level.Spans;
      grain = Config.Fixed 1;
      profile = true;
    }
  in
  let s = Engine.start (Program.freeze p) config in
  Engine.feed s [ Tuple.make t [| v_int 0 |] ];
  ignore (Engine.drain s);
  let prof = Option.get (Engine.session_profiler s) in
  let result = Engine.finish s in
  let tracer = result.Engine.tracer in
  Alcotest.(check int) "nothing dropped" 0 (Tracer.dropped tracer);
  let chunks = ref 0 and span_ns = ref 0 in
  Tracer.events tracer (fun ~tid:_ ~kind ~ts:_ ~dur ~arg:_ ->
      if kind = Kind.to_int Kind.batch_fire then begin
        incr chunks;
        span_ns := !span_ns + dur
      end);
  let row = (Profiler.rules prof).(0) in
  Alcotest.(check int) "one chunk per step" 2001 !chunks;
  Alcotest.(check int) "profiler fires" 2001 row.Profiler.pr_fires;
  Alcotest.(check (float 0.5)) "span ns = profiler self ns"
    (float_of_int !span_ns)
    (row.Profiler.pr_self_s *. 1e9)

(* ------------------------------------------------------------------ *)
(* Export: valid JSON, well-formed nesting, round-trip *)

let trace_json config =
  let result = run_chain ~last:8 config in
  let buf = Buffer.create 4096 in
  Export.chrome_trace buf result.Engine.tracer;
  (result, Buffer.contents buf)

let spans_config threads =
  { (Config.parallel ~threads ()) with Config.tracing = Level.Spans }

let test_export_validates () =
  let _, json = trace_json (spans_config 1) in
  match Trace_check.validate_string json with
  | Error e -> Alcotest.failf "invalid trace: %s" e
  | Ok s ->
      Alcotest.(check bool) "has events" true (s.Trace_check.events > 0);
      Alcotest.(check bool) "spans balanced (validator counts pairs)" true
        (s.Trace_check.spans > 0);
      Alcotest.(check int) "step spans present (B+E per span)" 18
        (Trace_check.name_count s "step")

let test_export_validates_parallel () =
  (* Multi-domain run: every domain's ring becomes its own track and
     each track must still nest. *)
  let _, json = trace_json (spans_config 3) in
  match Trace_check.validate_string json with
  | Error e -> Alcotest.failf "invalid parallel trace: %s" e
  | Ok s -> Alcotest.(check bool) "has tracks" true (s.Trace_check.tracks >= 1)

let test_export_round_trips () =
  let _, json = trace_json (spans_config 1) in
  match Json.of_string json with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok ast -> (
      match Json.of_string (Json.to_string ast) with
      | Error e -> Alcotest.failf "reparse: %s" e
      | Ok ast' ->
          Alcotest.(check bool) "print/parse round-trip" true (ast = ast'))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_snapshot () =
  let config =
    { Config.default with Config.tracing = Level.Counters }
  in
  let result = run_chain ~last:5 config in
  let rows = Metrics.snapshot result.Engine.metrics in
  let find name =
    match List.find_opt (fun r -> r.Metrics.name = name) rows with
    | Some r -> r
    | None -> Alcotest.failf "missing metric %s" name
  in
  let int_field row f =
    match List.assoc_opt f row.Metrics.fields with
    | Some (Metrics.Int i) -> i
    | Some (Metrics.Float x) -> int_of_float x
    | None -> Alcotest.failf "missing field %s on %s" f row.Metrics.name
  in
  Alcotest.(check int) "gamma size gauge" 6
    (int_field (find "gamma.T.size") "value");
  Alcotest.(check int) "delta drained" 0
    (int_field (find "delta.size") "value");
  Alcotest.(check int) "puts counter" 6
    (int_field (find "table.T.puts") "value");
  let widths = find "engine.class_width" in
  Alcotest.(check string) "histogram row" "histogram" widths.Metrics.kind;
  Alcotest.(check int) "one width observation per step" 6
    (int_field widths "count");
  (* every class in the chain is a single tuple *)
  Alcotest.(check bool) "width max in first pow2 bucket" true
    (int_field widths "max" <= 1);
  let csv = Buffer.create 256 in
  Metrics.to_csv csv rows;
  Alcotest.(check bool) "csv has header and rows" true
    (String.length (Buffer.contents csv) > 64)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~name:"h" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Metrics.hist_count h);
  Alcotest.(check (float 1.0)) "sum" 500500.0 (Metrics.hist_sum h);
  Alcotest.(check (float 1.0)) "mean" 500.5 (Metrics.hist_mean h);
  Alcotest.(check (float 0.001)) "max" 1000.0 (Metrics.hist_max h);
  let p50 = Metrics.hist_quantile h 0.5 in
  (* bucketed quantile: exact to within one power of two *)
  Alcotest.(check bool) "p50 bracket" true (p50 >= 500.0 && p50 <= 1024.0)

(* ------------------------------------------------------------------ *)
(* Tracing = Off costs nothing on the recording path *)

let test_disabled_tracer_zero_alloc () =
  let t = Tracer.disabled in
  let minor_delta f =
    (* settle, then measure: [Gc.minor_words] itself boxes a float, so
       compare against an identically-shaped empty loop *)
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let baseline =
    minor_delta (fun () ->
        for i = 1 to 10_000 do
          ignore (Sys.opaque_identity i)
        done)
  in
  (* No [~arg] here: passing an optional argument boxes a [Some] at the
     call site regardless of the tracer's level, which is why every
     instrumented site that passes [~arg] sits behind a spans_on /
     counters_on guard.  The unguarded shape is exactly this one. *)
  let traced =
    minor_delta (fun () ->
        for i = 1 to 10_000 do
          ignore (Sys.opaque_identity i);
          Tracer.instant t Kind.steal;
          let t0 = Tracer.start t in
          Tracer.stop t Kind.idle t0;
          Tracer.record_span t Kind.step ~ts:0 ~dur:0
        done)
  in
  Alcotest.(check (float 0.0)) "no allocation from disabled hooks" baseline
    traced

let test_off_engine_result_is_disabled () =
  let result = run_chain ~last:3 Config.default in
  Alcotest.(check bool) "tracer disabled" false
    (Tracer.counters_on result.Engine.tracer);
  Alcotest.(check int) "no rings" 0
    (List.length (Tracer.rings result.Engine.tracer))

(* ------------------------------------------------------------------ *)
(* Determinism under tracing: outputs must not depend on the level *)

let test_tracing_preserves_outputs () =
  let outputs config = (run_chain ~last:6 config).Engine.outputs in
  let base = outputs Config.default in
  List.iter
    (fun level ->
      let traced =
        outputs { Config.default with Config.tracing = level }
      in
      Alcotest.(check (list string))
        ("outputs at " ^ Level.to_string level)
        base traced)
    [ Level.Counters; Level.Spans ]

let suite =
  let tc = Alcotest.test_case in
  [
    ( "obs.ring",
      [
        tc "wrap keeps newest, counts dropped" `Quick test_ring_wrap;
        tc "capacity rounds to pow2" `Quick test_ring_capacity_rounding;
        tc "tracer reports ring drops" `Quick test_tracer_ring_wrap_drops;
      ] );
    ( "obs.tracer",
      [
        tc "exact event counts, threads=1" `Quick test_exact_event_counts;
        tc "trace_sample: 1 in N per kind" `Quick test_sample_engine;
        tc "trace_sample unit contract" `Quick test_sample_unit;
        tc "one reading, every sink" `Quick test_one_reading_every_sink;
        tc "disabled tracer allocates nothing" `Quick
          test_disabled_tracer_zero_alloc;
        tc "Off run carries disabled tracer" `Quick
          test_off_engine_result_is_disabled;
        tc "tracing level preserves outputs" `Quick
          test_tracing_preserves_outputs;
      ] );
    ( "obs.export",
      [
        tc "chrome trace validates" `Quick test_export_validates;
        tc "parallel trace validates" `Quick test_export_validates_parallel;
        tc "JSON round-trips" `Quick test_export_round_trips;
      ] );
    ( "obs.metrics",
      [
        tc "registry snapshot over a run" `Quick test_metrics_snapshot;
        tc "histogram statistics" `Quick test_histogram_quantiles;
      ] );
  ]
