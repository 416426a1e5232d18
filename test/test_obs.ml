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
(* The per-kind suppress mask: per-firing spans can be dropped while
   step/extract spans stay on — the knob for firing-heavy runs. *)

let test_suppress_mask_engine () =
  let config =
    {
      Config.default with
      Config.tracing = Level.Spans;
      trace_suppress = [ "batch-fire" ];
    }
  in
  let result = run_chain ~last:5 config in
  let counts = Array.make Kind.builtin_count 0 in
  Tracer.events result.Engine.tracer
    (fun ~tid:_ ~kind ~ts:_ ~dur:_ ~arg:_ ->
      if kind < Kind.builtin_count then counts.(kind) <- counts.(kind) + 1);
  let count k = counts.(Kind.to_int k) in
  Alcotest.(check int) "batch-fire suppressed" 0 (count Kind.batch_fire);
  Alcotest.(check int) "step spans kept" 6 (count Kind.step);
  Alcotest.(check int) "extract spans kept" 7 (count Kind.extract)

let test_suppress_mask_unit () =
  let t = Tracer.create ~suppress:[ Kind.rule_fire ] ~level:Level.Spans () in
  Alcotest.(check bool) "suppressed" true (Tracer.suppressed t Kind.rule_fire);
  Alcotest.(check bool) "enabled excludes it" false
    (Tracer.enabled t Kind.rule_fire);
  Alcotest.(check bool) "others stay enabled" true (Tracer.enabled t Kind.step);
  Tracer.set_suppressed t [ Kind.step ];
  Alcotest.(check bool) "mask replaced" true (Tracer.enabled t Kind.rule_fire);
  Alcotest.(check bool) "step now masked" false (Tracer.enabled t Kind.step);
  (* Registered (custom) kinds share the id space and mask like any
     builtin while they fit in the mask word. *)
  let custom = Tracer.register_kind t "bench-phase" in
  Alcotest.(check bool) "custom kind on by default" true
    (Tracer.enabled t custom);
  Tracer.set_suppressed t [ custom ];
  Alcotest.(check bool) "custom kind maskable" false (Tracer.enabled t custom);
  (* Suppression only mutes recording, it never makes spans_on lie. *)
  Alcotest.(check bool) "spans still on" true (Tracer.spans_on t)

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
        tc "suppress mask drops batch-fire only" `Quick
          test_suppress_mask_engine;
        tc "suppress mask unit contract" `Quick test_suppress_mask_unit;
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
