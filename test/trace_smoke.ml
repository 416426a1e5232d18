(* End-to-end tracing smoke check, run from `dune runtest` via the
   @trace-smoke alias:

   1. a parallel run at [tracing = Spans] must export Chrome trace-event
      JSON that parses, passes the trace-event schema checks (required
      fields, balanced name-matched B/E pairs per track), and contains
      the engine's step / gamma-insert / batch-fire spans plus the
      pool's steal/idle scheduling events;
   2. with [tracing = Off] the instrumentation must be free: two
      interleaved groups of runs must agree to within 3% (plus a small
      absolute slack so a noisy shared container cannot flake the
      suite — the budget this guards is documented in EXPERIMENTS.md). *)

open Jstar_core
open Jstar_obs

let fail fmt = Fmt.kstr (fun m -> Fmt.epr "trace-smoke: %s@." m; exit 1) fmt

(* One wide class: Gen(0) fans out [items] Item tuples, whose rules all
   fire in one parallel Phase B — enough fork/join traffic for the pool
   to steal and park. *)
let items = 20_000

let build () =
  let p = Program.create () in
  let gen =
    Program.table p "Gen"
      ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Gen" ]
      ()
  in
  let item =
    Program.table p "Item"
      ~columns:Schema.[ int_col "i" ]
      ~orderby:Schema.[ Lit "Item" ]
      ()
  in
  Program.order p [ "Gen"; "Item" ];
  let sink = Atomic.make 0 in
  Program.rule p "fan_out" ~trigger:gen (fun ctx _ ->
      for i = 0 to items - 1 do
        ctx.Rule.put (Tuple.make item [| Value.Int i |])
      done);
  Program.rule p "work" ~trigger:item (fun _ t ->
      let i = Tuple.int t "i" in
      (* a little arithmetic so a task is not pure queue overhead *)
      let acc = ref i in
      for _ = 1 to 50 do
        acc := (!acc * 1103515245) + 12345
      done;
      ignore (Atomic.fetch_and_add sink (!acc land 1)));
  (p, gen)

let run_once config =
  let p, gen = build () in
  let t0 = Unix.gettimeofday () in
  let result =
    Engine.run_program ~init:[ Tuple.make gen [| Value.Int 0 |] ] p config
  in
  (Unix.gettimeofday () -. t0, result)

let () =
  (* -- 1. traced run exports a valid, complete Chrome trace ---------- *)
  (* [grain = Fixed 1] fires one chunk per (tuple, rule), so the mask
     and sampling checks below see a batch-fire span per firing. *)
  let spans_config =
    {
      (Config.parallel ~threads:2 ()) with
      Config.tracing = Level.Spans;
      grain = Fixed 1;
    }
  in
  let _, result = run_once spans_config in
  let buf = Buffer.create (1 lsl 16) in
  Export.chrome_trace buf result.Engine.tracer;
  let json = Buffer.contents buf in
  let summary =
    match Trace_check.validate_string json with
    | Ok s -> s
    | Error e -> fail "trace fails schema validation: %s" e
  in
  let require name =
    if Trace_check.name_count summary name = 0 then
      fail "trace is missing %S events" name
  in
  require "step";
  require "gamma-insert";
  require "batch-fire";
  if
    Trace_check.name_count summary "pool-steal"
    + Trace_check.name_count summary "pool-idle"
    = 0
  then fail "trace has neither pool-steal nor pool-idle events";
  Fmt.pr
    "trace-smoke: trace ok — %d events, %d tracks, %d spans, %d dropped@."
    summary.Trace_check.events summary.Trace_check.tracks
    summary.Trace_check.spans
    (Tracer.dropped result.Engine.tracer);

  (* -- 1b. adaptive chunks trace batch-fire spans too ---------------- *)
  let batched_spans_config =
    { (Config.parallel ~threads:2 ()) with Config.tracing = Level.Spans }
  in
  let _, batched_result = run_once batched_spans_config in
  let bbuf = Buffer.create (1 lsl 16) in
  Export.chrome_trace bbuf batched_result.Engine.tracer;
  let bsummary =
    match Trace_check.validate_string (Buffer.contents bbuf) with
    | Ok s -> s
    | Error e -> fail "adaptive-grain trace fails schema validation: %s" e
  in
  if Trace_check.name_count bsummary "batch-fire" = 0 then
    fail "adaptive-grain run traced no batch-fire spans";
  if Trace_check.name_count bsummary "step" = 0 then
    fail "adaptive-grain trace lost its step spans";

  (* -- 2. tracing = Off is free -------------------------------------- *)
  let off_config = Config.parallel ~threads:2 () in
  ignore (run_once off_config) (* warm up *);
  let samples = Array.init 10 (fun _ -> fst (run_once off_config)) in
  (* interleaved halves: even indices vs odd, so drift hits both *)
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let group parity =
    median
      (List.filteri (fun i _ -> i land 1 = parity) (Array.to_list samples))
  in
  let a = group 0 and b = group 1 in
  let tolerance = (0.03 *. Float.max a b) +. 0.150 in
  if Float.abs (a -. b) > tolerance then
    fail "Off-tracing run time unstable: %.4fs vs %.4fs (tolerance %.4fs)" a b
      tolerance;
  let spans_t, _ = run_once spans_config in

  (* -- 3. the suppress mask drops batch-fire spans only -------------- *)
  let masked_config =
    { spans_config with Config.trace_suppress = [ "batch-fire" ] }
  in
  let masked_t, masked_result = run_once masked_config in
  let mbuf = Buffer.create (1 lsl 16) in
  Export.chrome_trace mbuf masked_result.Engine.tracer;
  let msummary =
    match Trace_check.validate_string (Buffer.contents mbuf) with
    | Ok s -> s
    | Error e -> fail "masked trace fails schema validation: %s" e
  in
  if Trace_check.name_count msummary "batch-fire" <> 0 then
    fail "suppress mask leaked batch-fire events";
  if Trace_check.name_count msummary "step" = 0 then
    fail "suppress mask dropped step events too";

  (* -- 4. 1-in-N sampling thins unmasked kinds, keeps the schema ----- *)
  let full_fires = Trace_check.name_count summary "batch-fire" in
  let sampled_config = { spans_config with Config.trace_sample = 50 } in
  let sampled_t, sampled_result = run_once sampled_config in
  let sbuf = Buffer.create (1 lsl 16) in
  Export.chrome_trace sbuf sampled_result.Engine.tracer;
  let ssummary =
    match Trace_check.validate_string (Buffer.contents sbuf) with
    | Ok s -> s
    | Error e -> fail "sampled trace fails schema validation: %s" e
  in
  let sampled_fires = Trace_check.name_count ssummary "batch-fire" in
  (* [items] chunk fires: 1-in-50 must record far fewer than all of them
     (windows are per domain and per 64-way kind slot, so allow a wide
     margin) but still record some *)
  if sampled_fires = 0 then fail "sampling dropped every batch-fire event";
  if sampled_fires * 10 > full_fires then
    fail "sampling barely thinned batch-fire: %d of %d" sampled_fires
      full_fires;
  if Trace_check.name_count ssummary "step" = 0 then
    fail "sampled trace lost its step spans";
  Fmt.pr
    "trace-smoke: timing ok — Off medians %.4fs / %.4fs (tolerance %.4fs), \
     Spans run %.4fs, Spans-minus-batch-fire run %.4fs, Spans-sampled-50 \
     run %.4fs (%d of %d batch-fire events)@."
    a b tolerance spans_t masked_t sampled_t sampled_fires full_fires
