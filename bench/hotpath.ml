(* Hot-path ablation: firing grain ([Config.grain], adaptive chunks vs
   the §5.2 one task per (tuple, rule)) plus the continuous profiler and
   the diagnostics plane — measured on a synthetic PvWatts-shaped
   pipeline that is all puts, dedup probes and store inserts, i.e. the
   paths the grain touches.  (The put-batching, batch-fire and
   specialized-comparator knobs this bench once priced are retired:
   chunked firing into per-unit arenas and schema-compiled comparators
   are now the only path, so their wins are baked into every row.)

   Shape (one table per lifecycle stage, §3 / Fig 3):
     Req(r)            one class of R requests; each generator puts its
                       slice of rows TWICE, so half the route_puts are
                       Delta dedup probes;
     Row(g, i, v, ...) one par-class of N wide rows (8 columns, like a
                       PvWatts weather row) through Delta into a
                       hash-indexed Gamma (the PvWatts(year,month)
                       store); each row then re-puts itself twice — pure
                       Gamma dedup probes, where a cached hash computed
                       back at Delta-insert time is reused — and puts a
                       coarse summary key, 64 rows per key, so Phase-B
                       puts are dedup-dominated (the SumMonth recompute
                       of §6.2);
     Sum(g, b)         skiplist Gamma + output table: the emitted lines
                       double as a cross-configuration determinism check.

   Reports per-configuration wall time and throughput, the Auto_grain
   vs Fixed 1 ratio, and writes the same numbers as machine-readable
   JSON (stdout + BENCH_hotpath.json). *)

open Jstar_core

let groups = 256
let rows_per_sum = 64

(* Shared atoms for the string column — rows point at one of twelve
   strings, as a real PvWatts month column would. *)
let months =
  [|
    "jan"; "feb"; "mar"; "apr"; "may"; "jun"; "jul"; "aug"; "sep"; "oct";
    "nov"; "dec";
  |]
  |> Array.map (fun m -> Value.Str m)

let rows_n () =
  match !Util.scale with
  | Util.Quick -> 40_000
  | Util.Default -> 200_000
  | Util.Paper -> 1_000_000

let requests = 16

let build ?(prov_optout = false) () =
  let n = rows_n () in
  let p = Program.create () in
  let req =
    Program.table p "Req"
      ~columns:Schema.[ int_col "r" ]
      ~orderby:Schema.[ Lit "Req" ]
      ()
  in
  let row =
    Program.table p "Row"
      ~columns:
        Schema.
          [
            int_col "g"; int_col "i"; int_col "v"; string_col "month";
            int_col "dni"; int_col "dhi"; int_col "temp"; int_col "wind";
            int_col "hour";
          ]
      ~orderby:Schema.[ Lit "Row"; Par "g" ]
      ()
  in
  let sum =
    Program.table p "Sum"
      ~columns:Schema.[ int_col "g"; int_col "b" ]
      ~orderby:Schema.[ Lit "Sum"; Par "g" ]
      ()
  in
  Program.order p [ "Req"; "Row"; "Sum" ];
  let per_req = n / requests in
  (* With [prov_optout] the two hot rules opt out of lineage capture
     ([Rule.make ~provenance:false]) — provcost's "prov-optout" row
     prices exactly that escape hatch. *)
  let provenance = not prov_optout in
  Program.rule p "generate" ~provenance ~trigger:req (fun ctx tup ->
      let r = Tuple.int tup "r" in
      for k = r * per_req to ((r + 1) * per_req) - 1 do
        let t =
          Tuple.make row
            [|
              Value.Int (k mod groups); Value.Int k; Value.Int (k land 1023);
              months.(k mod 12);
              Value.Int (k * 7 land 255); Value.Int (k * 13 land 511);
              Value.Int (k * 31 land 127); Value.Int (k * 3 land 63);
              Value.Int (k lsr 8);
            |]
        in
        (* Twice: the second put is a pure Delta dedup probe. *)
        ctx.Rule.put t;
        ctx.Rule.put t
      done);
  Program.rule p "summarize" ~provenance ~trigger:row (fun ctx tup ->
      let g = Tuple.int tup "g" and i = Tuple.int tup "i" in
      (* The triggering row is already in Gamma (Phase A of this step),
         so these re-puts are pure [Store.mem] probes of the wide row —
         the cached-hash path. *)
      ctx.Rule.put tup;
      ctx.Rule.put tup;
      (* Rows of group [g] are i = g, g+groups, g+2*groups, ...: dividing
         the within-group position by [rows_per_sum] sends 64 rows to the
         same summary key, so most of these puts are dedup probes. *)
      ctx.Rule.put
        (Tuple.make sum
           [| Value.Int g; Value.Int (i / groups / rows_per_sum) |]));
  Program.output p sum (fun t ->
      Printf.sprintf "sum %d %d" (Tuple.int t "g") (Tuple.int t "b"));
  let init =
    List.init requests (fun r -> Tuple.make req [| Value.Int r |])
  in
  (p, init)

type knobs = {
  label : string;
  auto_grain : bool;
  profile : bool; (* continuous profiler (on by default in parallel configs) *)
  diag : bool; (* threshold alerts evaluated at every step barrier *)
}

let config_of k =
  let base =
    {
      (Config.parallel ~threads:2 ()) with
      Config.stores = [ ("Row", Store.Hash_index 1) ];
      (* The profiler is priced by its own row, so the knob rows switch
         it off explicitly (Config.parallel defaults it on). *)
      profile = k.profile;
      grain = (if k.auto_grain then Config.Auto_grain else Config.Fixed 1);
    }
  in
  if not k.diag then base
  else begin
    (* The diagnostics plane at bench prices: three alert rules (one
       threshold, one EMA rate, one absence) read the registry at every
       step barrier.  The always-on journal is in every row already,
       and an armed flight recorder is free until something dumps — the
       hook evaluation is the only recurring cost to measure. *)
    let alerts =
      Jstar_obs.Alerts.create
        [
          Jstar_obs.Alerts.rule ~for_:4 ~name:"puts"
            (Jstar_obs.Alerts.Threshold
               {
                 metric = "table.Row.puts";
                 cmp = Jstar_obs.Alerts.Gt;
                 value = 1e12;
               });
          Jstar_obs.Alerts.rule ~name:"delta"
            (Jstar_obs.Alerts.Rate
               {
                 metric = "delta.size";
                 cmp = Jstar_obs.Alerts.Gt;
                 value = 1e12;
               });
          Jstar_obs.Alerts.rule ~name:"gone"
            (Jstar_obs.Alerts.Absent { metric = "table.Row.puts" });
        ]
    in
    {
      base with
      Config.step_hook =
        Some (fun step m -> Jstar_obs.Alerts.eval alerts ~step m);
    }
  end

let configurations =
  [
    { label = "fixed-grain"; auto_grain = false; profile = false; diag = false };
    { label = "auto-grain"; auto_grain = true; profile = false; diag = false };
    (* auto-grain plus the continuous profiler: the overhead row backing
       the "profiling is cheap enough to leave on" claim. *)
    { label = "profiler"; auto_grain = true; profile = true; diag = false };
    (* profiler plus per-barrier alert evaluation and an armed flight
       recorder: the "black box costs nothing you can measure" row. *)
    { label = "diagnostics"; auto_grain = true; profile = true; diag = true };
  ]

let rounds = 4

let run () =
  let reference = ref None in
  let tuples = ref 0 in
  let run_once k =
    let p, init = build () in
    let t0 = Jstar_obs.Monotonic.now_ns () in
    let r = Engine.run_program ~init p (config_of k) in
    (r, Jstar_obs.Monotonic.since_s t0)
  in
  (* Warmup pass, doubling as the cross-configuration determinism
     check: every knob combination must print the same lines — the
     whole point of keeping the wins Config-side. *)
  List.iter
    (fun k ->
      let r, _ = run_once k in
      tuples := r.Engine.tuples_processed;
      match !reference with
      | None -> reference := Some r.Engine.outputs
      | Some ref_out ->
          if ref_out <> r.Engine.outputs then
            failwith ("hotpath: outputs diverge under " ^ k.label))
    configurations;
  (* Timed rounds are interleaved across configurations (round-robin,
     best-of-N per configuration) so background load drift hits every
     configuration equally instead of whichever ran last. *)
  let best = Hashtbl.create 8 in
  for _ = 1 to rounds do
    List.iter
      (fun k ->
        let r, t = run_once k in
        (match Sys.getenv_opt "HOTPATH_DEBUG" with
        | Some _ ->
            Printf.printf
              "DEBUG %s: tuples=%d steps=%d dins=%d ddup=%d t=%.3f\n%!"
              k.label r.Engine.tuples_processed r.Engine.steps
              r.Engine.delta_inserted r.Engine.delta_deduped t
        | None -> ());
        match Hashtbl.find_opt best k.label with
        | Some t' when t' <= t -> ()
        | _ -> Hashtbl.replace best k.label t)
      configurations
  done;
  let rows =
    List.map
      (fun k ->
        let t = Hashtbl.find best k.label in
        (k, t, float_of_int !tuples /. t))
      configurations
  in
  let t_of label =
    let _, t, _ = List.find (fun (k, _, _) -> k.label = label) rows in
    t
  in
  let ratio = t_of "fixed-grain" /. t_of "auto-grain" in
  let profiler_overhead = (t_of "profiler" /. t_of "auto-grain") -. 1.0 in
  let diag_overhead = (t_of "diagnostics" /. t_of "profiler") -. 1.0 in
  Util.heading
    (Printf.sprintf "Hot-path ablation (%d rows, %d groups, 2 threads)"
       (rows_n ()) groups);
  Util.bar_chart
    ~title:"wall time per knob combination" ~unit:"s"
    (List.map (fun (k, t, _) -> (k.label, t)) rows);
  Util.note "Auto_grain vs Fixed 1: %.2fx throughput" ratio;
  Util.note "continuous profiler overhead vs auto-grain: %+.1f%%"
    (100.0 *. profiler_overhead);
  Util.note "alerts + recorder overhead vs profiler: %+.1f%%"
    (100.0 *. diag_overhead);
  let json =
    let b = Buffer.create 512 in
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf "  \"bench\": \"hotpath\",\n  \"meta\": %s,\n  \
                       \"rows\": %d,\n"
         (Util.meta_json ()) (rows_n ()));
    Buffer.add_string b
      (Printf.sprintf "  \"groups\": %d,\n  \"threads\": 2,\n" groups);
    Buffer.add_string b
      (Printf.sprintf "  \"speedup_auto_vs_fixed_grain\": %.4f,\n" ratio);
    Buffer.add_string b
      (Printf.sprintf "  \"profiler_overhead_vs_auto_grain\": %.4f,\n"
         profiler_overhead);
    Buffer.add_string b
      (Printf.sprintf "  \"diagnostics_overhead_vs_profiler\": %.4f,\n"
         diag_overhead);
    Buffer.add_string b "  \"configurations\": [\n";
    List.iteri
      (fun i (k, t, thr) ->
        Buffer.add_string b
          (Printf.sprintf
             "    {\"label\": \"%s\", \"auto_grain\": %b, \
              \"profile\": %b, \"diagnostics\": %b, \"seconds\": %.6f, \
              \"tuples_per_second\": %.1f}%s\n"
             k.label k.auto_grain k.profile k.diag t thr
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string b "  ]\n}\n";
    Buffer.contents b
  in
  print_string json;
  let oc = open_out "BENCH_hotpath.json" in
  output_string oc json;
  close_out oc;
  Util.note "JSON written to BENCH_hotpath.json"
