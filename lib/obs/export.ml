(* Exporters over a tracer + metrics registry:

   - Chrome trace-event JSON (the object form with "traceEvents"),
     loadable in Perfetto / chrome://tracing — one track per domain,
     balanced B/E duration pairs, instants as 'i' events;
   - CSV metrics dump (delegates to Metrics.to_csv);
   - a console reporter: the per-kind span breakdown with percentages
     (what Phase_timer.pp used to print for bench phases) followed by
     the metrics snapshot (which covers Table_stats.pp_snapshot once
     the engine registers its per-table counters). *)

(* -- Chrome trace ---------------------------------------------------- *)

let us_of_ns ns = float_of_int ns /. 1e3

type emitter = { buf : Buffer.t; mutable first : bool }

let event em fields =
  if em.first then em.first <- false else Buffer.add_char em.buf ',';
  Buffer.add_char em.buf '\n';
  Json.to_buffer em.buf (Json.Obj fields)

let duration_event em ~name ~ph ~ts_ns ~tid ~arg =
  event em
    [
      ("name", Json.Str name);
      ("ph", Json.Str ph);
      ("ts", Json.Num (us_of_ns ts_ns));
      ("pid", Json.Num 0.0);
      ("tid", Json.Num (float_of_int tid));
      ("args", Json.Obj [ ("arg", Json.Num (float_of_int arg)) ]);
    ]

let instant_event em ~name ~ts_ns ~tid ~arg =
  event em
    [
      ("name", Json.Str name);
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("ts", Json.Num (us_of_ns ts_ns));
      ("pid", Json.Num 0.0);
      ("tid", Json.Num (float_of_int tid));
      ("args", Json.Obj [ ("arg", Json.Num (float_of_int arg)) ]);
    ]

let metadata_event em ~name ~tid ~value =
  event em
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.Num 0.0);
      ("tid", Json.Num (float_of_int tid));
      ("args", Json.Obj [ ("name", Json.Str value) ]);
    ]

(* One ring = one track.  Spans are stored as complete (start, dur)
   records, so B/E pairs are balanced by construction: sort spans by
   (start asc, dur desc) and replay them against a stack, closing every
   span that ends before the next one starts.  A child crossing its
   parent's end (possible only if the writer broke stack discipline) is
   clipped to the parent, keeping the output well-formed regardless.
   Instants are merged in timestamp order. *)
let emit_ring em tracer ring =
  let tid = Ring.tid ring in
  let spans = ref [] and instants = ref [] in
  Ring.iter ring (fun ~kind ~ts ~dur ~arg ->
      if dur >= 0 then spans := (ts, dur, kind, arg) :: !spans
      else instants := (ts, kind, arg) :: !instants);
  let spans =
    List.sort
      (fun (ts1, d1, _, _) (ts2, d2, _, _) ->
        if ts1 <> ts2 then compare ts1 ts2 else compare d2 d1)
      !spans
  and instants =
    List.sort (fun (ts1, _, _) (ts2, _, _) -> compare ts1 ts2) !instants
  in
  let pending = ref instants in
  let flush_instants upto =
    let rec go = function
      | (ts, kind, arg) :: tl when ts <= upto ->
          instant_event em ~name:(Tracer.kind_name tracer kind) ~ts_ns:ts ~tid
            ~arg;
          go tl
      | rest -> pending := rest
    in
    go !pending
  in
  (* stack of (end_ns, kind, arg) for open spans *)
  let stack = ref [] in
  let close_until limit =
    let rec go = function
      | (e, kind, arg) :: tl when e <= limit ->
          flush_instants e;
          duration_event em ~name:(Tracer.kind_name tracer kind) ~ph:"E"
            ~ts_ns:e ~tid ~arg;
          go tl
      | rest -> stack := rest
    in
    go !stack
  in
  List.iter
    (fun (ts, dur, kind, arg) ->
      close_until ts;
      flush_instants ts;
      let e =
        match !stack with
        | (parent_end, _, _) :: _ -> min (ts + dur) parent_end
        | [] -> ts + dur
      in
      duration_event em ~name:(Tracer.kind_name tracer kind) ~ph:"B" ~ts_ns:ts
        ~tid ~arg;
      stack := (e, kind, arg) :: !stack)
    spans;
  close_until max_int;
  flush_instants max_int

let chrome_trace buf tracer =
  let em = { buf; first = true } in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  metadata_event em ~name:"process_name" ~tid:0 ~value:"jstar";
  let rings = Tracer.rings tracer in
  List.iter
    (fun r ->
      metadata_event em ~name:"thread_name" ~tid:(Ring.tid r)
        ~value:(Printf.sprintf "domain-%d" (Ring.tid r)))
    rings;
  List.iter (emit_ring em tracer) rings;
  Buffer.add_string buf "\n]}\n"

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    (fun () -> output_string oc contents)
    ~finally:(fun () -> close_out oc)

let write_chrome_trace path tracer =
  let buf = Buffer.create 65536 in
  chrome_trace buf tracer;
  write_file path (Buffer.contents buf)

(* -- metrics CSV ----------------------------------------------------- *)

let metrics_csv buf metrics = Metrics.to_csv buf (Metrics.snapshot metrics)

let write_metrics_csv path metrics =
  let buf = Buffer.create 4096 in
  metrics_csv buf metrics;
  write_file path (Buffer.contents buf)

(* -- console reporter ------------------------------------------------ *)

let console ppf ?metrics tracer =
  (match Tracer.aggregate tracer with
  | [] -> ()
  | rows ->
      let total =
        List.fold_left (fun acc (_, _, ns) -> acc + ns) 0 rows
      in
      Fmt.pf ppf "spans (%d domain track(s), %d dropped):@."
        (List.length (Tracer.rings tracer))
        (Tracer.dropped tracer);
      List.iter
        (fun (name, count, ns) ->
          Fmt.pf ppf "  %-28s %9d ev %10.3fms  %5.1f%%@." name count
            (float_of_int ns /. 1e6)
            (if total > 0 then 100.0 *. float_of_int ns /. float_of_int total
             else 0.0))
        rows);
  match metrics with
  | None -> ()
  | Some m ->
      (match Metrics.snapshot m with
      | [] -> ()
      | rows ->
          Fmt.pf ppf "metrics:@.";
          Metrics.pp ppf rows)
