(* The batch workloads' runner.  One round is a complete job through the
   engine's public session API, in a fresh process: build the program,
   Program.freeze and Engine.start (set-up), then Engine.feed,
   Engine.drain and an engine-free check of the result (the timed work),
   then Engine.finish.

   Each round runs in its own child process (this executable with
   --round), as a user runs a batch job: the heap starts empty every
   time, so rounds do not inherit each other's garbage, and the child's
   VmHWM is the peak memory of exactly one job.  A run repeats rounds
   until its time is up and reports medians, so one slow round moves
   nothing. *)

open Jstar_core
open Util

type job = {
  build : unit -> Program.t * (Program.frozen -> Tuple.t list);
      (** the program, and its input tuples over the frozen schemas *)
  config : int -> Config.t;  (** by thread count *)
  check : Engine.session -> string list -> bool;
      (** verify the drained output (and Gamma) against the reference *)
}

type round = {
  ok : bool;
  setup : float;
  freeze : float;
  start : float;
  feed : float;
  drain : float;
  wall : float;
  drain_cpu : float;  (** process CPU-seconds across Engine.drain *)
  gc_minor : float;
  gc_major : float;
  gc_promoted_mb : float;
  fed : float;
  steps : float;
  tuples : float;
  inserted : float;
  deduped : float;
  rss_mb : float;
}

(* -- the child: one round ---------------------------------------------- *)

let round job ~threads =
  let root = open_span (Printf.sprintf "rung.engine_%dt" threads) in
  let parent = fst root in
  let t0 = now_ns () in
  let program, inputs_of = job.build () in
  let frozen, freeze =
    span ~parent "Program.freeze" (fun () -> Program.freeze program)
  in
  let session, start =
    span ~parent "Engine.start" (fun () -> Engine.start frozen (job.config threads))
  in
  let setup = since_s t0 in
  let inputs = inputs_of frozen in
  let t1 = now_ns () in
  let (), feed = span ~parent "Engine.feed" (fun () -> Engine.feed session inputs) in
  let gc0 = Gc.quick_stat () and cpu0 = self_cpu_s () in
  let lines, drain = span ~parent "Engine.drain" (fun () -> Engine.drain session) in
  let drain_cpu = self_cpu_s () -. cpu0 and gc1 = Gc.quick_stat () in
  let ok = job.check session lines in
  let wall = since_s t1 in
  let r, _ = span ~parent "Engine.finish" (fun () -> Engine.finish session) in
  ignore (close_span root);
  {
    ok;
    setup;
    freeze;
    start;
    feed;
    drain;
    wall;
    drain_cpu;
    gc_minor = float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
    gc_major = float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections);
    gc_promoted_mb =
      (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
      *. float_of_int (Sys.word_size / 8)
      /. 1048576.;
    fed = float_of_int (List.length inputs);
    steps = float_of_int r.Engine.steps;
    tuples = float_of_int r.Engine.tuples_processed;
    inserted = float_of_int r.Engine.delta_inserted;
    deduped = float_of_int r.Engine.delta_deduped;
    rss_mb = peak_rss_mb "self";
  }

let fields r =
  [
    r.setup; r.freeze; r.start; r.feed; r.drain; r.wall; r.drain_cpu;
    r.gc_minor; r.gc_major; r.gc_promoted_mb; r.fed; r.steps; r.tuples;
    r.inserted; r.deduped; r.rss_mb;
  ]

let round_line r =
  "round " ^ string_of_bool r.ok ^ " "
  ^ String.concat " " (List.map (Printf.sprintf "%.17g") (fields r))

let parse_round line =
  match String.split_on_char ' ' line with
  | "round" :: ok :: rest -> (
      match List.map float_of_string rest with
      | [ setup; freeze; start; feed; drain; wall; drain_cpu; gc_minor;
          gc_major; gc_promoted_mb; fed; steps; tuples; inserted; deduped;
          rss_mb ] ->
          Some
            {
              ok = bool_of_string ok;
              setup; freeze; start; feed; drain; wall; drain_cpu; gc_minor;
              gc_major; gc_promoted_mb; fed; steps; tuples; inserted; deduped;
              rss_mb;
            }
      | _ -> None
      | exception Failure _ -> None)
  | _ -> None

(* -- the parent ---------------------------------------------------------- *)

(* Run one round in a child process; [None] (reported) when it fails to
   produce a result line. *)
let spawn_round ~workload ~seed ~threads ~trace =
  let args =
    [|
      Sys.executable_name; "--round"; "--workload"; workload; "--seed";
      string_of_int seed; "--threads"; string_of_int threads; "--trace";
      (if trace then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  match (status, List.find_map parse_round !lines) with
  | Unix.WEXITED 0, Some r ->
      import_span_lines
        (List.filter (String.starts_with ~prefix:"span ") (List.rev !lines));
      Some r
  | _ ->
      List.iter (note "round output: %s") (List.rev !lines);
      note "round failed: child exited abnormally or printed no result";
      None

let useful_put_ratio r =
  let attempts = r.inserted +. r.deduped in
  if attempts = 0. then 1. else r.inserted /. attempts

let describe_puts r =
  note "puts: %.0f attempted, %.1f%% duplicates; %.0f tuples processed in %.0f steps"
    (r.inserted +. r.deduped)
    (100. *. (1. -. useful_put_ratio r))
    r.tuples r.steps

(* End-to-end run: one warm-up round (checked, not timed), then rounds
   until [seconds] have passed (at least 3). *)
let run_e2e ~workload ~seed ~threads ~seconds =
  let rounds = ref [] and attempted = ref 0 and failed = ref 0 in
  let go () =
    incr attempted;
    match spawn_round ~workload ~seed ~threads ~trace:false with
    | Some r ->
        if not r.ok then begin
          incr failed;
          note "round %d: output check failed" !attempted
        end;
        Some r
    | None ->
        incr failed;
        None
  in
  ignore (go ());
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  while (List.length !rounds < 3 || now_ns () < t_end) && !failed = 0 do
    Option.iter (fun r -> rounds := r :: !rounds) (go ())
  done;
  let rounds = List.rev !rounds in
  (match rounds with r :: _ -> describe_puts r | [] -> ());
  let med f = median (List.map f rounds) in
  let drains_ms = List.map (fun r -> r.drain *. 1e3) rounds in
  (* One drain per job cannot support a 99th percentile: report the
     highest percentile with at least ten samples beyond it, and never
     one below the median. *)
  let n = List.length drains_ms in
  let tail_q = Float.max 0.5 (float_of_int (n - 10) /. float_of_int (max 1 n)) in
  note "rounds %d, one drain each: drain_p99_ms reports their p%.0f" n
    (100. *. tail_q);
  note "round walls (s): %s"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall) rounds));
  {
    attempted = !attempted;
    failed = !failed;
    correct = !failed = 0 && rounds <> [];
    metrics =
      [
        metric "setup_s" "s" (med (fun r -> r.setup));
        metric "wall_s" "s" (med (fun r -> r.wall));
        metric "drain_p50_ms" "ms" (median drains_ms);
        metric "drain_p99_ms" "ms"
          (Float.max (median drains_ms) (percentile tail_q drains_ms));
        (* a batch job keeps no durable state: it recovers by running
           again from its input, set-up included *)
        metric "recover_s" "s" (med (fun r -> r.setup +. r.wall));
        metric "peak_rss_mb" "MB" (med (fun r -> r.rss_mb));
      ];
  }

(* Traced run: interleaved untraced (the tracing-overhead baseline),
   traced, and traced 1-thread rounds, repeated until [seconds] have
   passed (at least twice); per-layer metrics are medians over the
   traced rounds. *)
let run_traced ~workload ~seed ~threads ~seconds ~extra =
  let untraced = ref [] and traced = ref [] and single = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let go acc ~trace ~threads =
    incr attempted;
    match spawn_round ~workload ~seed ~threads ~trace with
    | Some r ->
        if not r.ok then incr failed;
        acc := r :: !acc
    | None -> incr failed
  in
  let t_end = now_ns () + int_of_float (seconds *. 1e9) in
  while (List.length !traced < 2 || now_ns () < t_end) && !failed = 0 do
    go untraced ~trace:false ~threads;
    go traced ~trace:true ~threads;
    go single ~trace:true ~threads:1
  done;
  let tr = !traced in
  (match tr with r :: _ -> describe_puts r | [] -> ());
  let med f l = median (List.map f l) in
  let extra_metrics, extra_ok = extra () in
  let drain_s = med (fun r -> r.drain) tr in
  let wall = med (fun r -> r.wall) tr and base = med (fun r -> r.wall) !untraced in
  note "tracing overhead: traced wall %.4f s - untraced wall %.4f s = %+.4f s"
    wall base (wall -. base);
  {
    attempted = !attempted;
    failed = (!failed + if extra_ok then 0 else 1);
    correct = !failed = 0 && extra_ok && tr <> [];
    metrics =
      [
        metric "causality.freeze_ms" "ms" (1e3 *. med (fun r -> r.freeze) tr);
        metric "core.start_ms" "ms" (1e3 *. med (fun r -> r.start) tr);
        metric "core.feed_s" "s" (med (fun r -> r.feed) tr);
        metric "core.drain_s" "s" drain_s;
        metric "core.steps" "count" (med (fun r -> r.steps) tr);
        metric "core.tuples" "count" (med (fun r -> r.tuples) tr);
        metric "core.feed_us_per_tuple" "us"
          (med (fun r -> 1e6 *. r.feed /. max 1. r.fed) tr);
        metric "core.drain_us_per_step" "us"
          (med (fun r -> 1e6 *. r.drain /. max 1. r.steps) tr);
        metric "core.useful_put_ratio" "ratio" (med useful_put_ratio tr);
        metric "core.put_attempts" "count" (med (fun r -> r.inserted +. r.deduped) tr);
        metric "sched.speedup_2t" "x" (med (fun r -> r.drain) !single /. drain_s);
        metric "sched.busy_cores" "cores" (med (fun r -> r.drain_cpu /. r.drain) tr);
        metric "gc.minor_collections" "count" (med (fun r -> r.gc_minor) tr);
        metric "gc.major_collections" "count" (med (fun r -> r.gc_major) tr);
        metric "gc.promoted_mb" "MB" (med (fun r -> r.gc_promoted_mb) tr);
        metric "trace.overhead_s" "s" (wall -. base);
      ]
      @ extra_metrics;
  }
