(* Shared benchmark machinery: wall-clock measurement with warmup
   (mirroring the paper's protocol of discarding JIT-warmup runs and
   averaging the rest), speedup tables, and the workload scale knob. *)

type scale = Quick | Default | Paper

let scale = ref Default

(* --trace-out FILE: targets that support it (sec63) write a Chrome
   trace-event JSON of their phase structure here. *)
let trace_out : string option ref = ref None

let parse_scale = function
  | "quick" -> Quick
  | "default" -> Default
  | "paper" -> Paper
  | s -> failwith ("unknown scale: " ^ s ^ " (quick|default|paper)")

(* Workload sizes per scale.  Paper scale matches the publication
   (8.76M records, 1000x1000 matrices, 1M vertices, 100M doubles) and
   takes many minutes; default keeps every figure under ~a minute on a
   small container; quick is for smoke runs. *)
let pvwatts_installations () =
  match !scale with Quick -> 5 | Default -> 30 | Paper -> 1000

let matmul_n () = match !scale with Quick -> 120 | Default -> 400 | Paper -> 1000

let dijkstra_vertices () =
  match !scale with Quick -> 10_000 | Default -> 100_000 | Paper -> 1_000_000

let median_n () =
  match !scale with Quick -> 500_000 | Default -> 4_000_000 | Paper -> 100_000_000

(* The paper sweeps pool sizes up to the machine's core count (8 and 32
   in its testbeds); we sweep to 2x ours so the saturation point shows. *)
let cores = Domain.recommended_domain_count ()

let thread_counts = [ 1; 2; 2 * cores ]

(* The paper runs the JVM "with a large heap (8Gb)" (§6.2); the OCaml 5
   analogue is a large per-domain minor heap, which reduces how often
   allocation-heavy rule firings force stop-the-world minor collections
   across domains.  Must run before any domain is spawned. *)
let tune_runtime () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 }

(* Measure wall-clock seconds: [warmup] discarded runs, then the *best*
   of [repeats] timed runs.  The paper discards JIT warm-up runs and
   averages the rest on a quiet testbed; on a small shared container the
   minimum is the robust estimator (the mean is polluted by neighbour
   noise, which only ever adds time). *)
let time ?(warmup = 1) ?(repeats = 3) f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Jstar_obs.Monotonic.now_ns () in
    ignore (f ());
    best := Float.min !best (Jstar_obs.Monotonic.since_s t0)
  done;
  !best

(* Shared run metadata stamped into every BENCH_*.json so a committed
   number can be traced to the tree, toolchain and machine shape that
   produced it. *)

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

let scale_name () =
  match !scale with Quick -> "quick" | Default -> "default" | Paper -> "paper"

let meta_json () =
  Printf.sprintf
    "{\"git_rev\": \"%s\", \"ocaml\": \"%s\", \"cores\": %d, \
     \"thread_grid\": [%s], \"scale\": \"%s\"}"
    (git_rev ()) Sys.ocaml_version cores
    (String.concat ", " (List.map string_of_int thread_counts))
    (scale_name ())

let heading title =
  Fmt.pr "@.=== %s ===@." title

let note fmt = Fmt.pr ("    " ^^ fmt ^^ "@.")

(* A speedup table over thread counts: rows of (label, time per thread
   count); speedups are relative to the 1-thread entry of each row. *)
let speedup_table ~title ~paper_note rows =
  heading title;
  Fmt.pr "%-24s" "configuration";
  List.iter (fun t -> Fmt.pr "  %8s" (Printf.sprintf "T=%d" t)) thread_counts;
  List.iter (fun t -> Fmt.pr "  %8s" (Printf.sprintf "S(%d)" t)) thread_counts;
  Fmt.pr "@.";
  List.iter
    (fun (label, times) ->
      Fmt.pr "%-24s" label;
      List.iter (fun t -> Fmt.pr "  %7.3fs" t) times;
      let base = List.hd times in
      List.iter (fun t -> Fmt.pr "  %7.2fx" (base /. t)) times;
      Fmt.pr "@.")
    rows;
  note "machine has %d core(s): expect speedup to saturate at ~%d" cores cores;
  note "%s" paper_note

let bar_chart ~title ~unit rows =
  heading title;
  let widest =
    List.fold_left (fun acc (label, _) -> max acc (String.length label)) 0 rows
  in
  let max_v = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 rows in
  List.iter
    (fun (label, v) ->
      let bar_len =
        if max_v > 0.0 then int_of_float (40.0 *. v /. max_v) else 0
      in
      Fmt.pr "  %-*s %8.3f %s %s@." widest label v unit (String.make bar_len '#'))
    rows
