(* The benchmark driver: one workload, one seed, one run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --serve-bin PATH --tmp DIR --out DIR

   With --trace 0 it prints the end-to-end metrics, measured with no
   spans recorded; with --trace 1 it prints the per-layer metrics the
   traced run measured on this workload.  Detail lines come first; the
   last line of stdout is the JSON result.  perfbench/run.py builds
   this, calls it, and checks its metrics against BENCHMARK.json. *)

open Util

let batch_threads = 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and serve_bin = ref "" and tmp = ref "" and out = ref "" in
  let round = ref false and threads = ref batch_threads in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve_sessions | closure_join | pvwatts_csv");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "how long to measure");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
      ("--serve-bin", Arg.Set_string serve_bin, "the built jstar-serve binary");
      ("--tmp", Arg.Set_string tmp, "fresh scratch directory");
      ("--out", Arg.Set_string out, "directory for the traced run's span file");
      ("--round", Arg.Set round, "batch child: run one round, print it");
      ("--threads", Arg.Set_int threads, "batch child: engine threads");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 ...";
  let traced = !trace = 1 in
  let write_spans_to name =
    if traced && !out <> "" then begin
      mkdir_p !out;
      let path = Filename.concat !out name in
      write_spans path;
      note "spans: %d written to %s" !n_spans path
    end
  in
  let batch_job () =
    match !workload with
    | "closure_join" -> Closure.job (Closure.generate ~seed:!seed)
    | "pvwatts_csv" -> Pvwatts_csv.job (Pvwatts_csv.generate ~seed:!seed)
    | w -> failwith ("not a batch workload: " ^ w)
  in
  if !round then begin
    (* the runtime setting of the program's own entry points
       (jstar-demo, jstar-serve) *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
    let job = batch_job () in
    tracing := traced;
    let r = Batch.round job ~threads:!threads in
    tracing := false;
    List.iter print_endline (span_lines ());
    print_endline (Batch.round_line r);
    exit 0
  end;
  let on_signal _ =
    Serve.kill_all ();
    exit 3
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Serve.kill_all;
  mkdir_p !tmp;
  let batch ~extra =
    if traced then
      Batch.run_traced ~workload:!workload ~seed:!seed ~threads:batch_threads
        ~seconds:!seconds ~extra
    else
      Batch.run_e2e ~workload:!workload ~seed:!seed ~threads:batch_threads
        ~seconds:!seconds
  in
  let run () =
    match !workload with
    | "serve_sessions" ->
        if !serve_bin = "" || not (Sys.file_exists !serve_bin) then
          failwith "--serve-bin must name the built jstar-serve binary";
        if traced then Serve.run_traced ~bin:!serve_bin ~tmp:!tmp ~seed:!seed
        else Serve.run_e2e ~bin:!serve_bin ~tmp:!tmp ~seed:!seed ~seconds:!seconds
    | "closure_join" ->
        Closure.describe (Closure.generate ~seed:!seed);
        batch ~extra:(fun () -> ([], true))
    | "pvwatts_csv" ->
        let input = Pvwatts_csv.generate ~seed:!seed in
        Pvwatts_csv.describe input;
        batch ~extra:(fun () ->
            let runs = List.init 3 (fun _ -> Pvwatts_csv.parse_alone input) in
            ( [ metric "csv.parse_s" "s" (median (List.map fst runs)) ],
              List.for_all snd runs ))
    | w -> failwith ("unknown workload " ^ w)
  in
  let outcome =
    try run ()
    with e ->
      note "run failed: %s" (Printexc.to_string e);
      { attempted = 1; failed = 1; correct = false; metrics = [] }
  in
  write_spans_to (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed);
  print_endline (result_line outcome)
