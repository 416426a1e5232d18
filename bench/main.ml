(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6) plus ablations and micro-benchmarks.

   Usage:
     dune exec bench/main.exe                    # everything, default scale
     dune exec bench/main.exe -- fig8 fig12      # selected targets
     dune exec bench/main.exe -- --scale quick all
     dune exec bench/main.exe -- --scale paper fig6   # publication sizes

   Absolute numbers will differ from the paper (different language,
   machine and era); the *shapes* — who wins, by what factor, which
   programs scale — are the reproduction target.  See EXPERIMENTS.md. *)

(* A bounded all-up check: the two headline figures plus the hot-path
   ablation at smoke scale — `dune build @bench-smoke`. *)
let smoke () =
  Util.scale := Util.Quick;
  Fig8.run ();
  Fig12.run ();
  Hotpath.run ()

let targets : (string * string * (unit -> unit)) list =
  [
    ("fig6", "absolute sequential speed, JStar vs hand-coded", Fig6.run);
    ("sec62", "the -noDelta optimisation (23.0s -> 8.44s)", Sec62.run);
    ("fig8", "PvWatts speedup vs pool size x Gamma store", Fig8.run);
    ("sec63", "PvWatts phase breakdown + Amdahl bound", Sec63.run);
    ("table1", "Disruptor options and tuning alternatives", Table1.run);
    ("fig10", "Disruptor PvWatts vs sequential, two input orders", Fig10.run);
    ("fig11", "MatrixMult speedup vs pool size", Fig11.run);
    ("fig12", "Dijkstra speedup vs pool size", Fig12.run);
    ("fig13", "Median speedup vs pool size", Fig13.run);
    ("ablate", "design-choice ablations beyond the paper", Ablate.run);
    ("micro", "Bechamel micro-benchmarks of the substrates", Micro.run);
    ("hotpath", "hot-path knob ablation (batching/grain) + JSON", Hotpath.run);
    ("joins", "batched vs per-tuple rule firing on transitive closure + JSON", Joins.run);
    ("provcost", "provenance/audit/digest overhead + JSON", Provcost.run);
    ("persist", "WAL append overhead + recovery time + JSON", Persist.run);
    ( "serve",
      "jstar-serve saturation grid + branch/merge + backpressure + JSON",
      Serve.run );
    ("smoke", "quick-scale fig8 + fig12 + hotpath, bounded runtime", smoke);
  ]

let usage () =
  Fmt.pr "targets:@.";
  List.iter (fun (n, d, _) -> Fmt.pr "  %-8s %s@." n d) targets;
  Fmt.pr "  %-8s %s@." "all" "run every target (default)";
  Fmt.pr "options: --scale quick|default|paper  --trace-out FILE@."

let () =
  Util.tune_runtime ();
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | "--scale" :: s :: rest ->
        Util.scale := Util.parse_scale s;
        parse acc rest
    | "--trace-out" :: path :: rest ->
        Util.trace_out := Some path;
        parse acc rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | t :: rest -> parse (t :: acc) rest
    | [] -> List.rev acc
  in
  let chosen = parse [] args in
  let chosen = if chosen = [] || chosen = [ "all" ] then List.map (fun (n, _, _) -> n) targets else chosen in
  let t0 = Unix.gettimeofday () in
  Fmt.pr "jstar benchmark harness — %d core(s), scale=%s@." Util.cores
    (match !Util.scale with
    | Util.Quick -> "quick"
    | Util.Default -> "default"
    | Util.Paper -> "paper");
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) targets with
      | Some (_, _, run) -> run ()
      | None ->
          Fmt.pr "unknown target %s@." name;
          usage ();
          exit 1)
    chosen;
  Fmt.pr "@.total bench time: %.1fs@." (Unix.gettimeofday () -. t0)
