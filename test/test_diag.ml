(* Flight-recorder diagnostics: the journal ring's wrap/filter
   arithmetic, the alert hysteresis machine, bundle schema on a seeded
   causality violation and on SIGUSR1 mid-drain, and the zero-impact
   guarantee — every digest lane bit-identical with the whole
   diagnostics plane armed. *)

open Jstar_core
open Jstar_obs

let v_int i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Journal: wrap/severity-filter round-trip (qcheck) *)

let severities = [| Journal.Debug; Journal.Info; Journal.Warn; Journal.Error |]

let prop_journal_ring =
  QCheck.Test.make ~name:"journal ring wrap + severity filter round-trip"
    ~count:100
    QCheck.(pair (int_bound 3) (list_of_size Gen.(int_bound 200) (int_bound 3)))
    (fun (min_rank, sevs) ->
      let min_severity = severities.(min_rank) in
      let j = Journal.create ~capacity:16 ~min_severity () in
      List.iteri
        (fun i rank ->
          Journal.log j severities.(rank) ~comp:"test" ~event:"e"
            [ ("i", Json.Num (float_of_int i)) ])
        sevs;
      let accepted =
        List.filter (fun rank -> rank >= min_rank) sevs |> List.length
      in
      let retained = min accepted (Journal.capacity j) in
      Journal.offered j = List.length sevs
      && Journal.recorded j = accepted
      && Journal.dropped j = accepted - retained
      && List.length (Journal.entries j) = retained
      && (* entries are the newest [retained] accepted ones, oldest
            first, with strictly increasing sequence numbers and no
            entry below the filter *)
      (let es = Journal.entries j in
       let seqs = List.map (fun e -> e.Journal.j_seq) es in
       seqs = List.sort compare seqs
       && List.for_all
            (fun e -> Journal.severity_rank e.Journal.j_sev >= min_rank)
            es)
      && (* the JSON-lines form parses back line-for-line *)
      (let lines =
         String.split_on_char '\n' (String.trim (Journal.to_lines j))
       in
       (if retained = 0 then lines = [ "" ] || lines = []
        else
          List.length lines = retained
          && List.for_all
               (fun l ->
                 match Json.of_string l with
                 | Ok (Json.Obj fields) ->
                     List.mem_assoc "severity" fields
                     && List.mem_assoc "component" fields
                     && List.mem_assoc "event" fields
                 | _ -> false)
               lines)))

let test_journal_tail_and_names () =
  let j = Journal.create ~capacity:8 () in
  for i = 0 to 19 do
    Journal.info j ~comp:"c" ~event:"e" [ ("i", Json.Num (float_of_int i)) ]
  done;
  let tail = Journal.tail ~n:3 j in
  Alcotest.(check int) "tail length" 3 (List.length tail);
  Alcotest.(check (list int)) "tail is the newest three, oldest first"
    [ 17; 18; 19 ]
    (List.map (fun e -> e.Journal.j_seq) tail);
  Alcotest.(check (option string))
    "severity names round-trip" (Some "warn")
    (Option.map Journal.severity_name (Journal.severity_of_name "warn"));
  Alcotest.(check bool) "unknown name rejected" true
    (Journal.severity_of_name "loud" = None)

let test_journal_min_severity_runtime () =
  let j = Journal.create () in
  Journal.set_min_severity j Journal.Warn;
  Journal.debug j ~comp:"c" ~event:"quiet" [];
  Journal.error j ~comp:"c" ~event:"loud" [];
  Alcotest.(check int) "offered counts both" 2 (Journal.offered j);
  Alcotest.(check int) "recorded only the error" 1 (Journal.recorded j);
  match Journal.entries j with
  | [ e ] -> Alcotest.(check string) "kept the error" "loud" e.Journal.j_event
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es)

(* ------------------------------------------------------------------ *)
(* Alerts: the ok -> pending -> firing hysteresis machine *)

(* A registry with one hand-driven gauge: each eval reads the value we
   planted, so the state machine is exercised deterministically. *)
let driven_registry () =
  let v = ref 0.0 in
  let m = Metrics.create () in
  Metrics.register_gauge m ~name:"drive" (fun () -> Metrics.Float !v);
  (m, v)

let states a = List.map (fun s -> s.Alerts.a_state) (Alerts.statuses a)

let test_alert_threshold_hysteresis () =
  let m, v = driven_registry () in
  let a =
    Alerts.create
      [
        Alerts.rule ~for_:2 ~clear:2 ~name:"hot"
          (Alerts.Threshold
             { metric = "drive"; cmp = Alerts.Gt; value = 10.0 });
      ]
  in
  let eval step = Alerts.eval a ~step m in
  eval 0;
  Alcotest.(check bool) "ok below threshold" true (states a = [ Alerts.Ok ]);
  v := 11.0;
  eval 1;
  Alcotest.(check bool) "pending after first breach" true
    (states a = [ Alerts.Pending ]);
  Alcotest.(check (list string)) "pending is not firing" [] (Alerts.firing a);
  eval 2;
  Alcotest.(check bool) "firing after for=2 consecutive" true
    (states a = [ Alerts.Firing ]);
  Alcotest.(check (list string)) "firing reported" [ "hot" ] (Alerts.firing a);
  (* one good reading must NOT clear a firing alert when clear=2 *)
  v := 0.0;
  eval 3;
  Alcotest.(check bool) "still firing after one good eval" true
    (states a = [ Alerts.Firing ]);
  (* a re-breach resets the clear count *)
  v := 12.0;
  eval 4;
  v := 0.0;
  eval 5;
  Alcotest.(check bool) "re-breach reset the clear counter" true
    (states a = [ Alerts.Firing ]);
  eval 6;
  Alcotest.(check bool) "ok after clear=2 consecutive good" true
    (states a = [ Alerts.Ok ]);
  Alcotest.(check bool) "transitions counted" true (Alerts.transitions a >= 3);
  Alcotest.(check int) "every eval counted" 7 (Alerts.evals a)

let test_alert_pending_interrupted () =
  (* A breach that does not persist for [for_] evals never fires. *)
  let m, v = driven_registry () in
  let a =
    Alerts.create
      [
        Alerts.rule ~for_:3 ~name:"flap"
          (Alerts.Threshold
             { metric = "drive"; cmp = Alerts.Gt; value = 1.0 });
      ]
  in
  v := 2.0;
  Alerts.eval a ~step:0 m;
  Alerts.eval a ~step:1 m;
  v := 0.0;
  Alerts.eval a ~step:2 m;
  Alcotest.(check bool) "flap returned to ok, never fired" true
    (states a = [ Alerts.Ok ]);
  Alcotest.(check (list string)) "nothing firing" [] (Alerts.firing a)

let test_alert_absent_and_rate () =
  let m, v = driven_registry () in
  let a =
    Alerts.create
      [
        Alerts.rule ~name:"gone" (Alerts.Absent { metric = "missing" });
        Alerts.rule ~name:"fast"
          (Alerts.Rate { metric = "drive"; cmp = Alerts.Gt; value = 5.0 });
      ]
  in
  Alerts.eval a ~step:0 m;
  let by_name n =
    List.find (fun s -> s.Alerts.a_name = n) (Alerts.statuses a)
  in
  Alcotest.(check bool) "absent fires on a missing metric" true
    ((by_name "gone").Alerts.a_state = Alerts.Firing);
  Alcotest.(check bool) "rate needs two readings" true
    ((by_name "fast").Alerts.a_state = Alerts.Ok);
  (* big per-step jumps push the EMA over the bound *)
  for step = 1 to 8 do
    v := !v +. 100.0;
    Alerts.eval a ~step m
  done;
  Alcotest.(check bool) "rate fires on sustained slope" true
    ((by_name "fast").Alerts.a_state = Alerts.Firing);
  (* prometheus exposition lists both non-ok alerts *)
  let prom = Alerts.prom_lines a in
  List.iter
    (fun needle ->
      let contained =
        let nl = String.length needle and pl = String.length prom in
        let rec scan i =
          i + nl <= pl && (String.sub prom i nl = needle || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool) ("prom line mentions " ^ needle) true contained)
    [ "alertname=\"gone\""; "alertname=\"fast\""; "alertstate=\"firing\"" ]

let test_alert_parse_spec () =
  (match Alerts.parse_spec "hot:engine.steps>100:for=3:clear=2" with
  | Ok r ->
      Alcotest.(check string) "name" "hot" r.Alerts.r_name;
      Alcotest.(check int) "for" 3 r.Alerts.r_for;
      Alcotest.(check int) "clear" 2 r.Alerts.r_clear;
      (match r.Alerts.r_cond with
      | Alerts.Threshold { metric; cmp = Alerts.Gt; value } ->
          Alcotest.(check string) "metric" "engine.steps" metric;
          Alcotest.(check (float 0.0)) "value" 100.0 value
      | _ -> Alcotest.fail "expected a threshold condition")
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Alerts.parse_spec "slow:rate(table.T.puts)<0.5" with
  | Ok { Alerts.r_cond = Alerts.Rate { cmp = Alerts.Lt; _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "expected a rate condition"
  | Error e -> Alcotest.failf "rate parse failed: %s" e);
  (match Alerts.parse_spec "gone:absent(delta.size)" with
  | Ok { Alerts.r_cond = Alerts.Absent { metric = "delta.size" }; _ } -> ()
  | _ -> Alcotest.fail "expected an absent condition");
  List.iter
    (fun bad ->
      match Alerts.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad)
    [ ""; "noname"; "x:m>"; "x:m>abc"; "x:m>1:for=0"; "x:rate(m" ]

(* ------------------------------------------------------------------ *)
(* A one-table chain: each T(x) puts T(x + 1) up to [last], one class
   per step. *)
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
  (p, t)

let tmp_counter = ref 0

(* CI points JSTAR_FLIGHT_DIR into the workspace so bundles written by
   a failing run survive as an uploadable artifact; locally the bundles
   go to tmp and are removed. *)
let fresh_dir prefix =
  incr tmp_counter;
  let parent =
    match Sys.getenv_opt "JSTAR_FLIGHT_DIR" with
    | Some d -> d
    | None -> Filename.get_temp_dir_name ()
  in
  Filename.concat parent
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let cleanup dir =
  if Sys.getenv_opt "JSTAR_FLIGHT_DIR" = None then rm_rf dir

let read_bundle path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Json.of_string (String.trim s) with
  | Ok j -> j
  | Error e -> Alcotest.failf "bundle %s: bad JSON: %s" path e

let bundle_member what k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %S section" what k

(* The common schema assertions: parseable, versioned, carrying the
   journal/metrics/session/profiler/violation sections the ops
   recorder registers. *)
let check_bundle_schema ~reason path =
  let b = read_bundle path in
  (match bundle_member "bundle" "schema" b with
  | Json.Str s ->
      Alcotest.(check string) "schema version" Recorder.schema_version s
  | _ -> Alcotest.fail "schema not a string");
  (match bundle_member "bundle" "reason" b with
  | Json.Str r -> Alcotest.(check string) "reason" reason r
  | _ -> Alcotest.fail "reason not a string");
  List.iter
    (fun k -> ignore (bundle_member "bundle" k b))
    [ "pid"; "journal"; "metrics"; "session"; "profiler"; "violation" ];
  (* the journal section is itself a list of well-formed entries *)
  (match bundle_member "bundle" "journal" b with
  | Json.Arr entries ->
      List.iter
        (fun e ->
          match (Json.member "severity" e, Json.member "event" e) with
          | Some (Json.Str _), Some (Json.Str _) -> ()
          | _ -> Alcotest.fail "journal entry missing severity/event")
        entries
  | _ -> Alcotest.fail "journal section not an array");
  b

let test_violation_bundle () =
  let dir = fresh_dir "jstar-diag-viol" in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "step" ]
      ~orderby:Schema.[ Lit "Int"; Seq "step" ]
      ()
  in
  Program.rule p "back_in_time" ~trigger:t (fun ctx s ->
      let step = Tuple.int s "step" in
      if step = 1 then ctx.Rule.put (Tuple.make t [| v_int 0 |]));
  let config =
    {
      Config.default with
      Config.audit_causality = true;
      provenance = true;
    }
  in
  let s = Engine.start (Program.freeze p) config in
  let r = Jstar_ops.Ops.make_recorder ~dir s in
  Engine.feed s [ Tuple.make t [| v_int 1 |] ];
  let raised =
    try
      ignore (Engine.drain s);
      false
    with Engine.Causality_violation _ ->
      (* the bin driver's guard: dump, then let the exception go *)
      ignore
        (Recorder.dump r ~reason:"exception"
           ~detail:[ ("exception", Json.Str "Causality_violation") ]);
      true
  in
  Alcotest.(check bool) "violation raised" true raised;
  let path =
    match Recorder.last_path r with
    | Some p -> p
    | None -> Alcotest.fail "no bundle written"
  in
  let b = check_bundle_schema ~reason:"exception" path in
  (* the violation section names the offending tuple and carries a
     derivation (provenance was on) *)
  (match bundle_member "bundle" "violation" b with
  | Json.Obj fields ->
      (match List.assoc_opt "message" fields with
      | Some (Json.Str msg) ->
          Alcotest.(check bool) "message mentions the past" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "violation without message");
      (match List.assoc_opt "tuples" fields with
      | Some (Json.Arr (tup :: _)) ->
          ignore (bundle_member "violation tuple" "tuple" tup);
          ignore (bundle_member "violation tuple" "derivation" tup)
      | _ -> Alcotest.fail "violation without tuples")
  | Json.Null -> Alcotest.fail "violation section empty"
  | _ -> Alcotest.fail "violation section malformed");
  (* the journal tail recorded the Error event *)
  match bundle_member "bundle" "journal" b with
  | Json.Arr entries ->
      let is_violation e =
        Json.member "event" e = Some (Json.Str "causality-violation")
        && Json.member "severity" e = Some (Json.Str "error")
      in
      Alcotest.(check bool) "journal has the violation event" true
        (List.exists is_violation entries)
  | _ -> Alcotest.fail "journal section not an array"

let test_sigusr1_bundle () =
  let dir = fresh_dir "jstar-diag-sig" in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Int"; Seq "x" ]
      ()
  in
  (* the signal arrives from inside a rule firing, so the handler's
     dump runs at a safe point genuinely mid-drain *)
  Program.rule p "chain" ~trigger:t (fun ctx tuple ->
      let x = Tuple.int tuple "x" in
      if x = 8 then Unix.kill (Unix.getpid ()) Sys.sigusr1;
      if x < 16 then ctx.Rule.put (Tuple.make t [| v_int (x + 1) |]));
  let config = { Config.default with Config.digest = true } in
  let s = Engine.start (Program.freeze p) config in
  let r = Jstar_ops.Ops.make_recorder ~dir s in
  let previous = Sys.signal Sys.sigusr1 Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigusr1 previous)
  @@ fun () ->
  Recorder.on_signal r;
  Engine.feed s [ Tuple.make t [| v_int 0 |] ];
  ignore (Engine.drain s);
  let result = Engine.finish s in
  Alcotest.(check int) "one bundle dumped" 1 (Recorder.dumps r);
  let path =
    match Recorder.last_path r with
    | Some p -> p
    | None -> Alcotest.fail "no bundle path"
  in
  ignore (check_bundle_schema ~reason:"signal" path);
  (* the dump did not perturb the run *)
  Alcotest.(check int) "chain completed" 17 result.Engine.steps;
  Alcotest.(check bool) "digest still produced" true
    (result.Engine.digest <> None)

(* ------------------------------------------------------------------ *)
(* Zero impact: digests bit-identical with the diagnostics plane armed
   at every thread count *)

let diag_config ~threads ~step_hook =
  {
    (Config.parallel ~threads ()) with
    Config.tracing = Level.Counters;
    digest = true;
    step_hook;
  }

let test_digest_grid_with_diagnostics () =
  let dir = fresh_dir "jstar-diag-grid" in
  Fun.protect ~finally:(fun () -> cleanup dir) @@ fun () ->
  let run_point ~diagnostics threads =
    let p, t = chain_program ~last:40 in
    let frozen = Program.freeze p in
    let alerts =
      if not diagnostics then None
      else
        Some
          (Alerts.create
             [
               Alerts.rule ~for_:2 ~name:"puts"
                 (Alerts.Threshold
                    { metric = "table.T.puts"; cmp = Alerts.Gt; value = 5.0 });
               Alerts.rule ~name:"depth"
                 (Alerts.Rate
                    { metric = "delta.size"; cmp = Alerts.Gt; value = 1000.0 });
               Alerts.rule ~name:"gone" (Alerts.Absent { metric = "nope" });
             ])
    in
    let step_hook =
      Option.map (fun a step m -> Alerts.eval a ~step m) alerts
    in
    let s =
      Engine.start frozen (diag_config ~threads ~step_hook)
    in
    let recorder =
      if not diagnostics then None
      else begin
        let r = Jstar_ops.Ops.make_recorder ~dir s in
        Option.iter
          (fun a -> Alerts.set_journal a (Engine.session_journal s))
          alerts;
        Some r
      end
    in
    Engine.feed s [ Tuple.make t [| v_int 0 |] ];
    ignore (Engine.drain s);
    (* dump a bundle mid-session: writing the black box must not
       perturb the later drains either *)
    Option.iter (fun r -> ignore (Recorder.dump r ~reason:"test")) recorder;
    Engine.feed s [ Tuple.make t [| v_int 1000 |] ];
    ignore (Engine.drain s);
    let result = Engine.finish s in
    Option.iter
      (fun a -> Alcotest.(check bool) "alert evaluated" true (Alerts.evals a > 0))
      alerts;
    Option.iter
      (fun r -> Alcotest.(check int) "bundle written" 1 (Recorder.dumps r))
      recorder;
    match result.Engine.digest with
    | Some d ->
        ( d.Engine.d_gamma,
          d.Engine.d_classes,
          d.Engine.d_outputs,
          d.Engine.d_tables,
          result.Engine.outputs )
    | None -> Alcotest.fail "digest missing"
  in
  let reference = run_point ~diagnostics:false 1 in
  List.iter
    (fun threads ->
      let plain = run_point ~diagnostics:false threads in
      let armed = run_point ~diagnostics:true threads in
      let label what = Printf.sprintf "%s at threads=%d" what threads in
      Alcotest.(check bool) (label "plain = reference") true
        (plain = reference);
      Alcotest.(check bool) (label "armed = plain") true (armed = plain))
    [ 1; 2; 4 ]

let suite =
  let tc = Alcotest.test_case in
  [
    ( "diag.journal",
      [
        QCheck_alcotest.to_alcotest prop_journal_ring;
        tc "tail and severity names" `Quick test_journal_tail_and_names;
        tc "runtime min-severity filter" `Quick
          test_journal_min_severity_runtime;
      ] );
    ( "diag.alerts",
      [
        tc "threshold hysteresis machine" `Quick
          test_alert_threshold_hysteresis;
        tc "interrupted pending never fires" `Quick
          test_alert_pending_interrupted;
        tc "absent and rate conditions" `Quick test_alert_absent_and_rate;
        tc "CLI spec parser" `Quick test_alert_parse_spec;
      ] );
    ( "diag.recorder",
      [
        tc "causality violation bundle" `Quick test_violation_bundle;
        tc "SIGUSR1 mid-drain bundle" `Quick test_sigusr1_bundle;
      ] );
    ( "diag.determinism",
      [
        tc "digests identical with diagnostics armed" `Slow
          test_digest_grid_with_diagnostics;
      ] );
  ]
