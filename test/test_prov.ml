(* Provenance & explainability (PR 4): lineage completeness, derivation
   determinism across thread counts, cross-run determinism digests, the
   runtime causality-law auditor, and the provenance-off put path
   staying allocation-free. *)

open Jstar_core

let v_int i = Value.Int i

(* The thread x grain grid every determinism assertion runs over: the
   adaptive chunks and the §5.2 one task per (tuple, rule). *)
let configs =
  List.concat_map
    (fun threads ->
      List.map (fun grain -> (threads, grain)) [ Config.Auto_grain; Fixed 1 ])
    [ 1; 2; 4 ]

let base_config threads grain =
  let c = if threads = 1 then Config.default else Config.parallel ~threads () in
  { c with Config.grain }

(* ------------------------------------------------------------------ *)
(* Fixture: the transitive-closure program (same shape as test_props) *)

type closure = {
  c_program : Program.t;
  c_edge : Schema.t;
  c_path : Schema.t;
  c_init : Tuple.t list;
}

let closure_program edges =
  let p = Program.create () in
  let edge =
    Program.table p "Edge"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Edge" ]
      ()
  in
  let path =
    Program.table p "Path"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Path" ]
      ()
  in
  Program.order p [ "Edge"; "Path" ];
  Program.rule p "seed" ~trigger:edge (fun ctx e ->
      ctx.Rule.put (Tuple.make path [| Tuple.get e 0; Tuple.get e 1 |]));
  Program.rule p "close" ~trigger:path (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      Query.iter ctx edge ~prefix:[| v_int y |] (fun e ->
          ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
  Program.output p path (fun t ->
      Printf.sprintf "path %d %d" (Tuple.int t "a") (Tuple.int t "b"));
  let init =
    List.map (fun (a, b) -> Tuple.make edge [| v_int a; v_int b |]) edges
  in
  { c_program = p; c_edge = edge; c_path = path; c_init = init }

let run_closure ~threads ~grain ~f edges =
  let c = closure_program edges in
  let config =
    {
      (base_config threads grain) with
      Config.provenance = true;
      digest = true;
    }
  in
  let frozen = Program.freeze c.c_program in
  let result, gamma = Engine.run_with_gamma ~init:c.c_init frozen config in
  f c frozen result gamma

(* ------------------------------------------------------------------ *)
(* Lineage completeness + canonical-derivation determinism *)

(* Every tracked tuple must reach seed leaves, and the canonical tree of
   every final Path tuple must be identical at every thread count. *)
let prop_lineage_complete_and_deterministic =
  QCheck.Test.make
    ~name:"closure lineage is complete and schedule-independent" ~count:6
    QCheck.(
      list_of_size (Gen.int_range 1 10) (pair (int_range 0 4) (int_range 0 4)))
    (fun edges ->
      let renderings =
        List.map
          (fun (threads, grain) ->
            run_closure ~threads ~grain edges
              ~f:(fun c frozen result gamma ->
                let lineage = Option.get result.Engine.lineage in
                (match Jstar_prov.Explain.completeness_error ~lineage with
                | None -> ()
                | Some msg -> QCheck.Test.fail_reportf "incomplete: %s" msg);
                (* render every final Path tuple's canonical tree, in
                   tuple order *)
                let tuples = ref [] in
                (gamma c.c_path).Store.iter (fun t -> tuples := t :: !tuples);
                List.map
                  (fun t ->
                    match
                      Jstar_prov.Explain.derive ~lineage ~frozen t
                    with
                    | Some node -> Jstar_prov.Explain.to_string node
                    | None ->
                        QCheck.Test.fail_reportf "stored but untracked: %s"
                          (Tuple.show t))
                  (List.sort Tuple.compare !tuples)))
          configs
      in
      match renderings with
      | [] -> true
      | reference :: rest -> List.for_all (fun r -> r = reference) rest)

(* The canonical tree bottoms out in Seed leaves — never a dangling
   rule-produced node without inputs. *)
let test_closure_leaves_are_seeds () =
  run_closure ~threads:2 ~grain:Config.Auto_grain
    [ (0, 1); (1, 2); (2, 3) ]
    ~f:(fun c frozen result gamma ->
      let lineage = Option.get result.Engine.lineage in
      let rec check node =
        match node.Jstar_prov.Explain.n_children with
        | [] ->
            Alcotest.(check bool)
              (Printf.sprintf "leaf %s is a seed"
                 (Tuple.show node.Jstar_prov.Explain.n_tuple))
              true
              (node.Jstar_prov.Explain.n_kind = Jstar_prov.Explain.Seed)
        | children -> List.iter check children
      in
      (gamma c.c_path).Store.iter (fun t ->
          match Jstar_prov.Explain.derive ~lineage ~frozen t with
          | Some node -> check node
          | None -> Alcotest.fail ("untracked: " ^ Tuple.show t)))

(* ------------------------------------------------------------------ *)
(* Determinism digests *)

let digest_of result =
  match result.Engine.digest with
  | Some d -> (d.Engine.d_gamma, d.Engine.d_classes, d.Engine.d_tables)
  | None -> Alcotest.fail "digest missing"

let test_digest_closure_threads () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 4) ] in
  let digests =
    List.map
      (fun (threads, grain) ->
        run_closure ~threads ~grain edges
          ~f:(fun _ _ result _ -> digest_of result))
      configs
  in
  (match digests with
  | reference :: rest ->
      List.iter
        (fun d ->
          Alcotest.(check bool) "digest equal across configs" true
            (d = reference))
        rest
  | [] -> ());
  (* sanity: a different database digests differently *)
  let other =
    run_closure ~threads:1 ~grain:Config.Auto_grain
      [ (0, 1); (1, 2) ]
      ~f:(fun _ _ result _ -> digest_of result)
  in
  Alcotest.(check bool) "different inputs, different gamma digest" false
    (let g, _, _ = other and g', _, _ = List.hd digests in
     g = g')

let pvwatts_data =
  lazy
    (Jstar_csv.Pvwatts_data.to_bytes ~installations:1
       ~ordering:Jstar_csv.Pvwatts_data.Month_major)

let test_digest_pvwatts_threads () =
  let data = Lazy.force pvwatts_data in
  let digests =
    List.map
      (fun threads ->
        let cfg =
          { (Jstar_apps.Pvwatts.config ~threads ()) with Config.digest = true }
        in
        digest_of (Jstar_apps.Pvwatts.run ~chunks:4 ~data cfg))
      [ 1; 2; 4 ]
  in
  match digests with
  | reference :: rest ->
      List.iter
        (fun d ->
          Alcotest.(check bool) "pvwatts digest equal across threads" true
            (d = reference))
        rest
  | [] -> ()

(* Fingerprint unit laws: tuple-set digests commute, the class-sequence
   fold does not. *)
let test_fingerprint_laws () =
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "a"; float_col "b"; string_col "c" ]
      ~orderby:Schema.[ Lit "T" ]
      ()
  in
  let mk a b c = Tuple.make t [| v_int a; Value.Float b; Value.Str c |] in
  let tuples = [ mk 1 2.5 "x"; mk 2 0.0 "y"; mk 3 (-1.25) "" ] in
  let digest order =
    let f = Fingerprint.create () in
    List.iter (Fingerprint.add_tuple f) order;
    f
  in
  Alcotest.(check bool) "insertion order does not matter" true
    (Fingerprint.equal (digest tuples) (digest (List.rev tuples)));
  Alcotest.(check bool) "different sets differ" false
    (Fingerprint.equal (digest tuples) (digest (List.tl tuples)));
  let seq order =
    let f = Fingerprint.create () in
    List.iter
      (fun t ->
        let lo, hi = Fingerprint.lanes (digest [ t ]) in
        Fingerprint.mix_seq f ~lo ~hi ~n:1)
      order;
    f
  in
  Alcotest.(check bool) "class sequence order matters" false
    (Fingerprint.equal (seq tuples) (seq (List.rev tuples)));
  Alcotest.(check int) "hex digest is 128 bits" 32
    (String.length (Fingerprint.hex (digest tuples)))

(* ------------------------------------------------------------------ *)
(* The runtime causality-law auditor *)

(* A rule whose body runs an aggregate over its *own* trigger table:
   the law requires aggregate reads strictly before the firing's
   timestamp, but every Path tuple shares one literal-only timestamp,
   so the scan visits tuples at = T — exactly what the auditor exists
   to catch (the static checker can't see inside a hand-written
   closure). *)
let violating_program () =
  let p = Program.create () in
  let go =
    Program.table p "Go"
      ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Go" ]
      ()
  in
  let acc =
    Program.table p "Acc"
      ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "Acc" ]
      ()
  in
  Program.order p [ "Go"; "Acc" ];
  Program.rule p "emit" ~trigger:go (fun ctx t ->
      ctx.Rule.put (Tuple.make acc [| Tuple.get t 0 |]));
  Program.rule p "unsound_count" ~trigger:acc (fun ctx _ ->
      (* aggregate over the trigger's own table, at its own timestamp *)
      ignore (Query.count ctx acc ()));
  let init = List.init 4 (fun i -> Tuple.make go [| v_int i |]) in
  (p, init)

let auditor_catches threads () =
  let p, init = violating_program () in
  let config =
    {
      (base_config threads Config.Auto_grain) with
      Config.audit_causality = true;
    }
  in
  let violated =
    try
      ignore (Engine.run_program ~init p config);
      false
    with Engine.Causality_violation _ -> true
  in
  Alcotest.(check bool) "auditor raised Causality_violation" true violated;
  (* the same program runs quietly with the auditor off: the violation
     is a law violation, not a crash *)
  let p, init = violating_program () in
  ignore
    (Engine.run_program ~init p (base_config threads Config.Auto_grain))

let test_auditor_silent_on_sound_programs () =
  (* closure at 2 threads, audited *)
  let c = closure_program [ (0, 1); (1, 2); (2, 0); (1, 3) ] in
  let config =
    { (base_config 2 Config.Auto_grain) with Config.audit_causality = true }
  in
  ignore (Engine.run_program ~init:c.c_init c.c_program config);
  (* PvWatts-small, audited, with and without -noDelta *)
  let data = Lazy.force pvwatts_data in
  List.iter
    (fun no_delta ->
      let cfg =
        {
          (Jstar_apps.Pvwatts.config ~threads:2 ~no_delta ()) with
          Config.audit_causality = true;
        }
      in
      ignore (Jstar_apps.Pvwatts.run ~chunks:4 ~data cfg))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* PvWatts: the ISSUE acceptance walk — explain a monthly tuple, same
   tree at every thread count, bottoming out in seed tuples *)

let test_pvwatts_explain_deterministic () =
  let data = Lazy.force pvwatts_data in
  let trees =
    List.map
      (fun threads ->
        let app = Jstar_apps.Pvwatts.make ~data ~chunks:4 () in
        let cfg =
          {
            (Jstar_apps.Pvwatts.config ~threads ()) with
            Config.provenance = true;
          }
        in
        let frozen = Program.freeze app.Jstar_apps.Pvwatts.program in
        let result, gamma =
          Engine.run_with_gamma ~init:app.Jstar_apps.Pvwatts.init frozen cfg
        in
        let lineage = Option.get result.Engine.lineage in
        (match Jstar_prov.Explain.completeness_error ~lineage with
        | None -> ()
        | Some msg -> Alcotest.fail ("pvwatts lineage incomplete: " ^ msg));
        let monthly = ref None in
        (gamma app.Jstar_apps.Pvwatts.sum_table).Store.iter_prefix
          [| v_int 2012; v_int 1 |]
          (fun t -> if !monthly = None then monthly := Some t);
        match !monthly with
        | None -> Alcotest.fail "no SumMonth(2012, 1) tuple stored"
        | Some t -> (
            match Jstar_prov.Explain.derive ~lineage ~frozen t with
            | Some node -> Jstar_prov.Explain.to_string node
            | None -> Alcotest.fail "monthly tuple untracked"))
      [ 1; 2; 4 ]
  in
  match trees with
  | reference :: rest ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "tree mentions a seed leaf" true
        (contains reference "seed");
      List.iteri
        (fun i t ->
          Alcotest.(check string)
            (Printf.sprintf "tree identical at config %d" (i + 1))
            reference t)
        rest
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Explain across session feed/drain boundaries: a tuple whose
   derivation spans batches fed in different drains must still explain
   completely, with the same canonical tree at every thread count. *)

let test_explain_across_session_boundaries () =
  let trees =
    List.map
      (fun (threads, grain) ->
        let c = closure_program [] in
        let config =
          {
            (base_config threads grain) with
            Config.provenance = true;
            digest = true;
          }
        in
        let frozen = Program.freeze c.c_program in
        let s = Engine.start frozen config in
        let feed_edges es =
          Engine.feed s
            (List.map
               (fun (a, b) -> Tuple.make c.c_edge [| v_int a; v_int b |])
               es)
        in
        (* Deepest edge first: [close] joins a *new* Path against
           *stored* Edges, so feeding the chain back-to-front makes
           Path(0,3) — derived in the last drain — consume tuples fed
           in all three. *)
        feed_edges [ (2, 3) ];
        ignore (Engine.drain s);
        feed_edges [ (1, 2) ];
        ignore (Engine.drain s);
        feed_edges [ (0, 1) ];
        ignore (Engine.drain s);
        let gamma = Engine.session_gamma s c.c_path in
        let tuples = ref [] in
        gamma.Store.iter (fun t -> tuples := t :: !tuples);
        let result = Engine.finish s in
        let lineage = Option.get result.Engine.lineage in
        (match Jstar_prov.Explain.completeness_error ~lineage with
        | None -> ()
        | Some msg ->
            Alcotest.fail ("session lineage incomplete: " ^ msg));
        List.map
          (fun t ->
            match Jstar_prov.Explain.derive ~lineage ~frozen t with
            | Some node -> Jstar_prov.Explain.to_string node
            | None -> Alcotest.fail ("stored but untracked: " ^ Tuple.show t))
          (List.sort Tuple.compare !tuples))
      configs
  in
  match trees with
  | reference :: rest ->
      Alcotest.(check int)
        "all six paths derived across the three drains" 6
        (List.length reference);
      List.iteri
        (fun i t ->
          Alcotest.(check bool)
            (Printf.sprintf "session trees identical at config %d" (i + 1))
            true (t = reference))
        rest
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Per-rule opt-out: [~provenance:false] rules leave no lineage, other
   rules' capture is unaffected, and completeness still holds for what
   *is* tracked. *)

let test_rule_provenance_optout () =
  let build ~optout =
    let c = closure_program [ (0, 1); (1, 2) ] in
    let flag =
      Program.table c.c_program "Flag"
        ~columns:Schema.[ int_col "a"; int_col "b" ]
        ~orderby:Schema.[ Lit "Flag" ]
        ()
    in
    Program.order c.c_program [ "Edge"; "Path"; "Flag" ];
    Program.rule c.c_program "flag" ~provenance:(not optout) ~trigger:c.c_path
      (fun ctx t ->
        ctx.Rule.put (Tuple.make flag [| Tuple.get t 0; Tuple.get t 1 |]));
    (c, flag)
  in
  let run ~optout =
    let c, flag = build ~optout in
    let config = { Config.default with Config.provenance = true } in
    let frozen = Program.freeze c.c_program in
    let result, gamma = Engine.run_with_gamma ~init:c.c_init frozen config in
    let lineage = Option.get result.Engine.lineage in
    (c, flag, frozen, lineage, gamma)
  in
  let c, flag, frozen, lineage, gamma = run ~optout:true in
  (match Jstar_prov.Explain.completeness_error ~lineage with
  | None -> ()
  | Some msg -> Alcotest.fail ("optout lineage incomplete: " ^ msg));
  (* Path tuples (tracked rules) still explain... *)
  (gamma c.c_path).Store.iter (fun t ->
      match Jstar_prov.Explain.derive ~lineage ~frozen t with
      | Some _ -> ()
      | None -> Alcotest.fail ("tracked rule lost lineage: " ^ Tuple.show t));
  (* ...while the opted-out rule's tuples are stored but untracked. *)
  (gamma flag).Store.iter (fun t ->
      match Jstar_prov.Explain.derive ~lineage ~frozen t with
      | None -> ()
      | Some _ ->
          Alcotest.fail ("opted-out rule left lineage: " ^ Tuple.show t));
  let tracked_optout = Lineage.tuples_tracked lineage in
  let _, _, _, lineage_full, _ = run ~optout:false in
  Alcotest.(check bool) "opting out shrinks the lineage store" true
    (tracked_optout < Lineage.tuples_tracked lineage_full)

(* ------------------------------------------------------------------ *)
(* Output-stream digest: print-ordered, schedule-independent *)

let test_outputs_digest_threads () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 4) ] in
  let d_out result =
    match result.Engine.digest with
    | Some d -> d.Engine.d_outputs
    | None -> Alcotest.fail "digest missing"
  in
  let digests =
    List.map
      (fun (threads, grain) ->
        run_closure ~threads ~grain edges ~f:(fun _ _ result _ ->
            (d_out result, result.Engine.outputs)))
      configs
  in
  (match digests with
  | (reference, ref_outputs) :: rest ->
      List.iter
        (fun (d, outs) ->
          Alcotest.(check string) "output digest equal across configs"
            reference d;
          Alcotest.(check bool) "output stream equal across configs" true
            (outs = ref_outputs))
        rest
  | [] -> ());
  let other =
    run_closure ~threads:1 ~grain:Config.Auto_grain
      [ (0, 1) ]
      ~f:(fun _ _ result _ -> d_out result)
  in
  Alcotest.(check bool) "different outputs, different stream digest" false
    (other = fst (List.hd digests))

(* ------------------------------------------------------------------ *)
(* Provenance off: the duplicate-put hot path still allocates nothing *)

let test_put_path_zero_alloc_prov_off () =
  let p = Program.create () in
  let data =
    Program.table p "Data"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "A" ]
      ()
  in
  let go =
    Program.table p "Go"
      ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "B" ]
      ()
  in
  Program.order p [ "A"; "B" ];
  let dup = Tuple.make data [| v_int 1; v_int 2 |] in
  let baseline = ref 0.0 and puts = ref 0.0 in
  let minor_delta f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  Program.rule p "measure" ~trigger:go (fun ctx _ ->
      baseline :=
        minor_delta (fun () ->
            for _ = 1 to 10_000 do
              ignore (Sys.opaque_identity dup)
            done);
      puts :=
        minor_delta (fun () ->
            for _ = 1 to 10_000 do
              ignore (Sys.opaque_identity dup);
              ctx.Rule.put dup
            done));
  let init = [ dup; Tuple.make go [| v_int 0 |] ] in
  (* all PR-4 knobs at their defaults: provenance, audit and digest off *)
  ignore (Engine.run_program ~init p Config.default);
  Alcotest.(check (float 0.0))
    "duplicate put allocates nothing with provenance off" !baseline !puts

(* ------------------------------------------------------------------ *)
(* Config validation *)

let test_config_validation () =
  let invalid c =
    match Config.validate c with
    | () -> false
    | exception Config.Invalid _ -> true
  in
  Alcotest.(check bool) "trace_sample 0 rejected" true
    (invalid { Config.default with Config.trace_sample = 0 });
  Alcotest.(check bool) "trace_sample -3 rejected" true
    (invalid { Config.default with Config.trace_sample = -3 });
  Alcotest.(check bool) "trace_sample 50 accepted" false
    (invalid { Config.default with Config.trace_sample = 50 });
  Alcotest.(check bool) "provenance + audit + digest accepted" false
    (invalid
       {
         (Config.parallel ~threads:4 ()) with
         Config.provenance = true;
         audit_causality = true;
         digest = true;
       })

let suite =
  [
    ( "prov",
      [
        QCheck_alcotest.to_alcotest prop_lineage_complete_and_deterministic;
        Alcotest.test_case "derivations bottom out in seeds" `Quick
          test_closure_leaves_are_seeds;
        Alcotest.test_case "closure digests agree across configs" `Quick
          test_digest_closure_threads;
        Alcotest.test_case "pvwatts digests agree across threads" `Slow
          test_digest_pvwatts_threads;
        Alcotest.test_case "fingerprint laws" `Quick test_fingerprint_laws;
        Alcotest.test_case "auditor catches violation (seq)" `Quick
          (auditor_catches 1);
        Alcotest.test_case "auditor catches violation (par)" `Quick
          (auditor_catches 4);
        Alcotest.test_case "auditor silent on sound programs" `Slow
          test_auditor_silent_on_sound_programs;
        Alcotest.test_case "pvwatts explain tree deterministic" `Slow
          test_pvwatts_explain_deterministic;
        Alcotest.test_case "explain across session feed/drain boundaries"
          `Quick test_explain_across_session_boundaries;
        Alcotest.test_case "per-rule provenance opt-out" `Quick
          test_rule_provenance_optout;
        Alcotest.test_case "output-stream digest across configs" `Quick
          test_outputs_digest_threads;
        Alcotest.test_case "zero-alloc put path, provenance off" `Quick
          test_put_path_zero_alloc_prov_off;
        Alcotest.test_case "config validation" `Quick test_config_validation;
      ] );
  ]
