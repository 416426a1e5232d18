(* The introspection endpoints: glue between a running engine session
   and the transport in Httpd.  Everything here reads session state
   through the monitoring-lane accessors (the Engine.session_ family),
   so a scrape observes a consistent-enough snapshot without touching
   the deterministic lanes. *)

open Jstar_core
module Json = Jstar_obs.Json

type t = { server : Httpd.t }

let prom_content_type = "text/plain; version=0.0.4"

let err_json status msg =
  Httpd.json ~status (Json.to_string (Json.Obj [ ("error", Json.Str msg) ]) ^ "\n")

(* -- /metrics ---------------------------------------------------------- *)

let metrics_handler session alerts _q =
  let base = Jstar_obs.Prom.render (Engine.session_metrics session) in
  let body =
    match alerts with
    | None -> base
    | Some a -> base ^ Jstar_obs.Alerts.prom_lines a
  in
  { Httpd.status = 200; content_type = prom_content_type; body }

(* -- /health ----------------------------------------------------------- *)

let health_handler session extra _q =
  let st = Engine.session_state ~with_outputs:false session in
  let pending = Engine.session_pending session in
  let delta = Engine.session_delta session in
  let gamma =
    List.map
      (fun schema ->
        ( schema.Schema.name,
          (Engine.session_gamma session schema).Store.size () ))
      (Engine.stored_tables session)
  in
  let top_rules, utilization =
    match Engine.session_profiler session with
    | None -> (None, None)
    | Some p ->
        ( Some
            (List.map
               (fun r ->
                 Jstar_obs.Profiler.
                   (r.pr_name, r.pr_ema_self_s, r.pr_fires))
               (Jstar_obs.Profiler.top_rules ~k:5 p)),
          Jstar_obs.Profiler.utilization p )
  in
  Httpd.json
    (Jstar_obs.Health.render ~step:st.Engine.ss_step_no
       ~steps:st.Engine.ss_steps ~processed:st.Engine.ss_processed
       ~outputs:st.Engine.ss_outputs_count ~pending ~delta ~gamma ?top_rules
       ?utilization ~extra:(extra ()) ()
    ^ "\n")

(* -- /profile ---------------------------------------------------------- *)

let profile_handler session q =
  match Engine.session_profiler session with
  | None ->
      err_json 404
        "profiler not enabled for this session (run with --profile or a \
         parallel config)"
  | Some p ->
      let k =
        match List.assoc_opt "k" q with
        | Some s -> ( match int_of_string_opt s with
                      | Some k when k > 0 -> min k 1000
                      | _ -> 10)
        | None -> 10
      in
      Httpd.json (Json.to_string (Jstar_obs.Profiler.to_json ~k p) ^ "\n")

(* -- /explain ---------------------------------------------------------- *)

(* ?table=T&tuple=v1,v2&depth=..&width=..  The tuple is a leading-field
   prefix parsed at the table's column types — the same contract as the
   CLI's [--explain T:v1,v2]. *)

exception Bad_request of string

let parse_prefix schema raw =
  if List.length raw > Schema.arity schema then
    raise
      (Bad_request
         (Printf.sprintf "%d values but %s has arity %d" (List.length raw)
            schema.Schema.name (Schema.arity schema)));
  try
    List.mapi
      (fun j s ->
        match Schema.field_ty schema j with
        | Value.TInt -> Value.Int (int_of_string (String.trim s))
        | Value.TFloat -> Value.Float (float_of_string (String.trim s))
        | Value.TBool -> Value.Bool (bool_of_string (String.trim s))
        | Value.TStr -> Value.Str s)
      raw
    |> Array.of_list
  with Failure _ ->
    raise (Bad_request "tuple value does not parse at its column type")

let int_param q key ~default ~lo ~hi =
  match List.assoc_opt key q with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= lo && v <= hi -> v
      | _ ->
          raise
            (Bad_request
               (Printf.sprintf "%s must be an integer in [%d, %d]" key lo hi)))

let max_trees = 5

let explain_handler session q =
  match Engine.session_lineage session with
  | None ->
      err_json 404
        "provenance not enabled for this session (run with --provenance)"
  | Some lineage -> (
      try
        let frozen = Engine.session_frozen session in
        let tname =
          match List.assoc_opt "table" q with
          | Some t when t <> "" -> t
          | _ -> raise (Bad_request "missing ?table= parameter")
        in
        let schema =
          match Program.find_table frozen.Program.program tname with
          | s -> s
          | exception Schema.Schema_error msg -> raise (Bad_request msg)
        in
        let raw =
          match List.assoc_opt "tuple" q with
          | None | Some "" -> []
          | Some s -> String.split_on_char ',' s
        in
        let prefix = parse_prefix schema raw in
        let depth = int_param q "depth" ~default:12 ~lo:1 ~hi:64 in
        let width = int_param q "width" ~default:16 ~lo:1 ~hi:256 in
        let matches = ref [] in
        (Engine.session_gamma session schema).Store.iter_prefix prefix
          (fun t -> matches := t :: !matches);
        let matches = List.sort Tuple.compare !matches in
        let total = List.length matches in
        let shown =
          List.filteri (fun i _ -> i < max_trees) matches
        in
        let trees =
          List.map
            (fun tuple ->
              match
                Jstar_prov.Explain.derive ~lineage ~frozen ~max_depth:depth
                  ~max_width:width tuple
              with
              | Some node -> Jstar_prov.Explain.to_json node
              | None ->
                  Json.Obj
                    [
                      ("tuple", Json.Str (Format.asprintf "%a" Tuple.pp tuple));
                      ("error", Json.Str "stored but not tracked by lineage");
                    ])
            shown
        in
        Httpd.json
          (Json.to_string
             (Json.Obj
                [
                  ("table", Json.Str tname);
                  ("matches", Json.Num (float_of_int total));
                  ("shown", Json.Num (float_of_int (List.length shown)));
                  ("trees", Json.Arr trees);
                ])
          ^ "\n")
      with Bad_request msg -> err_json 400 msg)

(* -- the flight-recorder glue ------------------------------------------ *)

(* Build a recorder over a session with the standard engine sections.
   The obs-layer Recorder is engine-agnostic; this is where the engine-
   shaped thunks get registered: session scalars, profiler top-k, and —
   when a causality violation has been captured — explain trees for the
   tuples the failure named.  Callers add further sections (e.g. WAL
   generation/lag) with [Jstar_obs.Recorder.add_section]. *)
let make_recorder ?journal_tail ~dir session =
  let r =
    Jstar_obs.Recorder.create ?journal_tail
      ~journal:(Engine.session_journal session)
      ~metrics:(Engine.session_metrics session) ~dir ()
  in
  let num i = Json.Num (float_of_int i) in
  Jstar_obs.Recorder.add_section r "session" (fun () ->
      let st = Engine.session_state ~with_outputs:false session in
      let dsize, ddepth = Engine.session_delta session in
      Json.Obj
        [
          ("step", num st.Engine.ss_step_no);
          ("steps", num st.Engine.ss_steps);
          ("processed", num st.Engine.ss_processed);
          ("outputs", num st.Engine.ss_outputs_count);
          ("pending", num (Engine.session_pending session));
          ("delta_size", num dsize);
          ("delta_depth", num ddepth);
        ]);
  Jstar_obs.Recorder.add_section r "profiler" (fun () ->
      match Engine.session_profiler session with
      | None -> Json.Null
      | Some p -> Jstar_obs.Profiler.to_json ~k:10 p);
  Jstar_obs.Recorder.add_section r "violation" (fun () ->
      match Engine.session_violation session with
      | None -> Json.Null
      | Some (msg, tuples) ->
          let explain tuple =
            let pp = Json.Str (Format.asprintf "%a" Tuple.pp tuple) in
            match Engine.session_lineage session with
            | None -> Json.Obj [ ("tuple", pp) ]
            | Some lineage -> (
                let frozen = Engine.session_frozen session in
                match
                  Jstar_prov.Explain.derive ~lineage ~frozen ~max_depth:12
                    ~max_width:16 tuple
                with
                | Some node ->
                    Json.Obj
                      [
                        ("tuple", pp);
                        ("derivation", Jstar_prov.Explain.to_json node);
                      ]
                | None -> Json.Obj [ ("tuple", pp) ])
          in
          Json.Obj
            [
              ("message", Json.Str msg);
              ("tuples", Json.Arr (List.map explain tuples));
            ]);
  r

(* -- /alerts ----------------------------------------------------------- *)

let alerts_handler alerts _q =
  match alerts with
  | None ->
      err_json 404 "alerting not enabled for this session (run with --alert)"
  | Some a -> Httpd.json (Json.to_string (Jstar_obs.Alerts.to_json a) ^ "\n")

(* -- /dump ------------------------------------------------------------- *)

let dump_handler recorder _q =
  match recorder with
  | None ->
      err_json 404
        "flight recorder not enabled for this session (run with --flight-dir)"
  | Some r -> (
      match Jstar_obs.Recorder.dump r ~reason:"ops-dump" with
      | path ->
          Httpd.json
            (Json.to_string
               (Json.Obj
                  [
                    ("path", Json.Str path);
                    ( "dumps",
                      Json.Num (float_of_int (Jstar_obs.Recorder.dumps r)) );
                  ])
            ^ "\n")
      | exception exn -> err_json 500 (Printexc.to_string exn))

(* -- assembly ---------------------------------------------------------- *)

let index_body =
  "jstar ops endpoints:\n\
  \  /metrics                  Prometheus text format (incl. ALERTS)\n\
  \  /health                   JSON heartbeat\n\
  \  /profile?k=N              top-K rules by decayed self time\n\
  \  /explain?table=T&tuple=v1,v2[&depth=D&width=W]\n\
  \                            derivation trees for matching tuples\n\
  \  /alerts                   threshold-alert statuses\n\
  \  /dump                     write a flight-recorder bundle\n"

let attach ?addr ~port ?(extra_health = fun () -> []) ?alerts ?recorder
    session =
  (* The ops handlers consume only the decoded query parameters; adapt
     them to the transport's request record. *)
  let q h (req : Httpd.request) = h req.Httpd.query in
  let routes =
    [
      ("/", fun _ -> Httpd.text index_body);
      ("/metrics", q (metrics_handler session alerts));
      ("/health", q (health_handler session extra_health));
      ("/profile", q (profile_handler session));
      ("/explain", q (explain_handler session));
      ("/alerts", q (alerts_handler alerts));
      ("/dump", q (dump_handler recorder));
    ]
  in
  { server = Httpd.start ?addr ~port routes }

let port t = Httpd.port t.server
let stop t = Httpd.stop t.server
