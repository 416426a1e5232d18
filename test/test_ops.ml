(* The live ops plane (PR 7): Prometheus text-format rendering, the
   HTTP request machinery under the introspection server, the
   continuous profiler's folds, and the non-negotiable: digests stay
   bit-identical with the profiler on, across thread counts. *)

open Jstar_core
open Jstar_obs

let v_int i = Value.Int i

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let has_line body l = List.mem l (lines body)

let test_prom_names () =
  Alcotest.(check string) "dots flatten" "a_b_c" (Prom.sanitize_name "a.b-c");
  Alcotest.(check string) "leading digit guarded" "_1x"
    (Prom.sanitize_name "1x");
  Alcotest.(check string) "colon kept" "a:b" (Prom.sanitize_name "a:b")

let test_prom_label_escaping () =
  Alcotest.(check string) "backslash, quote, newline"
    {|a\\b\"c\nd|}
    (Prom.escape_label "a\\b\"c\nd")

let test_prom_counters_and_labels () =
  let m = Metrics.create () in
  Metrics.register_counter m ~name:"engine.steps" (fun () -> 7);
  Metrics.register_counter m ~name:"table.My Table.puts" (fun () -> 3);
  Metrics.register_counter m ~name:"table.Other.puts" (fun () -> 4);
  let body = Prom.render m in
  Alcotest.(check bool) "flat counter" true
    (has_line body "jstar_engine_steps 7");
  (* table.<T>.<field> families collapse into one family with a label;
     exactly one TYPE line per family. *)
  Alcotest.(check bool) "labelled row" true
    (has_line body "jstar_table_puts{table=\"My Table\"} 3");
  Alcotest.(check bool) "second label" true
    (has_line body "jstar_table_puts{table=\"Other\"} 4");
  let type_lines =
    List.filter
      (fun l -> l = "# TYPE jstar_table_puts counter")
      (lines body)
  in
  Alcotest.(check int) "one TYPE line per family" 1 (List.length type_lines)

let test_prom_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~name:"engine.lat" in
  (* Buckets are powers of two: 1.5 lands in (1,2], 3.0 in (2,4]. *)
  Metrics.observe h 1.5;
  Metrics.observe h 1.5;
  Metrics.observe h 3.0;
  let body = Prom.render m in
  Alcotest.(check bool) "TYPE histogram" true
    (has_line body "# TYPE jstar_engine_lat histogram");
  Alcotest.(check bool) "first bucket cumulative" true
    (has_line body "jstar_engine_lat_bucket{le=\"2\"} 2");
  Alcotest.(check bool) "second bucket cumulative" true
    (has_line body "jstar_engine_lat_bucket{le=\"4\"} 3");
  Alcotest.(check bool) "+Inf equals count" true
    (has_line body "jstar_engine_lat_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "count" true (has_line body "jstar_engine_lat_count 3");
  Alcotest.(check bool) "sum" true (has_line body "jstar_engine_lat_sum 6")

(* Every non-comment line of a real engine registry must be
   "name{labels} value" with a parseable value. *)
let test_prom_engine_registry () =
  let p = Program.create () in
  let t =
    Program.table p "T"
      ~columns:Schema.[ int_col "x" ]
      ~orderby:Schema.[ Lit "T"; Seq "x" ]
      ()
  in
  Program.rule p "next" ~trigger:t (fun ctx tup ->
      let x = Tuple.int tup "x" in
      if x < 50 then ctx.Rule.put (Tuple.make t [| v_int (x + 1) |]));
  let config =
    { (Config.parallel ~threads:2 ()) with Config.tracing = Level.Counters }
  in
  let frozen = Program.freeze p in
  let s = Engine.start frozen config in
  Engine.feed s [ Tuple.make t [| v_int 0 |] ];
  ignore (Engine.drain s);
  let body = Prom.render (Engine.session_metrics s) in
  ignore (Engine.finish s);
  let name_re c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                  || (c >= '0' && c <= '9') || c = '_' || c = ':' in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then begin
        (match String.index_opt line ' ' with
        | None -> Alcotest.failf "no value separator: %s" line
        | Some i ->
            let metric = String.sub line 0 i in
            let value =
              String.sub line (i + 1) (String.length line - i - 1)
            in
            let name =
              match String.index_opt metric '{' with
              | Some j ->
                  Alcotest.(check bool)
                    (Printf.sprintf "labels close: %s" line)
                    true
                    (metric.[String.length metric - 1] = '}');
                  String.sub metric 0 j
              | None -> metric
            in
            String.iter
              (fun c ->
                Alcotest.(check bool)
                  (Printf.sprintf "name alphabet: %s" name)
                  true (name_re c))
              name;
            Alcotest.(check bool)
              (Printf.sprintf "numeric value: %s" line)
              true
              (float_of_string_opt value <> None))
      end)
    (lines body)

(* ------------------------------------------------------------------ *)
(* Httpd request machinery *)

let test_url_decode () =
  Alcotest.(check string) "percent" "a b" (Jstar_ops.Httpd.url_decode "a%20b");
  Alcotest.(check string) "plus" "a b" (Jstar_ops.Httpd.url_decode "a+b");
  Alcotest.(check string) "utf-8 bytes" "caf\xc3\xa9"
    (Jstar_ops.Httpd.url_decode "caf%C3%A9");
  Alcotest.(check string) "malformed passes through" "100%"
    (Jstar_ops.Httpd.url_decode "100%");
  Alcotest.(check string) "bad hex passes through" "%zz"
    (Jstar_ops.Httpd.url_decode "%zz")

let test_parse_request () =
  (match Jstar_ops.Httpd.parse_request "GET /metrics HTTP/1.1" with
  | Some ("GET", "/metrics", [], true) -> ()
  | _ -> Alcotest.fail "plain GET");
  (match
     Jstar_ops.Httpd.parse_request
       "GET /explain?table=Alarm&tuple=1%2C2&k= HTTP/1.0"
   with
  | Some
      ( "GET",
        "/explain",
        [ ("table", "Alarm"); ("tuple", "1,2"); ("k", "") ],
        false ) ->
      ()
  | _ -> Alcotest.fail "query decoding");
  (match Jstar_ops.Httpd.parse_request "POST /control HTTP/1.1" with
  | Some ("POST", "/control", [], true) -> ()
  | _ -> Alcotest.fail "POST accepted");
  (match Jstar_ops.Httpd.parse_request "PUT /metrics HTTP/1.1" with
  | None -> ()
  | Some _ -> Alcotest.fail "PUT rejected");
  (match Jstar_ops.Httpd.parse_request "GET /metrics SPDY/9" with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown protocol rejected");
  match Jstar_ops.Httpd.parse_request "garbage" with
  | None -> ()
  | Some _ -> Alcotest.fail "garbage rejected"

(* ------------------------------------------------------------------ *)
(* Httpd end to end: persistent connections, bodies, strict framing *)

(* Read exactly one HTTP response off [fd] (headers + Content-Length
   body).  [residual] carries bytes of the *next* response that shared
   a read with this one — pipelined replies arrive back to back, so a
   single [recv] can straddle the boundary. *)
let read_response ?(residual = ref "") fd =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf !residual;
  residual := "";
  let chunk = Bytes.create 1024 in
  let header_end () =
    let s = Buffer.contents buf in
    let rec find i =
      if i + 3 >= String.length s then None
      else if
        s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
      then Some (i + 4)
      else find (i + 1)
    in
    find 0
  in
  let rec read_headers () =
    match header_end () with
    | Some e -> e
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "connection closed before headers"
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            read_headers ())
  in
  let body_start = read_headers () in
  let raw = Buffer.contents buf in
  let head = String.sub raw 0 body_start in
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string code
    | _ -> Alcotest.fail "malformed status line"
  in
  let content_length =
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i
          when String.lowercase_ascii (String.sub line 0 i) = "content-length"
          ->
            int_of_string
              (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | _ -> acc)
      0
      (String.split_on_char '\n' head)
  in
  let rec read_body () =
    if Buffer.length buf < body_start + content_length then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Alcotest.fail "connection closed mid-body"
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          read_body ()
  in
  read_body ();
  let all = Buffer.contents buf in
  let body = String.sub all body_start content_length in
  residual :=
    String.sub all
      (body_start + content_length)
      (String.length all - body_start - content_length);
  let keep_alive =
    not
      (List.exists
         (fun line ->
           String.lowercase_ascii (String.trim line) = "connection: close")
         (String.split_on_char '\n' (String.map (function '\r' -> '\n' | c -> c) head)))
  in
  (status, body, keep_alive)

let with_httpd routes f =
  let h = Jstar_ops.Httpd.start ~port:0 routes in
  Fun.protect
    ~finally:(fun () -> Jstar_ops.Httpd.stop h)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_loopback, Jstar_ops.Httpd.port h));
          f fd))

let send_str fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let echo_routes =
  [
    ("/ping", fun _ -> Jstar_ops.Httpd.text "pong");
    ( "/echo",
      fun (req : Jstar_ops.Httpd.request) -> Jstar_ops.Httpd.text req.body );
  ]

let test_httpd_keep_alive () =
  with_httpd echo_routes (fun fd ->
      let residual = ref "" in
      (* two requests, one connection *)
      send_str fd "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n";
      let s1, b1, k1 = read_response ~residual fd in
      Alcotest.(check (pair int string)) "first" (200, "pong") (s1, b1);
      Alcotest.(check bool) "kept alive" true k1;
      send_str fd "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n";
      let s2, b2, _ = read_response ~residual fd in
      Alcotest.(check (pair int string)) "second, same socket" (200, "pong")
        (s2, b2);
      (* pipelined pair: both bytes up front, two responses back *)
      send_str fd "GET /ping HTTP/1.1\r\n\r\nGET /ping HTTP/1.1\r\n\r\n";
      let s3, _, _ = read_response ~residual fd in
      let s4, _, _ = read_response ~residual fd in
      Alcotest.(check (pair int int)) "pipelined" (200, 200) (s3, s4))

let test_httpd_post_body () =
  with_httpd echo_routes (fun fd ->
      send_str fd "POST /echo HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
      let s, b, k = read_response fd in
      Alcotest.(check (pair int string)) "echoed" (200, "hello world") (s, b);
      Alcotest.(check bool) "still persistent" true k;
      send_str fd "GET /ping HTTP/1.1\r\n\r\n";
      let s2, _, _ = read_response fd in
      Alcotest.(check int) "connection survives the body" 200 s2)

let test_httpd_strict_framing () =
  (* a request whose framing cannot be trusted: 400 + Connection: close *)
  with_httpd echo_routes (fun fd ->
      send_str fd "POST /echo HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
      let s, _, k = read_response fd in
      Alcotest.(check int) "bad length is a 400" 400 s;
      Alcotest.(check bool) "connection closed" false k);
  with_httpd echo_routes (fun fd ->
      send_str fd "POST /echo HTTP/1.1\r\n\r\n";
      let s, _, k = read_response fd in
      Alcotest.(check int) "POST without length is a 400" 400 s;
      Alcotest.(check bool) "connection closed" false k);
  with_httpd echo_routes (fun fd ->
      send_str fd
        "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
      let s, _, k = read_response fd in
      Alcotest.(check int) "chunked is refused with a 400" 400 s;
      Alcotest.(check bool) "connection closed" false k)

(* ------------------------------------------------------------------ *)
(* Profiler unit behaviour *)

let test_profiler_folds () =
  let p = Profiler.create ~rules:[| "a"; "b" |] ~tables:[| "T" |] () in
  (* Two firings of rule 0, one of rule 1. *)
  let fire rule ns =
    Profiler.fire_start p;
    Profiler.fire_stop p ~rule ~fires:1 ~ns
  in
  fire 0 10;
  fire 0 20;
  fire 1 5;
  Profiler.step_barrier p ~puts:[| 5 |] ~queries:[| 2 |] ~gamma:[| 4 |] ();
  Alcotest.(check int) "steps" 1 (Profiler.steps p);
  let rules = Profiler.rules p in
  Alcotest.(check int) "rule a fires" 2 rules.(0).Profiler.pr_fires;
  Alcotest.(check int) "rule b fires" 1 rules.(1).Profiler.pr_fires;
  Alcotest.(check (float 1e-12)) "self time summed" 30e-9
    rules.(0).Profiler.pr_self_s;
  let tables = Profiler.tables p in
  Alcotest.(check int) "puts folded" 5 tables.(0).Profiler.pt_puts;
  Alcotest.(check int) "queries folded" 2 tables.(0).Profiler.pt_queries;
  Alcotest.(check int) "gamma size" 4 tables.(0).Profiler.pt_gamma;
  (* Second barrier with no activity decays the EMA towards zero. *)
  let ema1 = tables.(0).Profiler.pt_ema_puts in
  Profiler.step_barrier p ~puts:[| 5 |] ~queries:[| 2 |] ~gamma:[| 4 |] ();
  let ema2 = (Profiler.tables p).(0).Profiler.pt_ema_puts in
  Alcotest.(check bool) "EMA decays" true (ema2 < ema1);
  (* top_rules orders by decayed self time and drops never-fired. *)
  match Profiler.top_rules ~k:5 p with
  | [] -> Alcotest.fail "top_rules empty"
  | rows ->
      Alcotest.(check bool) "only fired rules" true
        (List.for_all (fun r -> r.Profiler.pr_fires > 0) rows)

let test_profiler_nested_chunks () =
  let p = Profiler.create ~rules:[| "a"; "b" |] ~tables:[||] () in
  (* 25 chunk brackets of rule 0, 4 firings each; inside every chunk
     one nested bracket of rule 1, whose time is not rule 0's self. *)
  for _ = 1 to 25 do
    Profiler.fire_start p;
    Profiler.fire_start p;
    Profiler.fire_stop p ~rule:1 ~fires:1 ~ns:30;
    Profiler.fire_stop p ~rule:0 ~fires:4 ~ns:100
  done;
  Profiler.step_barrier p ~puts:[||] ~queries:[||] ~gamma:[||] ();
  let r = Profiler.rules p in
  Alcotest.(check int) "every chunk firing counted" 100 r.(0).Profiler.pr_fires;
  Alcotest.(check int) "nested firings counted" 25 r.(1).Profiler.pr_fires;
  Alcotest.(check (float 1e-12)) "nested time excluded" (25. *. 70e-9)
    r.(0).Profiler.pr_self_s;
  Alcotest.(check (float 1e-12)) "nested self" (25. *. 30e-9)
    r.(1).Profiler.pr_self_s

let test_profiler_json () =
  let p = Profiler.create ~rules:[| "a" |] ~tables:[| "T" |] () in
  Profiler.fire_start p;
  Profiler.fire_stop p ~rule:0 ~fires:1 ~ns:1;
  Profiler.step_barrier p ~puts:[| 1 |] ~queries:[| 0 |] ~gamma:[| 1 |] ();
  let j = Profiler.to_json p in
  (match Json.member "deterministic" j with
  | Some (Json.Bool false) -> ()
  | _ -> Alcotest.fail "profile payload must be marked non-deterministic");
  (* The payload round-trips through the serializer/parser. *)
  match Json.of_string (Json.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "profile JSON does not parse: %s" e

(* ------------------------------------------------------------------ *)
(* Determinism with the profiler on *)

let closure_program () =
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
  Program.rule p "close" ~trigger:path
    ~reads:[ Spec.read ~prefix:[ Spec.Field "b" ] "Edge" ]
    (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      Query.iter ctx edge ~prefix:[| v_int y |] (fun e ->
          ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
  Program.output p path (fun t ->
      Printf.sprintf "path %d %d" (Tuple.int t "a") (Tuple.int t "b"));
  let init =
    List.concat_map
      (fun a -> [ Tuple.make edge [| v_int a; v_int ((a + 1) mod 40) |] ])
      (List.init 40 Fun.id)
  in
  (p, init)

let digest_of ~threads ~profile =
  let p, init = closure_program () in
  let config =
    {
      (Config.parallel ~threads ()) with
      Config.digest = true;
      profile;
      tracing = Level.Off;
    }
  in
  let r = Engine.run_program ~init p config in
  match r.Engine.digest with
  | Some d -> (d.Engine.d_gamma, d.Engine.d_classes, d.Engine.d_outputs)
  | None -> Alcotest.fail "digest requested but absent"

let test_digests_with_profiler () =
  let reference = digest_of ~threads:1 ~profile:false in
  List.iter
    (fun threads ->
      Alcotest.(check (triple string string string))
        (Printf.sprintf "threads=%d profile=on" threads)
        reference
        (digest_of ~threads ~profile:true))
    [ 1; 2; 4 ]

let suite =
  [
    ( "ops.prom",
      [
        Alcotest.test_case "metric name sanitization" `Quick test_prom_names;
        Alcotest.test_case "label escaping" `Quick test_prom_label_escaping;
        Alcotest.test_case "counters and table labels" `Quick
          test_prom_counters_and_labels;
        Alcotest.test_case "histogram buckets cumulative, +Inf" `Quick
          test_prom_histogram;
        Alcotest.test_case "engine registry renders valid syntax" `Quick
          test_prom_engine_registry;
      ] );
    ( "ops.httpd",
      [
        Alcotest.test_case "url decoding" `Quick test_url_decode;
        Alcotest.test_case "request-line parsing" `Quick test_parse_request;
        Alcotest.test_case "keep-alive and pipelining" `Quick
          test_httpd_keep_alive;
        Alcotest.test_case "POST bodies on a persistent connection" `Quick
          test_httpd_post_body;
        Alcotest.test_case "strict framing: 400 + close" `Quick
          test_httpd_strict_framing;
      ] );
    ( "ops.profiler",
      [
        Alcotest.test_case "fold and EMA behaviour" `Quick test_profiler_folds;
        Alcotest.test_case "nested brackets: exact self" `Quick
          test_profiler_nested_chunks;
        Alcotest.test_case "json payload" `Quick test_profiler_json;
        Alcotest.test_case "digests identical with profiler on (1/2/4 \
                            threads)" `Quick test_digests_with_profiler;
      ] );
  ]
