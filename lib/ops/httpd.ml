(* A dependency-free HTTP/1.1 endpoint over Unix sockets: just enough
   protocol for a Prometheus scraper, a health prober, a curl-driven
   operator and the serve control plane — GET and POST with
   Content-Length bodies, persistent connections by default.

   Architecture: one acceptor thread (threads.posix, not a domain — it
   sleeps in [select] and must not burn a core the engine could use)
   multiplexing the listening socket, a self-pipe, and every live
   persistent connection.  [stop] writes one byte to the pipe, so
   shutdown interrupts a blocked select cleanly, then joins the thread
   and closes everything.  Requests are served serially on the acceptor
   thread: every endpoint renders from in-memory state in microseconds,
   and serial handling means a scrape can never pile up threads behind
   a slow client.  Slow clients are bounded twice over: SO_RCVTIMEO
   caps each read, and a monotonic deadline caps the whole request —
   a trickler that defeats the per-read timeout one byte at a time is
   cut off at [request_deadline_ns] and cannot starve /metrics for the
   other connections.

   Keep-alive framing discipline: a request whose framing we cannot
   trust for the *next* request on the same connection (bad request
   line, unsupported transfer-encoding, malformed or oversized
   Content-Length, POST without a length) gets a 400/405 with
   [Connection: close] — never a guess at where the next request
   starts.

   The handlers run concurrently with the engine's driving thread by
   design — see the determinism caveats in DESIGN.md §12: everything
   they read is either immutable, monotone, or a timing lane that
   tolerates staleness. *)

type response = { status : int; content_type : string; body : string }

let text ?(status = 200) body = { status; content_type = "text/plain"; body }

let json ?(status = 200) body =
  { status; content_type = "application/json"; body }

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  body : string;
}

type handler = request -> response

type conn = { fd : Unix.file_descr; mutable residual : string }

type t = {
  lsock : Unix.file_descr;
  port : int;
  stop_w : Unix.file_descr;
  thread : Thread.t;
}

let head_cap = 16384
let body_cap = 1 lsl 20
let max_conns = 32

(* Total budget for reading one request (head + body), on the
   monotonic clock.  SO_RCVTIMEO bounds each *read* to 2 s, but a
   client trickling one byte per read would reset that clock forever
   and park the whole single-threaded ops plane behind it — the
   deadline bounds the sum. *)
let request_deadline_ns = 10_000_000_000

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | _ -> "Status"

let url_decode s =
  let n = String.length s in
  let b = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise Exit
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char b ' '
    | '%' when !i + 2 < n -> (
        match (hex s.[!i + 1], hex s.[!i + 2]) with
        | h, l ->
            Buffer.add_char b (Char.chr ((h * 16) + l));
            i := !i + 2
        | exception Exit -> Buffer.add_char b '%')
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_query qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | None -> Some (url_decode kv, "")
             | Some i ->
                 Some
                   ( url_decode (String.sub kv 0 i),
                     url_decode
                       (String.sub kv (i + 1) (String.length kv - i - 1)) ))

(* Parse a request line ("GET /path?query HTTP/1.x") into
   (method, path, decoded query, http_11). *)
let parse_request line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ]
    when (meth = "GET" || meth = "POST")
         && (version = "HTTP/1.0" || version = "HTTP/1.1") ->
      let path, query =
        match String.index_opt target '?' with
        | None -> (target, [])
        | Some i ->
            ( String.sub target 0 i,
              parse_query
                (String.sub target (i + 1) (String.length target - i - 1)) )
      in
      Some (meth, path, query, version = "HTTP/1.1")
  | _ -> None

(* Header lines after the request line, names lowercased. *)
let parse_headers lines =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None
      | Some i ->
          Some
            ( String.lowercase_ascii (String.sub line 0 i),
              String.trim
                (String.sub line (i + 1) (String.length line - i - 1)) ))
    lines

let write_response ~keep_alive fd { status; content_type; body } =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: %s\r\n\r\n"
      status (reason status) content_type (String.length body)
      (if keep_alive then "keep-alive" else "close")
  in
  let send s =
    let b = Bytes.of_string s in
    let off = ref 0 in
    while !off < Bytes.length b do
      let n = Unix.write fd b !off (Bytes.length b - !off) in
      if n = 0 then raise Exit;
      off := !off + n
    done
  in
  send head;
  send body

(* Read from [c] until [pred] says the buffered prefix is complete, or
   a cap / per-read timeout / [deadline] / EOF intervenes.  Returns the
   buffered string; the caller re-checks [pred] to distinguish success
   from truncation. *)
let read_until c ~deadline ~cap pred =
  let buf = Buffer.create 256 in
  Buffer.add_string buf c.residual;
  c.residual <- "";
  let chunk = Bytes.create 2048 in
  let rec go () =
    if
      pred (Buffer.contents buf)
      || Buffer.length buf >= cap
      || Jstar_obs.Monotonic.now_ns () > deadline
    then Buffer.contents buf
    else
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Buffer.contents buf
  in
  go ()

let find_terminator s =
  let n = String.length s in
  let rec find i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
            && s.[i + 3] = '\n'
    then Some (i + 4)
    else find (i + 1)
  in
  find 0

(* Serve exactly one request on [c].  [`Keep] leaves the connection
   (and any pipelined residual) live; [`Close] ends it. *)
let serve_one routes c =
  let bad ?(status = 400) msg =
    (try
       write_response ~keep_alive:false c.fd
         { status; content_type = "text/plain"; body = msg ^ "\n" }
     with Exit | Unix.Unix_error _ -> ());
    `Close
  in
  (* One budget for the whole request: the clock starts when select
     said bytes were ready, so an idle keep-alive connection is never
     charged — only a connection mid-request. *)
  let deadline = Jstar_obs.Monotonic.now_ns () + request_deadline_ns in
  let head =
    read_until c ~deadline ~cap:head_cap (fun s -> find_terminator s <> None)
  in
  match find_terminator head with
  | None ->
      if head = "" then `Close (* clean EOF between requests *)
      else bad "malformed request head"
  | Some head_end -> (
      c.residual <- String.sub head head_end (String.length head - head_end);
      let lines =
        String.split_on_char '\n' (String.sub head 0 head_end)
        |> List.map (fun l ->
               if l <> "" && l.[String.length l - 1] = '\r' then
                 String.sub l 0 (String.length l - 1)
               else l)
      in
      match lines with
      | [] -> bad "malformed request head"
      | request_line :: header_lines -> (
          match parse_request request_line with
          | None -> (
              (* distinguish "unsupported method" from garbage *)
              match String.split_on_char ' ' request_line with
              | [ _; _; v ] when v = "HTTP/1.0" || v = "HTTP/1.1" ->
                  bad ~status:405 "GET or POST only"
              | _ -> bad "malformed request line")
          | Some (meth, path, query, http_11) -> (
              let headers = parse_headers header_lines in
              if List.mem_assoc "transfer-encoding" headers then
                bad "transfer-encoding not supported"
              else
                let content_length =
                  match List.assoc_opt "content-length" headers with
                  | None -> Ok 0
                  | Some v -> (
                      match int_of_string_opt v with
                      | Some n when n >= 0 && n <= body_cap -> Ok n
                      | _ -> Error ())
                in
                match content_length with
                | Error () -> bad "malformed Content-Length"
                | Ok 0 when meth = "POST"
                            && not (List.mem_assoc "content-length" headers)
                  ->
                    (* Without a length we cannot find the next request's
                       start on this connection. *)
                    bad "POST requires Content-Length"
                | Ok clen -> (
                    let body =
                      read_until c ~deadline ~cap:clen (fun s ->
                          String.length s >= clen)
                    in
                    if String.length body < clen then
                      bad "truncated request body"
                    else begin
                      if String.length body > clen then
                        c.residual <-
                          String.sub body clen (String.length body - clen);
                      let body = String.sub body 0 clen in
                      let keep_alive =
                        match List.assoc_opt "connection" headers with
                        | Some v ->
                            String.lowercase_ascii v = "keep-alive"
                            || (http_11 && String.lowercase_ascii v <> "close")
                        | None -> http_11
                      in
                      let resp =
                        match List.assoc_opt path routes with
                        | None ->
                            {
                              status = 404;
                              content_type = "application/json";
                              body = "{\"error\": \"no such endpoint\"}\n";
                            }
                        | Some h -> (
                            try h { meth; path; query; body }
                            with e ->
                              {
                                status = 500;
                                content_type = "text/plain";
                                body =
                                  "handler error: " ^ Printexc.to_string e
                                  ^ "\n";
                              })
                      in
                      match write_response ~keep_alive c.fd resp with
                      | () -> if keep_alive then `Keep else `Close
                      | exception (Exit | Unix.Unix_error _) -> `Close
                    end))))

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let acceptor lsock stop_r routes () =
  let conns = ref [] in
  let running = ref true in
  while !running do
    let watched = lsock :: stop_r :: List.map (fun c -> c.fd) !conns in
    match Unix.select watched [] [] (-1.0) with
    | readable, _, _ ->
        if List.mem stop_r readable then running := false
        else begin
          (* Serve pending requests on live connections first, then
             accept.  Pipelined requests may land in [residual] in one
             read — with nothing left in the socket buffer, select
             would never wake for them — so keep serving while the
             residual holds a complete head. *)
          let rec serve c =
            match serve_one routes c with
            | `Keep -> find_terminator c.residual = None || serve c
            | `Close ->
                close_conn c;
                false
            | exception _ ->
                close_conn c;
                false
          in
          conns :=
            List.filter
              (fun c -> (not (List.mem c.fd readable)) || serve c)
              !conns;
          if List.mem lsock readable then begin
            match Unix.accept lsock with
            | fd, _ ->
                Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
                Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
                (* Bound the fd set: shed the oldest idle connection
                   rather than refusing the new one. *)
                (if List.length !conns >= max_conns then
                   match List.rev !conns with
                   | oldest :: _ ->
                       close_conn oldest;
                       conns := List.filter (fun c -> c != oldest) !conns
                   | [] -> ());
                conns := { fd; residual = "" } :: !conns
            | exception Unix.Unix_error _ -> ()
          end
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter close_conn !conns

let start ?(addr = "127.0.0.1") ~port routes =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lsock Unix.SO_REUSEADDR true;
     Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen lsock 16
   with e ->
     (try Unix.close lsock with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stop_r, stop_w = Unix.pipe () in
  let thread = Thread.create (acceptor lsock stop_r routes) () in
  { lsock; port; stop_w; thread }

let port t = t.port

let stop t =
  (try ignore (Unix.write t.stop_w (Bytes.make 1 '.') 0 1)
   with Unix.Unix_error _ -> ());
  Thread.join t.thread;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.lsock; t.stop_w ]
