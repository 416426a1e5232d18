(* Validator for Chrome trace-event JSON, used by the test suite and
   the @trace-smoke alias.  Checks the schema subset the exporter
   promises: every event carries ph/pid/tid (plus ts and name for
   non-metadata events), and per (pid, tid) track the B/E duration
   events form a balanced, name-matched bracket sequence in file
   order. *)

type summary = {
  events : int;
  tracks : int;
  spans : int; (* balanced B/E pairs *)
  instants : int;
  by_name : (string * int) list; (* event count per name, any phase *)
}

let count_name acc name =
  match List.assoc_opt name acc with
  | Some c -> (name, c + 1) :: List.remove_assoc name acc
  | None -> (name, 1) :: acc

let name_count summary name =
  match List.assoc_opt name summary.by_name with Some c -> c | None -> 0

let validate json =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* events =
    match Json.member "traceEvents" json with
    | Some ev -> (
        match Json.to_list_opt ev with
        | Some l -> Ok l
        | None -> Error "traceEvents is not an array")
    | None -> Error "missing traceEvents"
  in
  (* stacks: (pid, tid) -> open span names, newest first *)
  let stacks : (float * float, string list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let tracks : (float * float, unit) Hashtbl.t = Hashtbl.create 8 in
  let spans = ref 0 and instants = ref 0 and by_name = ref [] in
  let rec check i = function
    | [] -> Ok ()
    | ev :: rest ->
        let err msg = Error (Printf.sprintf "event %d: %s" i msg) in
        let* ph =
          match Option.bind (Json.member "ph" ev) Json.to_string_opt with
          | Some ph -> Ok ph
          | None -> err "missing ph"
        in
        let* pid =
          match Option.bind (Json.member "pid" ev) Json.to_float_opt with
          | Some p -> Ok p
          | None -> err "missing pid"
        in
        let* tid =
          match Option.bind (Json.member "tid" ev) Json.to_float_opt with
          | Some t -> Ok t
          | None -> err "missing tid"
        in
        let name = Option.bind (Json.member "name" ev) Json.to_string_opt in
        let* () =
          if ph = "M" then Ok ()
          else begin
            match
              (name, Option.bind (Json.member "ts" ev) Json.to_float_opt)
            with
            | None, _ -> err "missing name"
            | _, None -> err "missing ts"
            | Some n, Some _ ->
                Hashtbl.replace tracks (pid, tid) ();
                by_name := count_name !by_name n;
                let stack =
                  match Hashtbl.find_opt stacks (pid, tid) with
                  | Some s -> s
                  | None ->
                      let s = ref [] in
                      Hashtbl.replace stacks (pid, tid) s;
                      s
                in
                (match ph with
                | "B" ->
                    stack := n :: !stack;
                    Ok ()
                | "E" -> (
                    match !stack with
                    | top :: tl when top = n ->
                        stack := tl;
                        incr spans;
                        Ok ()
                    | top :: _ ->
                        err
                          (Printf.sprintf "E %s does not match open B %s" n
                             top)
                    | [] -> err (Printf.sprintf "E %s with no open span" n))
                | "i" | "I" ->
                    incr instants;
                    Ok ()
                | "X" -> Ok ()
                | other -> err ("unexpected phase " ^ other))
          end
        in
        check (i + 1) rest
  in
  let* () = check 0 events in
  let* () =
    Hashtbl.fold
      (fun (pid, tid) stack acc ->
        let* () = acc in
        match !stack with
        | [] -> Ok ()
        | open_spans ->
            Error
              (Printf.sprintf "track (%g,%g): %d unclosed span(s), top %s"
                 pid tid (List.length open_spans) (List.hd open_spans)))
      stacks (Ok ())
  in
  Ok
    {
      events = List.length events;
      tracks = Hashtbl.length tracks;
      spans = !spans;
      instants = !instants;
      by_name = !by_name;
    }

let validate_string s =
  match Json.of_string s with
  | Error msg -> Error ("json: " ^ msg)
  | Ok json -> validate json
