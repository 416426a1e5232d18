(* The flight recorder: an always-on black box that turns a live run's
   observability state — journal tail, metrics snapshot, and any caller
   -registered sections (session scalars, profiler top-k, WAL lag,
   explain trees for the tuples a failure named) — into one atomic,
   self-contained JSON diagnostic bundle.

   Triggers are the caller's: an uncaught engine exception, a
   [Causality_violation], SIGUSR1 ({!on_signal}), or the ops plane's
   [/dump] endpoint all funnel into {!dump}.  Bundles are written
   temp-file + rename, so a reader (or a crash) never sees a torn one.

   This module is engine-agnostic (the obs layer cannot see lib/core):
   everything engine-shaped arrives as a section thunk registered by
   the glue in lib/ops or bin/.  Section thunks run at dump time under
   an exception guard — a failing section becomes an ["error"] field,
   never a lost bundle (the bundle exists *because* something is
   already going wrong). *)

let schema_version = "jstar-flight-1"

type t = {
  dir : string;
  journal : Journal.t option;
  metrics : Metrics.t option;
  journal_tail : int;  (* entries included per bundle *)
  mutable sections : (string * (unit -> Json.t)) list;  (* newest first *)
  mutable dumps : int;
  mutable last_path : string option;
  mutex : Mutex.t;
}

let create ?journal ?metrics ?(journal_tail = 512) ~dir () =
  {
    dir;
    journal;
    metrics;
    journal_tail;
    sections = [];
    dumps = 0;
    last_path = None;
    mutex = Mutex.create ();
  }

let dir t = t.dir
let dumps t = t.dumps
let last_path t = t.last_path

let add_section t name f =
  Mutex.lock t.mutex;
  t.sections <- (name, f) :: t.sections;
  Mutex.unlock t.mutex

let guarded f =
  match f () with
  | j -> j
  | exception exn -> Json.Obj [ ("error", Json.Str (Printexc.to_string exn)) ]

let metrics_json m =
  Json.Obj
    (List.map
       (fun row ->
         ( row.Metrics.name,
           Json.Obj
             (( "kind", Json.Str row.Metrics.kind )
             :: List.map
                  (fun (f, v) ->
                    ( f,
                      match v with
                      | Metrics.Int i -> Json.Num (float_of_int i)
                      | Metrics.Float x -> Json.Num x ))
                  row.Metrics.fields) ))
       (Metrics.snapshot m))

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let bundle_json t ~reason ~detail =
  let sections =
    Mutex.lock t.mutex;
    let s = List.rev t.sections in
    Mutex.unlock t.mutex;
    s
  in
  Json.Obj
    ([
       ("schema", Json.Str schema_version);
       ("reason", Json.Str reason);
       ("time_unix", Json.Num (Unix.gettimeofday ()));
       ("pid", Json.Num (float_of_int (Unix.getpid ())));
     ]
    @ detail
    @ (match t.journal with
      | None -> []
      | Some j ->
          [
            ("journal_dropped", Json.Num (float_of_int (Journal.dropped j)));
            ("journal", guarded (fun () -> Journal.to_json ~n:t.journal_tail j));
          ])
    @ (match t.metrics with
      | None -> []
      | Some m -> [ ("metrics", guarded (fun () -> metrics_json m)) ])
    @ List.map (fun (name, f) -> (name, guarded f)) sections)

(* Write one bundle and return its path.  Serialized under the mutex:
   concurrent triggers (an ops thread's /dump racing a signal handler)
   each get their own numbered file. *)
let dump ?(detail = []) t ~reason =
  let json = bundle_json t ~reason ~detail in
  Mutex.lock t.mutex;
  let n = t.dumps in
  t.dumps <- n + 1;
  Mutex.unlock t.mutex;
  mkdir_p t.dir;
  let path =
    Filename.concat t.dir
      (Printf.sprintf "flight-%d-%03d.json" (Unix.getpid ()) n)
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    (fun () ->
      let buf = Buffer.create 65536 in
      Json.to_buffer buf json;
      Buffer.add_char buf '\n';
      output_string oc (Buffer.contents buf))
    ~finally:(fun () -> close_out oc);
  Sys.rename tmp path;
  t.last_path <- Some path;
  (match t.journal with
  | Some j ->
      Journal.info j ~comp:"recorder" ~event:"dump"
        [ ("reason", Json.Str reason); ("path", Json.Str path) ]
  | None -> ());
  path

(* Install [signal] (SIGUSR1 by convention) to write a bundle from a
   live process.  OCaml runs the handler at a safe point on the main
   thread, where reading observability state is exactly as safe as the
   ops plane's monitoring thread doing it mid-drain. *)
let on_signal ?(signal = Sys.sigusr1) t =
  Sys.set_signal signal
    (Sys.Signal_handle (fun _ -> ignore (dump t ~reason:"signal")))
