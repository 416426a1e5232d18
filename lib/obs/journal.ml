(* The structured event journal: a severity-tagged ring of JSON-line
   events fed by the engine, persist and ops layers — the
   narrative companion to the numeric registry.  Metrics say *how much*;
   the journal says *what happened* (step seals, drains,
   checkpoints, audit violations) in the order it happened, bounded
   by a fixed-capacity ring so a long run keeps the recent window —
   the one a post-mortem needs.

   Concurrency: one mutex around the ring.  Journal events are
   barrier-frequency (steps, drains, checkpoints), not put-frequency,
   so a lock is fine where the tracer needs per-domain rings.

   Determinism: the journal is observational only — nothing in the
   engine ever reads it back, so recording (or filtering, or wrapping)
   cannot perturb the class sequence or any digest lane. *)

type severity = Debug | Info | Warn | Error

let severity_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let severity_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_of_name = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type entry = {
  j_seq : int;  (* monotonic over the journal's lifetime, 0-based *)
  j_ts_ns : int;  (* Monotonic.now_ns at record time *)
  j_sev : severity;
  j_comp : string;  (* emitting layer: "engine", "persist", ... *)
  j_event : string;  (* event name: "step-seal", "checkpoint", ... *)
  j_fields : (string * Json.t) list;
}

type t = {
  mask : int;
  ring : entry option array;
  mutable head : int;  (* entries ever accepted (post-filter) *)
  mutable logged : int;  (* entries ever offered, any severity *)
  mutable min_severity : severity;
  mutex : Mutex.t;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(capacity = 2048) ?(min_severity = Debug) () =
  let cap = next_pow2 (max 2 capacity) in
  {
    mask = cap - 1;
    ring = Array.make cap None;
    head = 0;
    logged = 0;
    min_severity;
    mutex = Mutex.create ();
  }

let capacity t = t.mask + 1
let min_severity t = t.min_severity
let set_min_severity t sev = t.min_severity <- sev

let log t sev ~comp ~event fields =
  if severity_rank sev >= severity_rank t.min_severity then begin
    Mutex.lock t.mutex;
    t.logged <- t.logged + 1;
    let e =
      {
        j_seq = t.head;
        j_ts_ns = Monotonic.now_ns ();
        j_sev = sev;
        j_comp = comp;
        j_event = event;
        j_fields = fields;
      }
    in
    t.ring.(t.head land t.mask) <- Some e;
    t.head <- t.head + 1;
    Mutex.unlock t.mutex
  end
  else begin
    (* still count filtered offers, so tests can see the filter work *)
    Mutex.lock t.mutex;
    t.logged <- t.logged + 1;
    Mutex.unlock t.mutex
  end

let debug t ~comp ~event fields = log t Debug ~comp ~event fields
let info t ~comp ~event fields = log t Info ~comp ~event fields
let warn t ~comp ~event fields = log t Warn ~comp ~event fields
let error t ~comp ~event fields = log t Error ~comp ~event fields

let recorded t = t.head
let offered t = t.logged
let dropped t = max 0 (t.head - (t.mask + 1))

(* Retained entries, oldest first.  Copies under the mutex so a
   monitoring thread gets a consistent window while the driving thread
   keeps logging. *)
let entries t =
  Mutex.lock t.mutex;
  let cap = t.mask + 1 in
  let n = min t.head cap in
  let first = if t.head > cap then t.head - cap else 0 in
  let out = ref [] in
  for j = n - 1 downto 0 do
    match t.ring.((first + j) land t.mask) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  Mutex.unlock t.mutex;
  !out

let tail ?n t =
  let es = entries t in
  match n with
  | None -> es
  | Some k ->
      let len = List.length es in
      if len <= k then es else List.filteri (fun i _ -> i >= len - k) es

let entry_json e =
  Json.Obj
    ([
       ("seq", Json.Num (float_of_int e.j_seq));
       ("ts_ns", Json.Num (float_of_int e.j_ts_ns));
       ("severity", Json.Str (severity_name e.j_sev));
       ("component", Json.Str e.j_comp);
       ("event", Json.Str e.j_event);
     ]
    @ e.j_fields)

let to_json ?n t = Json.Arr (List.map entry_json (tail ?n t))

(* One JSON object per line, oldest first — the on-disk journal form. *)
let to_lines ?n t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.to_buffer buf (entry_json e);
      Buffer.add_char buf '\n')
    (tail ?n t);
  Buffer.contents buf
