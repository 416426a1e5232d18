(* Plumbing shared by the workloads: the benchmark's own monotonic
   clock, order statistics, /proc readers, deadlines, the in-memory
   span recorder, and the result line.

   Everything here is the benchmark's, not the program's: timings come
   from CLOCK_MONOTONIC read directly, never from the engine's own
   timers, so engine-side instrumentation can change without moving a
   single number reported here. *)

let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* -- order statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [q] of
   the samples at or below it. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let maximum xs = List.fold_left max neg_infinity xs

(* -- /proc --------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_proc path =
  (* /proc files report length 0: read until EOF *)
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%s/status" pid) in
  let kb =
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
            Scanf.sscanf (String.trim v) "%d kB" (fun k -> Some k)
        | _ -> None)
      (String.split_on_char '\n' status)
  in
  float_of_int (Option.value kb ~default:0) /. 1024.

(* user + system CPU seconds of another process, from /proc/<pid>/stat
   (fields 14 and 15, in USER_HZ = 100 ticks per second on Linux). *)
let proc_cpu_s pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces: fields restart after its ')' *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  match String.split_on_char ' ' rest with
  | _state :: _ppid :: _pgrp :: _sess :: _tty :: _tpgid :: _flags :: _minflt
    :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _ ->
      float_of_int (int_of_string utime + int_of_string stime) /. 100.
  | _ -> failwith "unparseable /proc/<pid>/stat"

(* CPU seconds of this process, every domain and thread included. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* -- files --------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    mkdir_p dst;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else
    let data = read_file src in
    let oc = open_out_bin dst in
    output_string oc data;
    close_out oc

let rec tree_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + tree_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(* -- deadlines ----------------------------------------------------------- *)

exception Deadline of string

(* A watchdog thread per run: each phase arms it with a name and a
   limit; if a phase overruns, [on_expire] runs once (the serve workload
   kills its child there, which unblocks every socket read) and the
   phase's name is kept for the failure message. *)
type watchdog = {
  wm : Mutex.t;
  mutable phase : string;
  mutable deadline_ns : int;  (* max_int = disarmed *)
  mutable expired : string option;
  mutable on_expire : unit -> unit;
  mutable stop : bool;
}

let watchdog () =
  let w =
    {
      wm = Mutex.create ();
      phase = "";
      deadline_ns = max_int;
      expired = None;
      on_expire = ignore;
      stop = false;
    }
  in
  let rec loop () =
    Thread.delay 0.05;
    Mutex.lock w.wm;
    let fire =
      if w.expired = None && now_ns () > w.deadline_ns then begin
        w.expired <- Some w.phase;
        Some w.on_expire
      end
      else None
    in
    let stop = w.stop in
    Mutex.unlock w.wm;
    Option.iter (fun f -> f ()) fire;
    if not stop then loop ()
  in
  ignore (Thread.create loop ());
  w

let with_wm w f =
  Mutex.lock w.wm;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.wm) f

(* Run [f] under a deadline of [limit] seconds; an overrun surfaces as
   [Deadline phase] whatever exception the unblocked call raised. *)
let phase w name ~limit f =
  with_wm w (fun () ->
      w.phase <- name;
      w.deadline_ns <- now_ns () + int_of_float (limit *. 1e9));
  let disarm () = with_wm w (fun () -> w.deadline_ns <- max_int) in
  match f () with
  | r ->
      disarm ();
      (match w.expired with Some p -> raise (Deadline p) | None -> ());
      r
  | exception e ->
      disarm ();
      (match w.expired with Some p -> raise (Deadline p) | None -> raise e)

(* -- spans --------------------------------------------------------------- *)

(* Spans recorded by the traced run around calls into the program's
   public functions: kept in memory, written out once at the end. *)
type span = {
  sp_name : string;
  sp_start : int;
  sp_stop : int;
  sp_parent : int;  (** span id, -1 for a root *)
  sp_window : int;  (** drain window, or -1 *)
}

let spans_m = Mutex.create ()
let spans : span array ref = ref [||]
let n_spans = ref 0
let tracing = ref false

let record sp =
  Mutex.lock spans_m;
  if !n_spans = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !n_spans)) sp in
    Array.blit !spans 0 bigger 0 !n_spans;
    spans := bigger
  end;
  let id = !n_spans in
  !spans.(id) <- sp;
  incr n_spans;
  Mutex.unlock spans_m;
  id

(* Time [f]; with tracing on, also record it as a span.  Returns the
   result and the elapsed seconds. *)
let span ?(parent = -1) ?(window = -1) name f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  if !tracing then
    ignore
      (record
         {
           sp_name = name;
           sp_start = t0;
           sp_stop = t1;
           sp_parent = parent;
           sp_window = window;
         });
  (r, float_of_int (t1 - t0) *. 1e-9)

(* An open parent span: its id is reserved now, its end filled in by
   [close_span]. *)
let open_span ?(parent = -1) name =
  if not !tracing then (-1, now_ns ())
  else
    let t0 = now_ns () in
    ( record
        {
          sp_name = name;
          sp_start = t0;
          sp_stop = t0;
          sp_parent = parent;
          sp_window = -1;
        },
      t0 )

let close_span (id, t0) =
  let t1 = now_ns () in
  if id >= 0 then begin
    Mutex.lock spans_m;
    !spans.(id) <- { !spans.(id) with sp_stop = t1 };
    Mutex.unlock spans_m
  end;
  float_of_int (t1 - t0) *. 1e-9

(* Spans cross from a batch round's child process to its parent as
   text lines: "span NAME START STOP PARENT WINDOW". *)
let span_lines () =
  List.init !n_spans (fun i ->
      let s = !spans.(i) in
      Printf.sprintf "span %s %d %d %d %d" s.sp_name s.sp_start s.sp_stop
        s.sp_parent s.sp_window)

(* Record a child's span lines, renumbering their parent links. *)
let import_span_lines lines =
  let base = !n_spans in
  List.iter
    (fun line ->
      Scanf.sscanf line "span %s %d %d %d %d" (fun name start stop parent window ->
          ignore
            (record
               {
                 sp_name = name;
                 sp_start = start;
                 sp_stop = stop;
                 sp_parent = (if parent < 0 then -1 else base + parent);
                 sp_window = window;
               })))
    lines

let write_spans path =
  let oc = open_out path in
  for i = 0 to !n_spans - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"window\":%d}\n"
      i s.sp_name s.sp_start s.sp_stop s.sp_parent s.sp_window
  done;
  close_out oc

(* -- the result ---------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* A run's outcome: operations attempted and failed, whether every
   check passed, and the metrics. *)
type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
}

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line o =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_float m.m_value) m.m_unit)
      o.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", " metrics)

let note fmt = Printf.ksprintf (fun s -> print_endline s) fmt
