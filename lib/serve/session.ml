(* One served session = one durable engine session owned by exactly one
   worker thread: single ownership, with messages instead of locks
   around the engine.  Connection threads never touch the engine; they enqueue
   commands into a lock-free MPSC mailbox (lib/cds Ms_queue) and block
   on a one-shot reply box when they need an answer.  The worker may
   live on another domain than the connection threads (Placement), so
   every field both sides touch is immutable, atomic or mutex-guarded.

   Backpressure is accounted here: [enqueue_feed] reserves each batch
   against an atomic tuple-backlog counter with a CAS loop before the
   worker sees it, parking on the flow condition until the worker
   (which decrements as it applies) makes room.  Admission is therefore
   atomic across connection threads: the backlog never exceeds
   max (quota, largest single batch) — never unbounded memory,
   whatever the clients do. *)

open Jstar_core
module Durable = Jstar_persist.Durable
module Wal = Jstar_persist.Wal

type 'a box = {
  bm : Mutex.t;
  bc : Condition.t;
  mutable bv : 'a option;
}

let box () = { bm = Mutex.create (); bc = Condition.create (); bv = None }

let box_put b v =
  Mutex.lock b.bm;
  b.bv <- Some v;
  Condition.signal b.bc;
  Mutex.unlock b.bm

let box_take b =
  Mutex.lock b.bm;
  while b.bv = None do
    Condition.wait b.bc b.bm
  done;
  let v = Option.get b.bv in
  Mutex.unlock b.bm;
  v

type cmd =
  | C_feed of Tuple.t list
  | C_drain of (string list * Protocol.watermark, string) result box
  | C_digest of (Protocol.digest_info, string) result box
  | C_checkpoint of (unit, string) result box
  | C_fork of string * (int, string) result box
  | C_harvest of (Wal.record list, string) result box
  | C_replay of Wal.record list * (int * int, string) result box
  | C_stop of (unit, string) result box

type t = {
  name : string;
  dir : string;
  tables : Schema.t array;
  schema_hash : int;
  durable : Durable.t;
  mailbox : cmd Jstar_cds.Ms_queue.t;
  quota : int;
  backlog : int Atomic.t;  (* tuples enqueued, not yet applied *)
  peak_backlog : int Atomic.t;
  tuples_in : int Atomic.t;
  feeds : int Atomic.t;
  drains : int Atomic.t;
  wake_m : Mutex.t;
  wake_c : Condition.t;
  flow_m : Mutex.t;
  flow_c : Condition.t;
  stopped : bool Atomic.t;
      (* set once, under wake_m, when the mailbox closes; read without
         it wherever a stale [false] only costs one more loop *)
  mutable attached : int;  (* connections bound here; server's registry lock *)
  last_active_ns : int Atomic.t;
      (* written by connection threads and the worker, read by the janitor *)
  mutable thread : Thread.t option;  (* set before [start] returns *)
}

let name t = t.name
let dir t = t.dir
let tables t = t.tables
let quota t = t.quota
let backlog t = Atomic.get t.backlog
let peak_backlog t = Atomic.get t.peak_backlog
let tuples_in t = Atomic.get t.tuples_in
let feeds t = Atomic.get t.feeds
let drains t = Atomic.get t.drains
let durable t = t.durable
let attached t = t.attached
let set_attached t n = t.attached <- n
let touch t = Atomic.set t.last_active_ns (Jstar_obs.Monotonic.now_ns ())

let idle_seconds t =
  float_of_int (Jstar_obs.Monotonic.now_ns () - Atomic.get t.last_active_ns)
  *. 1e-9

(* -- the worker -------------------------------------------------------- *)

let watermark_of t =
  let st =
    Engine.session_state ~with_outputs:false (Durable.session t.durable)
  in
  {
    Protocol.w_steps = st.Engine.ss_steps;
    w_outputs = st.Engine.ss_outputs_count;
    w_seq_lanes = st.Engine.ss_seq_lanes;
    w_out_lanes = Durable.output_lanes t.durable;
  }

let digest_of t =
  let session = Durable.session t.durable in
  let st = Engine.session_state ~with_outputs:false session in
  {
    Protocol.d_gamma = Engine.gamma_digest session;
    d_outputs = st.Engine.ss_outputs_count;
    d_seq_lanes = st.Engine.ss_seq_lanes;
    d_out_lanes = Durable.output_lanes t.durable;
  }

let guard f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let apply_feed t tuples =
  let n = List.length tuples in
  Durable.feed t.durable tuples;
  Atomic.incr t.feeds;
  ignore (Atomic.fetch_and_add t.tuples_in n);
  ignore (Atomic.fetch_and_add t.backlog (-n));
  Mutex.lock t.flow_m;
  Condition.broadcast t.flow_c;
  Mutex.unlock t.flow_m

(* Harvest this session's divergence for a merge: its current WAL.
   That log holds the *complete* divergence only while no checkpoint
   has intervened — a checkpoint empties the WAL, so harvesting after
   one would silently drop everything before it.  Provenance makes the
   check exact: a branch carries its fork generation (Durable.fork_base)
   and must still sit at it; a root session's whole history is its
   generation-0 WAL.  Either way the log is re-read and CRC-checked
   from disk, and the final watermark must reproduce the live session's
   digest lanes — a merge never trusts bytes the digests cannot vouch
   for, and never pretends a truncated window is the whole story. *)
let harvest t =
  let pending = Engine.session_pending (Durable.session t.durable) in
  if pending <> 0 then
    failwith
      (Printf.sprintf "%d tuples fed but not drained (drain before merging)"
         pending);
  let gen = Durable.generation t.durable in
  (match Durable.fork_base t.durable with
  | Some base when gen <> base ->
      failwith
        (Printf.sprintf
           "source checkpointed since its fork (gen %d, forked at %d): its \
            WAL no longer holds the full divergence"
           gen base)
  | None when gen > 0 ->
      failwith
        (Printf.sprintf
           "source checkpointed (gen %d): its WAL no longer holds its full \
            history"
           gen)
  | _ -> ());
  let records, tail =
    Wal.read (Durable.wal_path t.durable) ~tables:t.tables
      ~expect_hash:t.schema_hash
  in
  (match tail with
  | Wal.Clean -> ()
  | Wal.Torn _ | Wal.Corrupt _ -> failwith "source WAL tail is not clean");
  let records = List.map fst records in
  (match
     List.fold_left
       (fun acc r -> match r with Wal.Watermark wm -> Some wm | _ -> acc)
       None records
   with
  | None -> ()
  | Some wm ->
      if wm.Wal.wm_out_lanes <> Durable.output_lanes t.durable then
        failwith "source WAL does not reproduce the live output digest");
  records

(* Replay a harvested divergence into this session, preserving the
   source's feed/drain rhythm so the merged step sequence equals the
   single-session oracle's. *)
let replay t records =
  List.fold_left
    (fun (tuples, drains) r ->
      match r with
      | Wal.Feed ts ->
          Durable.feed t.durable ts;
          Atomic.incr t.feeds;
          ignore (Atomic.fetch_and_add t.tuples_in (List.length ts));
          (tuples + List.length ts, drains)
      | Wal.Watermark _ ->
          ignore (Durable.drain t.durable);
          Atomic.incr t.drains;
          (tuples, drains + 1))
    (0, 0) records

let exec t cmd =
  touch t;
  match cmd with
  | C_feed tuples -> apply_feed t tuples
  | C_drain b ->
      box_put b
        (guard (fun () ->
             let fresh = Durable.drain t.durable in
             Atomic.incr t.drains;
             (fresh, watermark_of t)))
  | C_digest b -> box_put b (guard (fun () -> digest_of t))
  | C_checkpoint b -> box_put b (guard (fun () -> Durable.checkpoint t.durable))
  | C_fork (dir, b) -> box_put b (guard (fun () -> Durable.fork t.durable ~dir))
  | C_harvest b -> box_put b (guard (fun () -> harvest t))
  | C_replay (records, b) -> box_put b (guard (fun () -> replay t records))
  | C_stop _ -> assert false (* handled by the loop *)

(* Declare the mailbox closed, then flush it: anything racing in
   behind the close gets an error reply, not silence.  [on_feed]
   decides what a queued feed batch deserves — applied on a graceful
   stop (the client was told it was accepted), dropped on a crash. *)
let close_mailbox t ~err ~on_feed =
  Mutex.lock t.wake_m;
  Atomic.set t.stopped true;
  Mutex.unlock t.wake_m;
  Jstar_cds.Ms_queue.drain t.mailbox (fun cmd ->
      let reject : type a. (a, string) result box -> unit =
       fun rb -> box_put rb (Error err)
      in
      match cmd with
      | C_feed tuples -> on_feed tuples
      | C_drain rb -> reject rb
      | C_digest rb -> reject rb
      | C_checkpoint rb -> reject rb
      | C_fork (_, rb) -> reject rb
      | C_harvest rb -> reject rb
      | C_replay (_, rb) -> reject rb
      | C_stop rb -> reject rb)

(* Unpark any flow-control waiters for good ([stopped] is now set). *)
let release_flow_waiters t =
  Mutex.lock t.flow_m;
  Condition.broadcast t.flow_c;
  Mutex.unlock t.flow_m

let worker t () =
  let running = ref true in
  while !running do
    match Jstar_cds.Ms_queue.pop t.mailbox with
    | Some (C_stop b) ->
        running := false;
        close_mailbox t ~err:"session stopped" ~on_feed:(apply_feed t);
        (* Graceful close: quiesce, checkpoint, release the engine. *)
        box_put b
          (guard (fun () ->
               if Engine.session_pending (Durable.session t.durable) > 0 then begin
                 ignore (Durable.drain t.durable);
                 Atomic.incr t.drains
               end;
               Durable.checkpoint t.durable;
               ignore (Durable.finish t.durable)));
        release_flow_waiters t
    | Some cmd -> (
        try exec t cmd
        with e ->
          (* Exception barrier.  [guard] already fences every boxed
             command, so only the fire-and-forget C_feed path can land
             here — a WAL append/fsync failure (ENOSPC, EIO) out of
             Durable.feed.  The engine can no longer be trusted, so the
             session dies *loudly*: declare it stopped, reject whatever
             is queued and unpark flow waiters — clients get Err frames
             instead of hanging forever in box_take, and server
             shutdown can still join this thread.  Backlog accounting
             stays exact (each reservation released exactly once):
             dropped batches are released here, the crashed batch's own
             reservation too (apply_feed decrements only after a
             successful apply), and a reservation still in flight in
             enqueue_feed rolls itself back when its post is refused —
             so the counter drains to 0 and the dead session remains
             evictable. *)
          running := false;
          let drop tuples =
            ignore (Atomic.fetch_and_add t.backlog (-(List.length tuples)))
          in
          (match cmd with C_feed tuples -> drop tuples | _ -> ());
          let msg = "session worker crashed: " ^ Printexc.to_string e in
          close_mailbox t ~err:msg ~on_feed:drop;
          release_flow_waiters t;
          Jstar_obs.Journal.error
            (Engine.session_journal (Durable.session t.durable))
            ~comp:"serve" ~event:"worker-crash"
            [
              ("session", Jstar_obs.Json.Str t.name);
              ("error", Jstar_obs.Json.Str (Printexc.to_string e));
            ];
          (try ignore (Durable.finish t.durable) with _ -> ()))
    | None ->
        Mutex.lock t.wake_m;
        while
          Jstar_cds.Ms_queue.is_empty t.mailbox && not (Atomic.get t.stopped)
        do
          Condition.wait t.wake_c t.wake_m
        done;
        Mutex.unlock t.wake_m
  done

(* -- lifecycle --------------------------------------------------------- *)

let start ~name ~dir ~quota ?checkpoint_every ?fsync ?placement frozen config =
  let durable, status = Durable.open_ ?checkpoint_every ?fsync ~dir frozen config in
  let t =
    {
      name;
      dir;
      tables = frozen.Program.tables;
      schema_hash = Jstar_persist.Codec.schema_hash frozen.Program.tables;
      durable;
      mailbox = Jstar_cds.Ms_queue.create ();
      quota;
      backlog = Atomic.make 0;
      peak_backlog = Atomic.make 0;
      tuples_in = Atomic.make 0;
      feeds = Atomic.make 0;
      drains = Atomic.make 0;
      wake_m = Mutex.create ();
      wake_c = Condition.create ();
      flow_m = Mutex.create ();
      flow_c = Condition.create ();
      stopped = Atomic.make false;
      attached = 0;
      last_active_ns = Atomic.make (Jstar_obs.Monotonic.now_ns ());
      thread = None;
    }
  in
  t.thread <-
    Some
      (match placement with
      | None -> Thread.create (worker t) ()
      | Some p -> Placement.spawn p (worker t));
  (t, status)

let post t cmd =
  Mutex.lock t.wake_m;
  if Atomic.get t.stopped then begin
    Mutex.unlock t.wake_m;
    Error "session stopped"
  end
  else begin
    Jstar_cds.Ms_queue.push t.mailbox cmd;
    Condition.signal t.wake_c;
    Mutex.unlock t.wake_m;
    Ok ()
  end

let roundtrip t make =
  let b = box () in
  match post t (make b) with
  | Error _ as e -> e
  | Ok () -> box_take b

(* -- operations (called from connection / server threads) -------------- *)

(* Block until the backlog falls below [limit] (or the session stops). *)
let wait_below t limit =
  Mutex.lock t.flow_m;
  while Atomic.get t.backlog >= limit && not (Atomic.get t.stopped) do
    Condition.wait t.flow_c t.flow_m
  done;
  Mutex.unlock t.flow_m

(* Admit and enqueue a feed batch.  Admission is atomic: a CAS loop
   reserves the whole batch against the backlog counter, so concurrent
   connections can never jointly drive the backlog past the quota.  A
   batch that would overflow a non-empty backlog parks — [on_pause]
   fires once, the reservation retries after [wait_below] — while a
   batch larger than the whole quota is admitted only into an *empty*
   backlog (refusing it outright would wedge its client).  Peak backlog
   is therefore bounded by max (quota, largest single batch); with
   batches within the quota, by the quota itself. *)
let enqueue_feed t tuples ~on_pause ~on_resume =
  let n = List.length tuples in
  let rec reserve paused =
    if Atomic.get t.stopped then begin
      if paused then on_resume (Atomic.get t.backlog);
      Error "session stopped"
    end
    else
      let cur = Atomic.get t.backlog in
      if cur > 0 && cur + n > t.quota then begin
        if not paused then on_pause cur;
        (* down to half the quota, and at least until the batch fits:
           a batch over half the quota would otherwise spin here *)
        wait_below t (max 1 (min (t.quota / 2) (t.quota - n + 1)));
        reserve true
      end
      else
        (* Admission point: backlog empty, or batch fits.  An oversized
           batch (n > quota) only ever lands here alone into an empty
           backlog — it still blew the quota, so the client hears the
           pause/resume pair: the signal that flow control engaged. *)
        let paused =
          if n > t.quota && not paused then begin
            on_pause cur;
            true
          end
          else paused
        in
        if Atomic.compare_and_set t.backlog cur (cur + n) then begin
          let now = cur + n in
          if paused then on_resume now;
          let rec bump_peak () =
            let p = Atomic.get t.peak_backlog in
            if now > p && not (Atomic.compare_and_set t.peak_backlog p now)
            then bump_peak ()
          in
          bump_peak ();
          match post t (C_feed tuples) with
          | Ok () -> Ok now
          | Error _ as e ->
              ignore (Atomic.fetch_and_add t.backlog (-n));
              release_flow_waiters t;
              e
        end
        else reserve paused
  in
  reserve false

let drain t = roundtrip t (fun b -> C_drain b)
let digest t = roundtrip t (fun b -> C_digest b)
let checkpoint t = roundtrip t (fun b -> C_checkpoint b)
let fork t ~dir = roundtrip t (fun b -> C_fork (dir, b))
let harvest t = roundtrip t (fun b -> C_harvest b)
let replay t records = roundtrip t (fun b -> C_replay (records, b))

let stop t =
  let r = roundtrip t (fun b -> C_stop b) in
  (match t.thread with Some th -> Thread.join th | None -> ());
  r
