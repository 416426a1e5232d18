(* A work-stealing fork/join pool on OCaml 5 domains, playing the role the
   Java Fork/Join framework plays in the original JStar runtime.

   Layout: [size] worker slots, each with a Chase-Lev deque.  Slot 0 is
   reserved for the *caller* domain (the domain that created the pool and
   drives the computation); slots 1..size-1 are owned by spawned domains.
   Tasks forked from a worker go to that worker's own deque (LIFO helps
   locality, exactly as in Java F/J); tasks submitted from outside go to a
   mutex-protected injector queue.

   Joining uses the "help-first" policy: a domain waiting on an unfinished
   promise executes other tasks from its own deque, steals, or drains the
   injector.  For strict fork/join DAGs (all our uses) this is
   deadlock-free: an unfinished promise's task is either in some deque, in
   the injector, or running on another domain that itself makes progress.

   Idle workers park on a condition variable.  The sleep/wake handshake is
   the standard Dekker-style protocol: a parking worker increments
   [idlers] (seq_cst) *before* its final emptiness re-check, and a
   producer reads [idlers] *after* publishing its task, so one of the two
   always observes the other. *)

type task = unit -> unit

type worker = {
  wid : int;
  deque : task Chase_lev.t;
  mutable rng : int; (* xorshift state for victim selection *)
  (* Owner-written scheduler counters (plain ints: each field is only
     ever written by the domain running as this worker, so there are no
     lost updates; cross-domain reads by [stats] may observe a slightly
     stale value, which is fine for a monitoring lane). *)
  mutable w_tasks : int; (* tasks executed *)
  mutable w_steals : int; (* successful steals by this worker *)
  mutable w_parks : int; (* condition-variable waits *)
  mutable w_idle_ns : int; (* total parked time *)
}

type t = {
  pool_id : int;
  workers : worker array;
  caller_slot : int Atomic.t; (* 0 when free, 1 when slot 0 is claimed *)
  injector : task Queue.t;
  inj_mutex : Mutex.t;
  inj_cond : Condition.t;
  idlers : int Atomic.t;
  live : int Atomic.t; (* spawned domains still running *)
  shutdown : bool Atomic.t;
  mutable domains : unit Domain.t list;
  size : int;
  tracer : Jstar_obs.Tracer.t;
      (* spawn/steal/idle events; [Tracer.disabled] unless the creator
         passes one, so untraced pools take a single dead branch per
         steal *)
}

exception Shutdown

let next_pool_id = Atomic.make 0

(* Per-domain stack of (pool, worker) contexts, innermost first. *)
let context_key : (t * worker) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let my_worker pool =
  let stack = Domain.DLS.get context_key in
  List.find_map
    (fun (p, w) -> if p.pool_id = pool.pool_id then Some w else None)
    !stack

let size pool = pool.size

(* ------------------------------------------------------------------ *)
(* Task acquisition                                                    *)

let next_random w =
  let x = w.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  w.rng <- x;
  x land max_int

let try_pop_injector pool =
  if Mutex.try_lock pool.inj_mutex then (
    let v = Queue.take_opt pool.injector in
    Mutex.unlock pool.inj_mutex;
    v)
  else None

(* One full round of steal attempts over the other workers, starting from
   a random victim.  Returns the first stolen task, or None after a pass
   in which every deque looked empty. *)
let try_steal pool w =
  let n = Array.length pool.workers in
  let start = next_random w mod n in
  let rec go i retry =
    if i >= n then if retry then go 0 false else None
    else
      let victim = pool.workers.((start + i) mod n) in
      if victim.wid = w.wid then go (i + 1) retry
      else
        match Chase_lev.steal victim.deque with
        | Chase_lev.Stolen t ->
            w.w_steals <- w.w_steals + 1;
            if Jstar_obs.Tracer.spans_on pool.tracer then
              Jstar_obs.Tracer.instant pool.tracer Jstar_obs.Kind.steal
                ~arg:victim.wid;
            Some t
        | Chase_lev.Empty -> go (i + 1) retry
        | Chase_lev.Retry -> go (i + 1) true
  in
  go 0 false

let find_task pool w =
  match Chase_lev.pop w.deque with
  | Some _ as t -> t
  | None -> (
      match try_steal pool w with
      | Some _ as t -> t
      | None -> try_pop_injector pool)

(* ------------------------------------------------------------------ *)
(* Sleep/wake handshake                                                *)

let any_work_visible pool =
  (not (Queue.is_empty pool.injector))
  || Array.exists (fun w -> not (Chase_lev.is_empty w.deque)) pool.workers

(* Wake a single idler per new task: broadcasting stampedes every
   parked worker through a futile steal scan, which is especially
   costly when the pool is larger than the core count.  A woken worker
   that finds work propagates the wakeup (see [worker_loop]). *)
let wake_idlers pool =
  if Atomic.get pool.idlers > 0 then (
    Mutex.lock pool.inj_mutex;
    Condition.signal pool.inj_cond;
    Mutex.unlock pool.inj_mutex)

let park pool w =
  Atomic.incr pool.idlers;
  if any_work_visible pool || Atomic.get pool.shutdown then
    Atomic.decr pool.idlers
  else (
    Mutex.lock pool.inj_mutex;
    if (not (any_work_visible pool)) && not (Atomic.get pool.shutdown) then begin
      (* Only a real wait is worth an idle span: the fast re-check
         paths above return in nanoseconds and would flood the ring.
         The clock reads are unconditional — unlike spans they feed the
         always-on utilization lane, and a parked wait is already two
         syscalls deep, so two [now_ns] calls are noise. *)
      let t0 = Jstar_obs.Tracer.start pool.tracer in
      let p0 = Jstar_obs.Monotonic.now_ns () in
      Condition.wait pool.inj_cond pool.inj_mutex;
      w.w_parks <- w.w_parks + 1;
      w.w_idle_ns <- w.w_idle_ns + (Jstar_obs.Monotonic.now_ns () - p0);
      Jstar_obs.Tracer.stop pool.tracer Jstar_obs.Kind.idle t0
    end;
    Mutex.unlock pool.inj_mutex;
    Atomic.decr pool.idlers)

(* ------------------------------------------------------------------ *)
(* Task submission                                                     *)

let run_task task =
  (* Worker-loop tasks must never let an exception escape: promise tasks
     capture their own exceptions; bare submitted tasks that raise would
     otherwise kill a worker domain. *)
  try task () with _ -> ()

let push_local_or_inject pool task =
  match my_worker pool with
  | Some w ->
      Chase_lev.push w.deque task;
      wake_idlers pool
  | None ->
      Mutex.lock pool.inj_mutex;
      Queue.add task pool.injector;
      Condition.signal pool.inj_cond;
      Mutex.unlock pool.inj_mutex

let submit pool task =
  if Atomic.get pool.shutdown then raise Shutdown;
  push_local_or_inject pool task

(* ------------------------------------------------------------------ *)
(* Worker main loop                                                    *)

let with_context pool w f =
  let stack = Domain.DLS.get context_key in
  stack := (pool, w) :: !stack;
  Fun.protect f ~finally:(fun () ->
      match !stack with
      | _ :: rest -> stack := rest
      | [] -> assert false)

let worker_loop pool w =
  with_context pool w (fun () ->
      if Jstar_obs.Tracer.spans_on pool.tracer then
        Jstar_obs.Tracer.instant pool.tracer Jstar_obs.Kind.spawn ~arg:w.wid;
      let backoff = Backoff.create () in
      while not (Atomic.get pool.shutdown) do
        match find_task pool w with
        | Some task ->
            Backoff.reset backoff;
            (* propagate the wakeup chain while work remains *)
            if
              Atomic.get pool.idlers > 0
              && not (Chase_lev.is_empty w.deque)
            then wake_idlers pool;
            w.w_tasks <- w.w_tasks + 1;
            run_task task
        | None ->
            Backoff.once backoff;
            park pool w
      done);
  Atomic.decr pool.live

let create ~num_workers ?(tracer = Jstar_obs.Tracer.disabled) () =
  if num_workers < 1 then invalid_arg "Pool.create: num_workers < 1";
  let pool =
    {
      pool_id = Atomic.fetch_and_add next_pool_id 1;
      workers =
        Array.init num_workers (fun wid ->
            {
              wid;
              deque = Chase_lev.create ();
              rng = (wid * 2654435761) + 1;
              w_tasks = 0;
              w_steals = 0;
              w_parks = 0;
              w_idle_ns = 0;
            });
      caller_slot = Atomic.make 0;
      injector = Queue.create ();
      inj_mutex = Mutex.create ();
      inj_cond = Condition.create ();
      idlers = Atomic.make 0;
      live = Atomic.make (num_workers - 1);
      shutdown = Atomic.make false;
      domains = [];
      size = num_workers;
      tracer;
    }
  in
  pool.domains <-
    List.init (num_workers - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop pool pool.workers.(i + 1)));
  pool

(* ------------------------------------------------------------------ *)
(* Scheduler statistics                                                *)

type stats = { tasks : int; steals : int; parks : int; idle_ns : int }

let stats pool =
  Array.fold_left
    (fun acc w ->
      {
        tasks = acc.tasks + w.w_tasks;
        steals = acc.steals + w.w_steals;
        parks = acc.parks + w.w_parks;
        idle_ns = acc.idle_ns + w.w_idle_ns;
      })
    { tasks = 0; steals = 0; parks = 0; idle_ns = 0 }
    pool.workers

let shutdown pool =
  if not (Atomic.exchange pool.shutdown true) then (
    Mutex.lock pool.inj_mutex;
    (* shutdown wakes everyone *)
    Condition.broadcast pool.inj_cond;
    Mutex.unlock pool.inj_mutex;
    List.iter Domain.join pool.domains;
    pool.domains <- [])

(* ------------------------------------------------------------------ *)
(* Futures                                                             *)

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace
type 'a future = 'a state Atomic.t

let fulfill fut f =
  let result =
    try Done (f ())
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Failed (e, bt)
  in
  Atomic.set fut result

let fork pool f =
  let fut = Atomic.make Pending in
  submit pool (fun () -> fulfill fut f);
  fut

let peek fut =
  match Atomic.get fut with
  | Done v -> Some (Ok v)
  | Failed (e, _) -> Some (Error e)
  | Pending -> None

(* Help-first join: while the future is pending, execute other tasks.
   Works both on worker domains and on an unregistered caller (which
   then only drains the injector and steals). *)
let join pool fut =
  let backoff = Backoff.create () in
  let helper_worker =
    match my_worker pool with
    | Some w -> w
    | None ->
        (* Temporary thief identity: deque stays empty, only steals.
           Its counters are not part of any pool, so tasks it helps
           with are invisible to [stats] — a documented blind spot. *)
        {
          wid = -1;
          deque = Chase_lev.create ();
          rng = 0x9e3779b9;
          w_tasks = 0;
          w_steals = 0;
          w_parks = 0;
          w_idle_ns = 0;
        }
  in
  let rec wait () =
    match Atomic.get fut with
    | Done v -> v
    | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending ->
        (match find_task pool helper_worker with
        | Some task ->
            Backoff.reset backoff;
            helper_worker.w_tasks <- helper_worker.w_tasks + 1;
            run_task task
        | None -> Backoff.once backoff);
        wait ()
  in
  wait ()

let run pool f =
  match my_worker pool with
  | Some _ -> f ()
  | None ->
      (* Claim the caller slot so forks from [f] go to a real deque. *)
      let rec claim () =
        if Atomic.compare_and_set pool.caller_slot 0 1 then ()
        else (
          Domain.cpu_relax ();
          claim ())
      in
      claim ();
      Fun.protect
        (fun () -> with_context pool pool.workers.(0) f)
        ~finally:(fun () -> Atomic.set pool.caller_slot 0)
