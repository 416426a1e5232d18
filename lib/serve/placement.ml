(* Placement slots for session workers.  Slot 0 is the calling domain;
   every other slot is an executor domain spawned here once and joined
   by [shutdown].  A worker is a systhread, and a systhread lives on the
   domain that created it, so placing one on an executor means asking
   that executor's main thread to call [Thread.create]: it sleeps on
   its job queue (releasing the domain's runtime lock to the workers it
   hosts) and wakes only to create a worker or to join one that has
   finished.  Each hosted thread queues its own join as its last act,
   so an executor has joined every thread it created before its domain
   ends.

   Different slots run on different domains, so two sessions placed
   apart no longer share one runtime lock.  A session is a single-owner
   stream: which domain hosts its worker changes no digest. *)

type executor = {
  m : Mutex.t;
  c : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable closing : bool;
  mutable hosted : int;
      (* threads created here and not yet joined; only the executor's
         main thread touches it *)
}

type slot = { live : int Atomic.t; exec : executor option }

type t = {
  slots : slot array;
  pick_m : Mutex.t;
  mutable domains : unit Domain.t list;
}

let post ex job =
  Mutex.lock ex.m;
  Queue.push job ex.jobs;
  Condition.signal ex.c;
  Mutex.unlock ex.m

(* The executor's main thread: run jobs until closed with every hosted
   thread joined. *)
let executor_loop ex () =
  let rec loop () =
    Mutex.lock ex.m;
    while Queue.is_empty ex.jobs && not (ex.closing && ex.hosted = 0) do
      Condition.wait ex.c ex.m
    done;
    match Queue.take_opt ex.jobs with
    | None -> Mutex.unlock ex.m
    | Some job ->
        Mutex.unlock ex.m;
        job ();
        loop ()
  in
  loop ()

let shutdown t =
  Array.iter
    (fun s ->
      Option.iter
        (fun ex ->
          Mutex.lock ex.m;
          ex.closing <- true;
          Condition.signal ex.c;
          Mutex.unlock ex.m)
        s.exec)
    t.slots;
  List.iter Domain.join t.domains;
  t.domains <- []

let create ?(slots = Domain.recommended_domain_count ()) () =
  let slot exec = { live = Atomic.make 0; exec } in
  let executor () =
    {
      m = Mutex.create ();
      c = Condition.create ();
      jobs = Queue.create ();
      closing = false;
      hosted = 0;
    }
  in
  let t =
    {
      slots =
        Array.init (max 1 slots) (fun i ->
            slot (if i = 0 then None else Some (executor ())));
      pick_m = Mutex.create ();
      domains = [];
    }
  in
  (try
     Array.iter
       (fun s ->
         Option.iter
           (fun ex -> t.domains <- Domain.spawn (executor_loop ex) :: t.domains)
           s.exec)
       t.slots
   with e ->
     shutdown t;
     raise e);
  t

let load t = Array.map (fun s -> Atomic.get s.live) t.slots

(* Fewest live workers wins; ties go to the lowest executor, and slot 0
   (which also runs the connection threads) wins only outright. *)
let pick t =
  let live i = Atomic.get t.slots.(i).live in
  let n = Array.length t.slots in
  Mutex.lock t.pick_m;
  let best = ref (if n > 1 then 1 else 0) in
  for i = 2 to n - 1 do
    if live i < live !best then best := i
  done;
  if live 0 < live !best then best := 0;
  let s = t.slots.(!best) in
  Atomic.incr s.live;
  Mutex.unlock t.pick_m;
  s

(* Run [f] on [ex]'s main thread and wait for its result. *)
let ask ex f =
  let m = Mutex.create () and c = Condition.create () and r = ref None in
  Mutex.lock ex.m;
  let closing = ex.closing in
  Mutex.unlock ex.m;
  if closing then failwith "Placement.spawn: slots are shut down";
  post ex (fun () ->
      let v = try Ok (f ()) with e -> Error e in
      Mutex.lock m;
      r := Some v;
      Condition.signal c;
      Mutex.unlock m);
  Mutex.lock m;
  while Option.is_none !r do
    Condition.wait c m
  done;
  Mutex.unlock m;
  match Option.get !r with Ok v -> v | Error e -> raise e

(* On [ex]'s main thread: create a thread running [body] whose last act
   queues its own join there. *)
let host ex body () =
  let run () =
    Fun.protect body ~finally:(fun () ->
        let self = Thread.self () in
        post ex (fun () ->
            Thread.join self;
            ex.hosted <- ex.hosted - 1))
  in
  let th = Thread.create run () in
  ex.hosted <- ex.hosted + 1;
  th

let spawn t f =
  let s = pick t in
  let body () = Fun.protect f ~finally:(fun () -> Atomic.decr s.live) in
  try
    match s.exec with
    | None -> Thread.create body ()
    | Some ex -> ask ex (host ex body)
  with e ->
    Atomic.decr s.live;
    raise e
