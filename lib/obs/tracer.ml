(* The span tracer: one event ring per domain, acquired through
   domain-local storage so the recording path takes no lock and sees no
   other domain's cache lines.

   Hot-path contract: with [level < Spans] every recording function is
   a single branch on an immediate value and allocates nothing — the
   engine can leave calls in place under [tracing = Off] at zero cost
   (the engine additionally caches the [spans_on] test in a bool field
   so the common case is one load and branch).

   Ring acquisition: each domain keeps an MRU list of (tracer id, ring)
   pairs in DLS.  The head hit — the only case on a steady-state hot
   path — is allocation-free.  A miss creates a ring, registers it with
   the tracer under a mutex (cold, once per domain per tracer), and
   caps the DLS list so a process that creates many engines over its
   lifetime cannot accumulate unbounded lookup state. *)

type t = {
  id : int;
  level : Level.t;
  capacity : int;
  sample : int;
      (* record every [sample]-th event of each kind, per domain (1 =
         everything): the one span filter.  The counters live next to
         the ring in DLS, so the sampled path stays lock-free. *)
  mutable rings : Ring.t list; (* registration order, newest first *)
  mutable custom : string list; (* registered kind names, newest first *)
  mutable n_custom : int;
  reg_mutex : Mutex.t;
}

let next_id = Atomic.make 0

let create ?(capacity = 1 lsl 16) ?(sample = 1) ~level () =
  if sample < 1 then invalid_arg "Tracer.create: sample must be >= 1";
  {
    id = Atomic.fetch_and_add next_id 1;
    level;
    capacity;
    sample;
    rings = [];
    custom = [];
    n_custom = 0;
    reg_mutex = Mutex.create ();
  }

let disabled = create ~capacity:2 ~level:Level.Off ()
let level t = t.level
let spans_on t = Level.spans_on t.level
let counters_on t = Level.counters_on t.level

(* Most-recently-used cache of this domain's (ring, sample counters)
   pairs, across tracers.  The counter array has one slot per kind
   (folded into 64 slots; kinds past the array share slots, which only
   makes their sampling windows interleave). *)
type dls_entry = { e_id : int; e_ring : Ring.t; e_counters : int array }

let dls_key : dls_entry list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let dls_keep = 8
let counter_slots = 64

let entry_for t =
  let cell = Domain.DLS.get dls_key in
  match !cell with
  | e :: _ when e.e_id = t.id -> e
  | entries ->
      let rec split acc = function
        | [] -> None
        | e :: tl when e.e_id = t.id -> Some (e, List.rev_append acc tl)
        | e :: tl -> split (e :: acc) tl
      in
      (match split [] entries with
      | Some (e, rest) ->
          cell := e :: rest;
          e
      | None ->
          let r =
            Ring.create ~capacity:t.capacity ~tid:(Domain.self () :> int)
          in
          Mutex.lock t.reg_mutex;
          t.rings <- r :: t.rings;
          Mutex.unlock t.reg_mutex;
          let e =
            { e_id = t.id; e_ring = r; e_counters = Array.make counter_slots 0 }
          in
          let rest = List.filteri (fun i _ -> i < dls_keep - 1) entries in
          cell := e :: rest;
          e)

(* -- recording ------------------------------------------------------- *)

(* 1-in-N sampling: record the first event of every window of [sample]
   per (domain, kind slot).  [sample = 1] short-circuits before any DLS
   access, so unsampled tracers pay one immediate compare. *)
let sample_hit t e kind =
  t.sample = 1
  ||
  let slot = Kind.to_int kind land (counter_slots - 1) in
  let c = e.e_counters.(slot) + 1 in
  e.e_counters.(slot) <- (if c >= t.sample then 0 else c);
  c = 1

let instant t ?(arg = 0) kind =
  if Level.spans_on t.level then begin
    let e = entry_for t in
    if sample_hit t e kind then
      Ring.record e.e_ring ~kind:(Kind.to_int kind) ~ts:(Monotonic.now_ns ())
        ~dur:(-1) ~arg
  end

let start t = if Level.spans_on t.level then Monotonic.now_ns () else 0

let stop t ?(arg = 0) kind t0 =
  if Level.spans_on t.level then begin
    let e = entry_for t in
    if sample_hit t e kind then
      Ring.record e.e_ring ~kind:(Kind.to_int kind) ~ts:t0
        ~dur:(Monotonic.now_ns () - t0)
        ~arg
  end

let record_span t ?(arg = 0) kind ~ts ~dur =
  if Level.spans_on t.level then begin
    let e = entry_for t in
    if sample_hit t e kind then
      Ring.record e.e_ring ~kind:(Kind.to_int kind) ~ts ~dur ~arg
  end

let span t ?arg kind f =
  if Level.spans_on t.level then begin
    let t0 = Monotonic.now_ns () in
    Fun.protect f ~finally:(fun () -> stop t ?arg kind t0)
  end
  else f ()

(* -- custom kinds ---------------------------------------------------- *)

let register_kind t name =
  Mutex.lock t.reg_mutex;
  let k =
    let rec find i = function
      | [] ->
          t.custom <- name :: t.custom;
          t.n_custom <- t.n_custom + 1;
          Kind.custom (t.n_custom - 1)
      | n :: _ when n = name -> Kind.custom i
      | _ :: tl -> find (i - 1) tl
    in
    (* [custom] is newest-first: the head has the highest index. *)
    find (t.n_custom - 1) t.custom
  in
  Mutex.unlock t.reg_mutex;
  k

let kind_name t k =
  match Kind.builtin_name k with
  | Some n -> n
  | None ->
      let i = k - Kind.builtin_count in
      if i >= 0 && i < t.n_custom then List.nth t.custom (t.n_custom - 1 - i)
      else Printf.sprintf "kind-%d" k

(* -- reading --------------------------------------------------------- *)

let rings t =
  Mutex.lock t.reg_mutex;
  let rs = List.rev t.rings in
  Mutex.unlock t.reg_mutex;
  rs

let dropped t = List.fold_left (fun acc r -> acc + Ring.dropped r) 0 (rings t)

let events t f =
  List.iter
    (fun r ->
      let tid = Ring.tid r in
      Ring.iter r (fun ~kind ~ts ~dur ~arg -> f ~tid ~kind ~ts ~dur ~arg))
    (rings t)

(* Per-kind totals across every ring: (name, events, total span ns).
   Instants count events only.  Order: builtin kinds first, then custom
   registration order. *)
let aggregate t =
  let slots = Kind.builtin_count + t.n_custom in
  let count = Array.make slots 0 and total = Array.make slots 0 in
  events t (fun ~tid:_ ~kind ~ts:_ ~dur ~arg:_ ->
      if kind < slots then begin
        count.(kind) <- count.(kind) + 1;
        if dur > 0 then total.(kind) <- total.(kind) + dur
      end);
  let rows = ref [] in
  for k = slots - 1 downto 0 do
    if count.(k) > 0 then
      rows := (kind_name t k, count.(k), total.(k)) :: !rows
  done;
  !rows
