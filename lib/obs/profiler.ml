(* The continuous profiler: always-on per-rule / per-table cost
   attribution for a live engine.

   Two lanes with very different costs:

   - The {e rule lane} (Phase B) is fed from the firing hot path:
     [fire_start]/[fire_stop] bracket each firing (or each batched
     chunk), timing wall time and maintaining a per-domain frame stack
     so a rule's *self* time excludes the nested firings its puts
     trigger on the immediate path.  Counts and sampled nanoseconds go
     to striped plain-int arrays — no atomics; two domains hashing to
     one stripe can lose an update, which is acceptable for a
     monitoring lane and impossible for the deterministic engine
     counters, which live elsewhere (Table_stats) and are untouched.

   - The {e table lane} (Phase A) costs nothing on the hot path: at
     each step barrier the engine folds the deltas of its existing
     striped Table_stats counters (puts, queries) and current Gamma
     sizes into this profiler, which turns them into per-step
     exponentially-decayed rates.

   [step_barrier] also folds scheduler counters (tasks, steals, parked
   idle time — see {!Jstar_sched.Pool.stats}, passed in by the engine
   because the dependency arrow points sched → obs) and GC/allocation
   deltas, giving utilization and allocation-rate lanes per step.

   Determinism: everything here is wall-clock derived and therefore
   non-deterministic run to run; nothing here feeds back into
   evaluation order, digests, or any deterministic counter. *)

type stripe = {
  s_fires : int array; (* firings per rule, sampled or not *)
  s_timed : int array; (* firings that were actually timed *)
  s_self_ns : int array; (* self wall time of timed firings *)
  mutable s_tick : int; (* rotating sampling decision *)
}

type sched_totals = {
  sc_tasks : int;
  sc_steals : int;
  sc_parks : int;
  sc_idle_ns : int;
}

type t = {
  rules : string array; (* by rule id *)
  tables : string array; (* by table id *)
  stripes : stripe array; (* length a power of two *)
  stripe_mask : int;
  decay : float; (* EMA retention per step *)
  sample : int; (* time 1 in [sample] firings *)
  workers : int; (* pool width for utilization *)
  (* Barrier-owned state below: written only by [step_barrier] and the
     snapshot readers, which run on the driving domain / a monitoring
     thread.  Monitoring reads may be slightly stale; never wrong by
     more than in-flight updates. *)
  mutable steps : int;
  mutable last_barrier_ns : int;
  (* rule lane folds *)
  prev_fires : int array;
  prev_self_ns : int array;
  ema_self_ns : float array; (* decayed self ns per step *)
  (* table lane folds *)
  prev_puts : int array;
  prev_queries : int array;
  mutable last_gamma : int array;
  ema_puts : float array;
  ema_queries : float array;
  (* scheduler lane *)
  mutable last_sched : sched_totals; (* totals at the last barrier *)
  mutable ema_util : float;
  mutable have_util : bool;
  (* GC lane *)
  mutable prev_alloc_words : float;
  mutable alloc_words : float; (* cumulative since create *)
  mutable ema_alloc_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
}

let alloc_words_now () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let create ?(stripes = 8) ?(decay = 0.98) ?(sample = 1) ?(workers = 1)
    ~rules ~tables () =
  if decay < 0.0 || decay >= 1.0 then invalid_arg "Profiler.create: decay";
  if sample < 1 then invalid_arg "Profiler.create: sample";
  let rec pow2 n = if n >= stripes then n else pow2 (n * 2) in
  let nstripes = pow2 1 in
  let nr = Array.length rules and nt = Array.length tables in
  {
    rules;
    tables;
    stripes =
      Array.init nstripes (fun _ ->
          {
            s_fires = Array.make nr 0;
            s_timed = Array.make nr 0;
            s_self_ns = Array.make nr 0;
            s_tick = 0;
          });
    stripe_mask = nstripes - 1;
    decay;
    sample;
    workers = max 1 workers;
    steps = 0;
    last_barrier_ns = Monotonic.now_ns ();
    prev_fires = Array.make nr 0;
    prev_self_ns = Array.make nr 0;
    ema_self_ns = Array.make nr 0.0;
    prev_puts = Array.make nt 0;
    prev_queries = Array.make nt 0;
    last_gamma = Array.make nt 0;
    ema_puts = Array.make nt 0.0;
    ema_queries = Array.make nt 0.0;
    last_sched = { sc_tasks = 0; sc_steals = 0; sc_parks = 0; sc_idle_ns = 0 };
    ema_util = 0.0;
    have_util = false;
    prev_alloc_words = alloc_words_now ();
    alloc_words = 0.0;
    ema_alloc_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
  }

(* -- hot path -------------------------------------------------------- *)

(* Per-domain frame stack for self-time: frame [d] accumulates the wall
   time of the timed firings nested directly under depth [d]. *)
type frames = { mutable depth : int; mutable child_ns : int array }

let frames_key =
  Domain.DLS.new_key (fun () -> { depth = 0; child_ns = Array.make 32 0 })

let my_stripe t = (Domain.self () :> int) land t.stripe_mask

let push_frame () =
  let fs = Domain.DLS.get frames_key in
  if fs.depth >= Array.length fs.child_ns then begin
    let bigger = Array.make (2 * Array.length fs.child_ns) 0 in
    Array.blit fs.child_ns 0 bigger 0 (Array.length fs.child_ns);
    fs.child_ns <- bigger
  end;
  fs.child_ns.(fs.depth) <- 0;
  fs.depth <- fs.depth + 1;
  Monotonic.now_ns ()

(* [fire_start] returns the start timestamp, or 0 for a firing that is
   counted but not timed (sampled out).  With the default [sample = 1]
   every firing is timed and self-times are exact; with sampling, an
   untimed child's wall time is charged to its timed parent's self —
   the documented approximation that buys a cheaper hot path. *)
let fire_start t =
  if t.sample = 1 then push_frame ()
  else begin
    let s = t.stripes.(my_stripe t) in
    let tick = s.s_tick in
    s.s_tick <- tick + 1;
    if tick mod t.sample <> 0 then 0 else push_frame ()
  end

let fire_stop t ~rule ?(fires = 1) t0 =
  let s = t.stripes.(my_stripe t) in
  s.s_fires.(rule) <- s.s_fires.(rule) + fires;
  if t0 <> 0 then begin
    let now = Monotonic.now_ns () in
    let dur = now - t0 in
    let fs = Domain.DLS.get frames_key in
    fs.depth <- fs.depth - 1;
    let self = dur - fs.child_ns.(fs.depth) in
    if fs.depth > 0 then
      fs.child_ns.(fs.depth - 1) <- fs.child_ns.(fs.depth - 1) + dur;
    s.s_timed.(rule) <- s.s_timed.(rule) + fires;
    s.s_self_ns.(rule) <- s.s_self_ns.(rule) + max 0 self
  end

(* -- folds ----------------------------------------------------------- *)

let fold_rules t =
  let nr = Array.length t.rules in
  let fires = Array.make nr 0
  and timed = Array.make nr 0
  and self_ns = Array.make nr 0 in
  Array.iter
    (fun s ->
      for r = 0 to nr - 1 do
        fires.(r) <- fires.(r) + s.s_fires.(r);
        timed.(r) <- timed.(r) + s.s_timed.(r);
        self_ns.(r) <- self_ns.(r) + s.s_self_ns.(r)
      done)
    t.stripes;
  (fires, timed, self_ns)

(* Scale sampled self time up to the full firing count, so sampled and
   unsampled profiles read in the same units. *)
let scaled_self ~fires ~timed ~self_ns =
  if timed = 0 then 0.0
  else if timed = fires then float_of_int self_ns
  else float_of_int self_ns *. (float_of_int fires /. float_of_int timed)

let step_barrier t ~puts ~queries ~gamma ?sched () =
  let now = Monotonic.now_ns () in
  let wall = max 1 (now - t.last_barrier_ns) in
  t.last_barrier_ns <- now;
  t.steps <- t.steps + 1;
  let d = t.decay in
  let ema prev delta = (d *. prev) +. ((1.0 -. d) *. delta) in
  (* rule lane *)
  let fires, timed, self_ns = fold_rules t in
  ignore timed;
  for r = 0 to Array.length t.rules - 1 do
    let dself = self_ns.(r) - t.prev_self_ns.(r) in
    t.prev_self_ns.(r) <- self_ns.(r);
    t.prev_fires.(r) <- fires.(r);
    t.ema_self_ns.(r) <- ema t.ema_self_ns.(r) (float_of_int dself)
  done;
  (* table lane *)
  for i = 0 to Array.length t.tables - 1 do
    let dputs = puts.(i) - t.prev_puts.(i)
    and dqueries = queries.(i) - t.prev_queries.(i) in
    t.prev_puts.(i) <- puts.(i);
    t.prev_queries.(i) <- queries.(i);
    t.ema_puts.(i) <- ema t.ema_puts.(i) (float_of_int dputs);
    t.ema_queries.(i) <- ema t.ema_queries.(i) (float_of_int dqueries)
  done;
  t.last_gamma <- gamma;
  (* scheduler lane *)
  (match sched with
  | None -> ()
  | Some sc ->
      let didle = sc.sc_idle_ns - t.last_sched.sc_idle_ns in
      t.last_sched <- sc;
      let capacity = float_of_int (t.workers * wall) in
      let util = 1.0 -. (float_of_int didle /. capacity) in
      let util = Float.max 0.0 (Float.min 1.0 util) in
      t.ema_util <- (if t.have_util then ema t.ema_util util else util);
      t.have_util <- true);
  (* GC lane *)
  let aw = alloc_words_now () in
  let daw = Float.max 0.0 (aw -. t.prev_alloc_words) in
  t.prev_alloc_words <- aw;
  t.alloc_words <- t.alloc_words +. daw;
  t.ema_alloc_words <- ema t.ema_alloc_words daw;
  let st = Gc.quick_stat () in
  t.minor_collections <- st.Gc.minor_collections;
  t.major_collections <- st.Gc.major_collections

(* -- snapshots ------------------------------------------------------- *)

type rule_row = {
  pr_id : int;
  pr_name : string;
  pr_fires : int;
  pr_self_s : float; (* cumulative, sampling-scaled *)
  pr_ema_self_s : float; (* decayed self seconds per step *)
}

type table_row = {
  pt_name : string;
  pt_puts : int;
  pt_queries : int;
  pt_gamma : int;
  pt_ema_puts : float;
  pt_ema_queries : float;
}

type sched_row = {
  ps_tasks : int;
  ps_steals : int;
  ps_parks : int;
  ps_idle_s : float;
  ps_utilization : float; (* decayed, 0..1 *)
}

type gc_row = {
  pg_alloc_words : float;
  pg_ema_alloc_words : float;
  pg_minor : int;
  pg_major : int;
}

let steps t = t.steps

let rules t =
  let fires, timed, self_ns = fold_rules t in
  Array.mapi
    (fun r name ->
      {
        pr_id = r;
        pr_name = name;
        pr_fires = fires.(r);
        pr_self_s =
          scaled_self ~fires:fires.(r) ~timed:timed.(r) ~self_ns:self_ns.(r)
          *. 1e-9;
        pr_ema_self_s = t.ema_self_ns.(r) *. 1e-9;
      })
    t.rules

let top_rules ?(k = 10) t =
  let rows = Array.to_list (rules t) in
  let rows = List.filter (fun r -> r.pr_fires > 0) rows in
  let rows =
    List.sort
      (fun a b ->
        match compare b.pr_ema_self_s a.pr_ema_self_s with
        | 0 -> (
            match compare b.pr_fires a.pr_fires with
            | 0 -> compare a.pr_id b.pr_id
            | c -> c)
        | c -> c)
      rows
  in
  List.filteri (fun i _ -> i < k) rows

let tables t =
  Array.mapi
    (fun i name ->
      {
        pt_name = name;
        pt_puts = t.prev_puts.(i);
        pt_queries = t.prev_queries.(i);
        pt_gamma = (if i < Array.length t.last_gamma then t.last_gamma.(i) else 0);
        pt_ema_puts = t.ema_puts.(i);
        pt_ema_queries = t.ema_queries.(i);
      })
    t.tables

let sched t =
  if not t.have_util then None
  else
    Some
      {
        ps_tasks = t.last_sched.sc_tasks;
        ps_steals = t.last_sched.sc_steals;
        ps_parks = t.last_sched.sc_parks;
        ps_idle_s = float_of_int t.last_sched.sc_idle_ns *. 1e-9;
        ps_utilization = t.ema_util;
      }

let gc t =
  {
    pg_alloc_words = t.alloc_words;
    pg_ema_alloc_words = t.ema_alloc_words;
    pg_minor = t.minor_collections;
    pg_major = t.major_collections;
  }

let utilization t = if t.have_util then Some t.ema_util else None

let to_json ?(k = 10) t =
  let open Json in
  let rule_j r =
    Obj
      [
        ("rule", Str r.pr_name);
        ("fires", Num (float_of_int r.pr_fires));
        ("self_s", Num r.pr_self_s);
        ("ema_self_s", Num r.pr_ema_self_s);
      ]
  in
  let table_j r =
    Obj
      [
        ("table", Str r.pt_name);
        ("puts", Num (float_of_int r.pt_puts));
        ("queries", Num (float_of_int r.pt_queries));
        ("gamma", Num (float_of_int r.pt_gamma));
        ("ema_puts", Num r.pt_ema_puts);
        ("ema_queries", Num r.pt_ema_queries);
      ]
  in
  let g = gc t in
  let base =
    [
      ("steps", Num (float_of_int t.steps));
      ("decay", Num t.decay);
      ("sample", Num (float_of_int t.sample));
      ("deterministic", Bool false);
      ("top_rules", Arr (List.map rule_j (top_rules ~k t)));
      ("tables", Arr (List.map table_j (Array.to_list (tables t))));
      ( "gc",
        Obj
          [
            ("alloc_words", Num g.pg_alloc_words);
            ("ema_alloc_words", Num g.pg_ema_alloc_words);
            ("minor_collections", Num (float_of_int g.pg_minor));
            ("major_collections", Num (float_of_int g.pg_major));
          ] );
    ]
  in
  match sched t with
  | None -> Obj base
  | Some s ->
      Obj
        (base
        @ [
            ( "sched",
              Obj
                [
                  ("tasks", Num (float_of_int s.ps_tasks));
                  ("steals", Num (float_of_int s.ps_steals));
                  ("parks", Num (float_of_int s.ps_parks));
                  ("idle_s", Num s.ps_idle_s);
                  ("utilization", Num s.ps_utilization);
                ] );
          ])
