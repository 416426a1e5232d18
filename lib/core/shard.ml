(* Shared-nothing sharded execution (ROADMAP item 2): partition the
   tuple space into N shards with *single-owner semantics*, following
   the IronFleet sharded-hash-table model (SNIPPETS.md snippet 2).

   Ownership invariant: every tuple has exactly one owner shard,
   [owner = hash mod N], and a shard's pending structure (its Delta
   tree) is only ever touched by one domain at a time — mailbox drains
   run as one task per shard between fork/join barriers, and
   extraction/re-insertion runs on the driving domain with no
   concurrent work.  The pool's join edges provide the happens-before
   ordering between those owners, so the per-shard Deltas use the
   *sequential* structure family even under a multi-domain pool: the
   whole point of sharding is that the pending structures need no
   cross-domain locking at all.

   Mailbox protocol: a rule firing that produces a tuple owned by a
   remote shard does not lock anything — it ships the put as a message
   (a batch of tuples + timestamps) onto the owner's lock-free MS
   queue.  At the step barrier the engine runs a *watermark exchange*:
   every mailbox is drained into its owner's Delta (one task per
   shard), and only when all mailboxes are empty and all shards have
   quiesced does the timestamp advance.  Because equal tuples hash to
   the same shard, duplicate elimination is exactly as complete as in
   the unsharded tree, and the per-shard insert/dedup counters sum to
   the unsharded totals.

   Extraction merges the shard-local minimal classes: each non-empty
   shard surrenders its own minimal class as candidates, a recursive
   component-wise select keeps exactly the globally minimal class (the
   same descent rules as [Delta.extract] — leaf before subtrees,
   lowest literal rank, least seq value, all par children), and losing
   candidates are re-inserted counter-free into their owner's tree.
   The refinement argument from the snippet applies directly: the law
   of causality already makes results independent of schedule, so
   message reorderings between shards cannot change the class
   sequence — digests, outputs and lineage are bit-identical to
   unsharded runs. *)

type msg = {
  m_tuples : Tuple.t array;
  m_ts : Timestamp.t array;
  m_len : int;
  m_src : int; (* producing shard, or -1 (external feed, striped buffer) *)
  m_seq : int; (* globally unique send stamp — the causal link id *)
}

type t = {
  n : int;
  deltas : Delta.t array;
  mailboxes : msg Jstar_cds.Ms_queue.t array;
  backlog : int Atomic.t array; (* messages queued, per owner shard *)
  ts_of : Tuple.t -> Timestamp.t;
  (* message-rate counters: posts per destination, plus how many were
     cross-shard (producer shard known and different from the owner) *)
  msgs : int Atomic.t array;
  msgs_cross : int Atomic.t;
  tuples_shipped : int Atomic.t;
  tuples_cross : int Atomic.t;
  (* causal stamping: every post draws the next stamp from one shared
     counter, so a (send, recv) trace pair can be bound by stamp alone
     and a recovered bundle can order messages across shards *)
  seq : int Atomic.t;
  mutable on_post : src:int -> dest:int -> seq:int -> len:int -> unit;
      (* observer hook (the engine's flow-send trace emission), called
         on the producing domain after the push *)
}

let no_observer ~src:_ ~dest:_ ~seq:_ ~len:_ = ()

let create ~shards ~nlits ~ts_of () =
  let n = max 1 shards in
  {
    n;
    deltas =
      Array.init n (fun _ -> Delta.create ~mode:Delta.Sequential ~nlits ());
    mailboxes = Array.init n (fun _ -> Jstar_cds.Ms_queue.create ());
    backlog = Array.init n (fun _ -> Atomic.make 0);
    ts_of;
    msgs = Array.init n (fun _ -> Atomic.make 0);
    msgs_cross = Atomic.make 0;
    tuples_shipped = Atomic.make 0;
    tuples_cross = Atomic.make 0;
    seq = Atomic.make 0;
    on_post = no_observer;
  }

let set_on_post t f = t.on_post <- f

let count t = t.n
let owner_of t tuple = (Tuple.hash tuple land max_int) mod t.n
let delta t k = t.deltas.(k)

(* -- the mailbox protocol ------------------------------------------- *)

(* [post] takes ownership of the arrays (messages outlive the
   producer's reusable buffers, so the caller hands over fresh
   storage).  [from] is the producer's shard, or [-1] when unknown
   (external feeds, initial puts, action handlers). *)
let post t ~from ~dest tuples ts len =
  if len > 0 then begin
    Atomic.incr t.backlog.(dest);
    Atomic.incr t.msgs.(dest);
    ignore (Atomic.fetch_and_add t.tuples_shipped len);
    if from >= 0 && from <> dest then begin
      Atomic.incr t.msgs_cross;
      ignore (Atomic.fetch_and_add t.tuples_cross len)
    end;
    let seq = Atomic.fetch_and_add t.seq 1 in
    Jstar_cds.Ms_queue.push t.mailboxes.(dest)
      { m_tuples = tuples; m_ts = ts; m_len = len; m_src = from; m_seq = seq };
    t.on_post ~src:from ~dest ~seq ~len
  end

(* Partition a producer-owned buffer by owner shard and ship one
   message per destination; the buffer stays with the caller (the
   scratch arenas are reused), so each destination gets fresh arrays. *)
let post_partitioned t ~from tuples ts len =
  if len > 0 then
    if t.n = 1 then
      post t ~from ~dest:0 (Array.sub tuples 0 len) (Array.sub ts 0 len) len
    else begin
      let counts = Array.make t.n 0 in
      for i = 0 to len - 1 do
        let d = owner_of t tuples.(i) in
        counts.(d) <- counts.(d) + 1
      done;
      let bufs =
        Array.init t.n (fun d ->
            if counts.(d) = 0 then [||] else Array.make counts.(d) tuples.(0))
      in
      let tsbufs =
        Array.init t.n (fun d ->
            if counts.(d) = 0 then [||] else Array.make counts.(d) ts.(0))
      in
      let fill = Array.make t.n 0 in
      for i = 0 to len - 1 do
        let d = owner_of t tuples.(i) in
        let j = fill.(d) in
        bufs.(d).(j) <- tuples.(i);
        tsbufs.(d).(j) <- ts.(i);
        fill.(d) <- j + 1
      done;
      for d = 0 to t.n - 1 do
        if counts.(d) > 0 then post t ~from ~dest:d bufs.(d) tsbufs.(d) counts.(d)
      done
    end

(* Drain shard [k]'s mailbox on its owner task: FIFO, stopping when
   empty.  The caller inserts each message into [delta t k] (and folds
   per-table statistics); single-owner, so no locking inside. *)
let drain t k ~f =
  let rec go () =
    match Jstar_cds.Ms_queue.pop t.mailboxes.(k) with
    | None -> ()
    | Some m ->
        Atomic.decr t.backlog.(k);
        f m;
        go ()
  in
  go ()

let backlog_total t =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.backlog

let quiesced t = backlog_total t = 0

(* -- aggregate views over the shard Deltas -------------------------- *)

let size t = Array.fold_left (fun acc d -> acc + Delta.size d) 0 t.deltas

let depth t =
  Array.fold_left (fun acc d -> max acc (Delta.depth d)) 0 t.deltas

let inserted_total t =
  Array.fold_left (fun acc d -> acc + Delta.inserted_total d) 0 t.deltas

let deduped_total t =
  Array.fold_left (fun acc d -> acc + Delta.deduped_total d) 0 t.deltas

let note_deduped t k = Delta.note_deduped t.deltas.(0) k
let occupancy t = Array.map Delta.size t.deltas
let backlogs t = Array.map Atomic.get t.backlog
let msgs_posted t = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 t.msgs
let msgs_posted_to t k = Atomic.get t.msgs.(k)
let msgs_cross t = Atomic.get t.msgs_cross
let tuples_shipped t = Atomic.get t.tuples_shipped
let tuples_cross t = Atomic.get t.tuples_cross

(* -- cross-shard extraction merge ----------------------------------- *)

(* Keep, among the shard-local minimal-class candidates, exactly the
   globally minimal class, by replaying [Delta.extract]'s descent over
   the candidates' timestamps: at each depth a timestamp ending here
   (a leaf tuple) beats every deeper one; otherwise the least
   component kind wins (literals before seq before par), literals
   resolve by rank, seq components by value, and par components all
   survive — each par value recursing independently, like the subtrees
   of a par level.  Returns (winners, losers).

   Why the union of shard-local classes covers the global class: the
   global tree is the shard trees merged; along the global extraction
   path every choice is the minimum over the shards, so any shard
   holding tuples on that path makes the same local choices and
   surrenders them in its own class.  Shards whose local minimum lies
   elsewhere contribute only losers, which go back untouched. *)
let rec select d cands =
  let ended, deeper =
    List.partition (fun (_, _, ts) -> Array.length ts = d) cands
  in
  if ended <> [] then (ended, deeper)
  else begin
    let rank (_, _, (ts : Timestamp.t)) =
      match ts.(d) with
      | Timestamp.CLit _ -> 0
      | Timestamp.CSeq _ -> 1
      | Timestamp.CPar _ -> 2
    in
    let minrank =
      List.fold_left (fun acc c -> min acc (rank c)) max_int cands
    in
    let kept, lost = List.partition (fun c -> rank c = minrank) cands in
    match minrank with
    | 0 ->
        let lrank (_, _, (ts : Timestamp.t)) =
          match ts.(d) with Timestamp.CLit (r, _) -> r | _ -> assert false
        in
        let m =
          List.fold_left (fun acc c -> min acc (lrank c)) max_int kept
        in
        let kept, lost2 = List.partition (fun c -> lrank c = m) kept in
        let winners, lost3 = select (d + 1) kept in
        (winners, lost @ lost2 @ lost3)
    | 1 ->
        let sval (_, _, (ts : Timestamp.t)) =
          match ts.(d) with Timestamp.CSeq v -> v | _ -> assert false
        in
        let m =
          List.fold_left
            (fun acc c ->
              match acc with
              | None -> Some (sval c)
              | Some v -> if Value.compare (sval c) v < 0 then Some (sval c) else acc)
            None kept
        in
        let m = Option.get m in
        let kept, lost2 =
          List.partition (fun c -> Value.compare (sval c) m = 0) kept
        in
        let winners, lost3 = select (d + 1) kept in
        (winners, lost @ lost2 @ lost3)
    | _ ->
        (* par: every value's subtree is extracted; group candidates by
           the par value (structurally, like the tree's par maps) and
           recurse within each subtree independently *)
        let pval (_, _, (ts : Timestamp.t)) =
          match ts.(d) with Timestamp.CPar v -> v | _ -> assert false
        in
        let groups : (Value.t, (int * Tuple.t * Timestamp.t) list ref) Hashtbl.t
            =
          Hashtbl.create 8
        in
        let order = ref [] in
        List.iter
          (fun c ->
            let v = pval c in
            match Hashtbl.find_opt groups v with
            | Some cell -> cell := c :: !cell
            | None ->
                Hashtbl.replace groups v (ref [ c ]);
                order := v :: !order)
          (List.rev kept);
        let winners = ref [] and losers = ref lost in
        List.iter
          (fun v ->
            let group = List.rev !(Hashtbl.find groups v) in
            let w, l = select (d + 1) group in
            winners := !winners @ w;
            losers := !losers @ l)
          (List.rev !order);
        (!winners, !losers)
  end

(* Remove and return the globally minimal equivalence class across all
   shards.  Runs on the driving domain with no concurrent operations
   (the engine's extraction contract); losing candidates re-enter
   their owner's tree counter-free, so every pending tuple is counted
   exactly once over its lifetime. *)
let extract_min_class t =
  let classes = ref [] in
  for k = t.n - 1 downto 0 do
    match Delta.extract_min_class t.deltas.(k) with
    | [] -> ()
    | tuples -> classes := (k, tuples) :: !classes
  done;
  match !classes with
  | [] -> []
  | [ (_, tuples) ] -> tuples
  | shard_classes -> (
      let all =
        List.concat_map
          (fun (k, tuples) ->
            List.map (fun tu -> (k, tu, t.ts_of tu)) tuples)
          shard_classes
      in
      match all with
      | [] -> []
      | (_, _, ts0) :: rest ->
          (* fast path: literal-only orderbys share one memoised
             timestamp array per table, so whole waves compare
             physically equal — they are a single class *)
          if
            List.for_all
              (fun (_, _, ts) -> ts == ts0 || Timestamp.equal ts ts0)
              rest
          then List.map (fun (_, tu, _) -> tu) all
          else begin
            let winners, losers = select 0 all in
            List.iter
              (fun (k, tu, ts) -> Delta.reinsert t.deltas.(k) tu ts)
              losers;
            List.map (fun (_, tu, _) -> tu) winners
          end)

(* -- the partitioned Gamma router ----------------------------------- *)

(* One logical store fanned over per-shard sub-stores: point operations
   (insert / mem) route by owner, scans visit the shards in index
   order, and probes concatenate the per-shard answers in that same
   order so the probe/scan consistency contract survives sharding.
   Batches are repartitioned preserving input order within each shard,
   which keeps first-duplicate-wins semantics: equal tuples share an
   owner. *)
let gamma_router ~owner (subs : Store.t array) : Store.t =
  let n = Array.length subs in
  if n = 1 then subs.(0)
  else
    {
      Store.kind = "sharded:" ^ subs.(0).Store.kind;
      insert = (fun tu -> subs.(owner tu).Store.insert tu);
      insert_batch =
        (fun arr lo hi ->
          let len = hi - lo in
          let res = Array.make (max len 0) false in
          if len > 0 then begin
            let counts = Array.make n 0 in
            for i = lo to hi - 1 do
              let d = owner arr.(i) in
              counts.(d) <- counts.(d) + 1
            done;
            let bufs =
              Array.init n (fun d ->
                  if counts.(d) = 0 then [||]
                  else Array.make counts.(d) arr.(lo))
            in
            let poss =
              Array.init n (fun d ->
                  if counts.(d) = 0 then [||] else Array.make counts.(d) 0)
            in
            let fill = Array.make n 0 in
            for i = lo to hi - 1 do
              let d = owner arr.(i) in
              let j = fill.(d) in
              bufs.(d).(j) <- arr.(i);
              poss.(d).(j) <- i - lo;
              fill.(d) <- j + 1
            done;
            for d = 0 to n - 1 do
              if counts.(d) > 0 then begin
                let sub = subs.(d).Store.insert_batch bufs.(d) 0 counts.(d) in
                for j = 0 to counts.(d) - 1 do
                  res.(poss.(d).(j)) <- sub.(j)
                done
              end
            done
          end;
          res);
      mem = (fun tu -> subs.(owner tu).Store.mem tu);
      iter_prefix =
        (fun prefix f ->
          Array.iter (fun s -> s.Store.iter_prefix prefix f) subs);
      probe_prefix =
        (fun prefix ->
          let rec go d acc =
            if d >= n then Some (List.concat (List.rev acc))
            else
              match subs.(d).Store.probe_prefix prefix with
              | None -> None
              | Some items -> go (d + 1) (items :: acc)
          in
          go 0 []);
      iter = (fun f -> Array.iter (fun s -> s.Store.iter f) subs);
      size =
        (fun () ->
          Array.fold_left (fun acc s -> acc + s.Store.size ()) 0 subs);
    }
