(* The Delta tree: a single multi-level priority structure holding the
   pending tuples of *all* tables, sorted lexicographically by their
   orderby lists (§5, Fig 3 of the paper).

   Level i of the tree is keyed by the i-th orderby component:
   - literal components  -> a linear array of subtrees indexed by the
     literal's rank in the order declarations' linear extension;
   - [seq f] components  -> an ordered map (TreeMap sequentially,
     ConcurrentSkipListMap-alike in parallel mode) keyed by field value;
   - [par f] components  -> an *unordered* map: all subtrees of a par
     level belong to the same equivalence class and are extracted
     together.
   Tuples whose orderby list is exhausted at a node live in that node's
   leaf set — a deduplicating set, because the Delta tree must also
   "remove duplicate tuples as they are inserted" (a plain priority
   queue is not sufficient, §5).

   Concurrency contract (matching the engine's phase structure): many
   domains may [insert] concurrently; [extract_min_class] runs with no
   concurrent operations.  Each node carries an atomic subtree count
   maintained on insert-unwind, so extraction can skip empty subtrees
   without rescanning them. *)

type mode = Sequential | Concurrent

(* -- leaf sets: deduplicating tuple sets ---------------------------- *)

(* Leaves dedup with {!Tuple.Dset} — member-or-add in a single probe
   against the lazily-cached structural hash.  (A legacy family keyed a
   polymorphic [Hashtbl] by (id, fields) and re-hashed the boxed field
   array on every probe; it was retired once the ablation priced it —
   see EXPERIMENTS.md "Hot-path ablation".) *)

let fold_clear tb acc =
  let items = Tuple.Dset.fold (fun acc t -> t :: acc) tb acc in
  Tuple.Dset.clear tb;
  items

type leaf = {
  l_add : Tuple.t -> bool;
  l_add_many : Tuple.t array -> int -> int -> (int -> unit) -> int;
      (* Batch entry point: the caller's tuple array and the run
         [lo, hi) of it to add, in input order.  Marks the position of
         each tuple actually inserted (the first occurrence of an
         in-batch duplicate wins) and returns the number inserted.
         Takes each shard lock at most once. *)
  l_pop_all : unit -> Tuple.t list;
  l_is_empty : unit -> bool;
}

let sequential_leaf () =
  let table = Tuple.Dset.create 8 in
  {
    l_add = (fun t -> Tuple.Dset.add_if_absent table t);
    l_add_many =
      (fun tuples lo hi mark ->
        let added = ref 0 in
        for p = lo to hi - 1 do
          if Tuple.Dset.add_if_absent table tuples.(p) then begin
            mark p;
            incr added
          end
        done;
        !added);
    l_pop_all = (fun () -> fold_clear table []);
    l_is_empty = (fun () -> Tuple.Dset.length table = 0);
  }

(* A few mutex-protected shards balance two costs: insert bursts into
   one equivalence class arrive from every domain at once (the SumMonth
   dedup traffic of §6.2 — a single mutex here serialises the whole
   parallel phase), while extraction scans all shards of the minimal
   class (so a 64-way sharded map makes Dijkstra's many small classes
   ~20x more expensive to extract).  Eight shards keep both ends cheap. *)
let leaf_shards = 8

let concurrent_leaf () =
  let shards =
    Array.init leaf_shards (fun _ -> (Mutex.create (), Tuple.Dset.create 8))
  in
  let count = Atomic.make 0 in
  {
    l_add =
      (fun t ->
        let mutex, table = shards.(Tuple.hash t land (leaf_shards - 1)) in
        Mutex.lock mutex;
        let added = Tuple.Dset.add_if_absent table t in
        Mutex.unlock mutex;
        if added then Atomic.incr count;
        added);
    l_add_many =
      (fun tuples lo hi mark ->
        (* Partition by shard, then take each shard's lock exactly once.
           Prepending while walking backward keeps each bucket in input
           order: the first in-batch duplicate must stay first. *)
        let buckets = Array.make leaf_shards [] in
        for p = hi - 1 downto lo do
          let s = Tuple.hash tuples.(p) land (leaf_shards - 1) in
          buckets.(s) <- p :: buckets.(s)
        done;
        let added = ref 0 in
        Array.iteri
          (fun s entries ->
            if entries <> [] then begin
              let mutex, table = shards.(s) in
              Mutex.lock mutex;
              List.iter
                (fun p ->
                  if Tuple.Dset.add_if_absent table tuples.(p) then begin
                    mark p;
                    incr added
                  end)
                entries;
              Mutex.unlock mutex
            end)
          buckets;
        if !added > 0 then ignore (Atomic.fetch_and_add count !added);
        !added);
    l_pop_all =
      (fun () ->
        let items = ref [] in
        Array.iter
          (fun (mutex, table) ->
            Mutex.lock mutex;
            items := fold_clear table !items;
            Mutex.unlock mutex)
          shards;
        Atomic.set count 0;
        !items);
    l_is_empty = (fun () -> Atomic.get count = 0);
  }

(* -- ordered child maps (seq levels) -------------------------------- *)

type 'v omap = {
  om_find_or_add : Value.t -> (unit -> 'v) -> 'v;
  om_min : unit -> (Value.t * 'v) option;
  om_remove : Value.t -> unit;
  om_is_empty : unit -> bool;
  om_iter : (Value.t -> 'v -> unit) -> unit;
}

module VMap = Map.Make (Value)

let sequential_omap () =
  let map = ref VMap.empty in
  {
    om_find_or_add =
      (fun k mk ->
        match VMap.find_opt k !map with
        | Some v -> v
        | None ->
            let v = mk () in
            map := VMap.add k v !map;
            v);
    om_min = (fun () -> VMap.min_binding_opt !map);
    om_remove = (fun k -> map := VMap.remove k !map);
    om_is_empty = (fun () -> VMap.is_empty !map);
    om_iter = (fun f -> VMap.iter f !map);
  }

let concurrent_omap () =
  let sl = Jstar_cds.Skiplist.create ~compare:Value.compare () in
  {
    om_find_or_add = (fun k mk -> Jstar_cds.Skiplist.find_or_add sl k mk);
    om_min = (fun () -> Jstar_cds.Skiplist.min_binding_opt sl);
    om_remove = (fun k -> ignore (Jstar_cds.Skiplist.remove sl k));
    om_is_empty = (fun () -> Jstar_cds.Skiplist.is_empty sl);
    om_iter = (fun f -> Jstar_cds.Skiplist.iter sl f);
  }

(* -- unordered child maps (par levels) ------------------------------ *)

type 'v pmap = {
  pm_find_or_add : Value.t -> (unit -> 'v) -> 'v;
  pm_entries : unit -> (Value.t * 'v) list;
  pm_remove : Value.t -> unit;
}

let sequential_pmap () =
  let table : (Value.t, 'v) Hashtbl.t = Hashtbl.create 8 in
  {
    pm_find_or_add =
      (fun k mk ->
        match Hashtbl.find_opt table k with
        | Some v -> v
        | None ->
            let v = mk () in
            Hashtbl.replace table k v;
            v);
    pm_entries =
      (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []);
    pm_remove = (fun k -> Hashtbl.remove table k);
  }

let concurrent_pmap () =
  let mutex = Mutex.create () in
  let table = Hashtbl.create 8 in
  let locked f =
    Mutex.lock mutex;
    Fun.protect f ~finally:(fun () -> Mutex.unlock mutex)
  in
  {
    pm_find_or_add =
      (fun k mk ->
        locked (fun () ->
            match Hashtbl.find_opt table k with
            | Some v -> v
            | None ->
                let v = mk () in
                Hashtbl.replace table k v;
                v));
    pm_entries =
      (fun () ->
        locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []));
    pm_remove = (fun k -> locked (fun () -> Hashtbl.remove table k));
  }

(* -- tree nodes ------------------------------------------------------ *)

type node = {
  count : int Atomic.t; (* pending tuples in this subtree *)
  leaf : leaf;
  (* Child maps are created lazily and installed by CAS so that two
     domains inserting the first tuples of a level race safely. *)
  lit : node option Atomic.t array option Atomic.t;
  seq : node omap option Atomic.t;
  par : node pmap option Atomic.t;
}

(* Lifetime statistics are striped by domain: a single atomic here is
   hammered once per put and ping-pongs between cores. *)
type stripe_counter = int Atomic.t array

let stripe_count = 8
let make_stripes () = Array.init stripe_count (fun _ -> Atomic.make 0)

let stripe_incr (c : stripe_counter) =
  Atomic.incr c.((Domain.self () :> int) land (stripe_count - 1))

let stripe_add (c : stripe_counter) k =
  if k > 0 then
    ignore
      (Atomic.fetch_and_add
         c.((Domain.self () :> int) land (stripe_count - 1))
         k)

let stripe_read (c : stripe_counter) =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c

type t = {
  mode : mode;
  nlits : int; (* size of literal-rank arrays, fixed at freeze time *)
  root : node;
  inserted : stripe_counter; (* lifetime statistics *)
  deduped : stripe_counter;
}

let make_leaf mode =
  match mode with
  | Sequential -> sequential_leaf ()
  | Concurrent -> concurrent_leaf ()

let make_node_spec mode =
  {
    count = Atomic.make 0;
    leaf = make_leaf mode;
    lit = Atomic.make None;
    seq = Atomic.make None;
    par = Atomic.make None;
  }

let make_node t = make_node_spec t.mode

let create ~mode ~nlits () =
  {
    mode;
    nlits = max nlits 1;
    root = make_node_spec mode;
    inserted = make_stripes ();
    deduped = make_stripes ();
  }

let size t = Atomic.get t.root.count
let is_empty t = size t = 0
let inserted_total t = stripe_read t.inserted
let deduped_total t = stripe_read t.deduped

(* Callers that dedup upstream (the engine's batched-firing scratch
   arenas) report the drops here so [deduped_total] stays comparable
   with the per-tuple path's counts. *)
let note_deduped t k = if k > 0 then stripe_add t.deduped k

(* Depth of the deepest subtree still holding pending tuples — an
   observability gauge for how far timestamps fan out at runtime.
   Subtrees whose count has drained to 0 are skipped, so cost tracks
   live structure, not insertion history.  Racing inserts can skew the
   answer by a level; fine for a gauge read between steps. *)
let depth t =
  let rec go node d acc =
    if Atomic.get node.count = 0 then acc
    else begin
      let deepest = ref (max d acc) in
      let visit child = deepest := go child (d + 1) !deepest in
      (match Atomic.get node.lit with
      | None -> ()
      | Some slots ->
          Array.iter
            (fun slot ->
              match Atomic.get slot with Some c -> visit c | None -> ())
            slots);
      (match Atomic.get node.seq with
      | None -> ()
      | Some om -> om.om_iter (fun _ c -> visit c));
      (match Atomic.get node.par with
      | None -> ()
      | Some pm -> List.iter (fun (_, c) -> visit c) (pm.pm_entries ()));
      !deepest
    end
  in
  go t.root 0 0

(* Install-or-get for the lazily created child containers. *)
let get_or_install atom mk =
  match Atomic.get atom with
  | Some v -> v
  | None ->
      let fresh = mk () in
      if Atomic.compare_and_set atom None (Some fresh) then fresh
      else Option.get (Atomic.get atom)

let lit_children t node =
  get_or_install node.lit (fun () ->
      Array.init t.nlits (fun _ -> Atomic.make None))

let lit_child t slots rank =
  if rank >= Array.length slots then
    invalid_arg "Delta: order literal declared after the program was frozen";
  match Atomic.get slots.(rank) with
  | Some n -> n
  | None ->
      let fresh = make_node t in
      if Atomic.compare_and_set slots.(rank) None (Some fresh) then fresh
      else Option.get (Atomic.get slots.(rank))

let seq_children t node =
  get_or_install node.seq (fun () ->
      match t.mode with
      | Sequential -> sequential_omap ()
      | Concurrent -> concurrent_omap ())

let par_children t node =
  get_or_install node.par (fun () ->
      match t.mode with
      | Sequential -> sequential_pmap ()
      | Concurrent -> concurrent_pmap ())

exception Duplicate

let insert t tuple ts =
  (* Walks down along the timestamp, adding to the final leaf; counts are
     incremented on the unwind only when the tuple was actually new, so a
     dedup hit leaves every count untouched. *)
  let rec go node depth =
    if depth >= Array.length ts then
      if node.leaf.l_add tuple then Atomic.incr node.count else raise Duplicate
    else (
      (match ts.(depth) with
      | Timestamp.CLit (rank, _) ->
          go (lit_child t (lit_children t node) rank) (depth + 1)
      | Timestamp.CSeq v ->
          go ((seq_children t node).om_find_or_add v (fun () -> make_node t))
            (depth + 1)
      | Timestamp.CPar v ->
          go ((par_children t node).pm_find_or_add v (fun () -> make_node t))
            (depth + 1));
      Atomic.incr node.count)
  in
  match go t.root 0 with
  | () ->
      stripe_incr t.inserted;
      true
  | exception Duplicate ->
      stripe_incr t.deduped;
      false

(* -- batched insertion ---------------------------------------------- *)

(* Descend (creating nodes as needed) along a timestamp; returns every
   node on the path, root first, so counts can be bumped once per run. *)
let node_path t (ts : Timestamp.t) =
  let depth = Array.length ts in
  let path = Array.make (depth + 1) t.root in
  for d = 0 to depth - 1 do
    let node = path.(d) in
    let child =
      match ts.(d) with
      | Timestamp.CLit (rank, _) -> lit_child t (lit_children t node) rank
      | Timestamp.CSeq v ->
          (seq_children t node).om_find_or_add v (fun () -> make_node t)
      | Timestamp.CPar v ->
          (par_children t node).pm_find_or_add v (fun () -> make_node t)
    in
    path.(d + 1) <- child
  done;
  path

(* Same tree path: structural equality of timestamps, [par] values
   included — [par] components with different values live in different
   subtrees. *)
let same_path (a : Timestamp.t) (b : Timestamp.t) =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go i =
       i = Array.length a
       || (match (a.(i), b.(i)) with
          | Timestamp.CLit (r, _), Timestamp.CLit (r', _) -> r = r'
          | Timestamp.CSeq v, Timestamp.CSeq v'
          | Timestamp.CPar v, Timestamp.CPar v' ->
              Value.equal v v'
          | _ -> false)
         && go (i + 1)
     in
     go 0

let insert_batch t (tuples : Tuple.t array) (tss : Timestamp.t array) n =
  let res = Array.make (max n 0) false in
  (* Each run of adjacent same-path tuples costs one descent and one
     lock round per leaf shard — a batch from one literal-orderby table
     is a single run (its slots even share one memoised timestamp
     array, so the path test is a physical-equality hit).  Input order
     is kept, so the *first* occurrence of an in-batch duplicate is the
     one reported inserted. *)
  let inserted = ref 0 in
  let lo = ref 0 in
  while !lo < n do
    let ts = tss.(!lo) in
    let hi = ref (!lo + 1) in
    while !hi < n && same_path tss.(!hi) ts do
      incr hi
    done;
    let path = node_path t ts in
    let leaf_node = path.(Array.length path - 1) in
    let added =
      leaf_node.leaf.l_add_many tuples !lo !hi (fun p -> res.(p) <- true)
    in
    if added > 0 then
      Array.iter (fun nd -> ignore (Atomic.fetch_and_add nd.count added)) path;
    inserted := !inserted + added;
    lo := !hi
  done;
  stripe_add t.inserted !inserted;
  stripe_add t.deduped (n - !inserted);
  res

(* Extraction of the minimal equivalence class.  Single-threaded; uses
   the subtree counts to skip empty children in O(1).  Decrements counts
   on the unwind by the number of tuples taken. *)
let rec extract node =
  if Atomic.get node.count = 0 then []
  else
    let taken =
      if not (node.leaf.l_is_empty ()) then node.leaf.l_pop_all ()
      else
        match Atomic.get node.lit with
        | Some slots when lit_any_nonempty slots -> extract_lit slots
        | _ -> (
            match Atomic.get node.seq with
            | Some om when not (om.om_is_empty ()) -> extract_seq om
            | _ -> (
                match Atomic.get node.par with
                | Some pm -> extract_par pm
                | None -> []))
    in
    let n = List.length taken in
    if n > 0 then ignore (Atomic.fetch_and_add node.count (-n));
    taken

and lit_any_nonempty slots =
  Array.exists
    (fun slot ->
      match Atomic.get slot with
      | Some child -> Atomic.get child.count > 0
      | None -> false)
    slots

and extract_lit slots =
  (* First nonempty rank: ranks are the linear extension, so the lowest
     nonempty rank holds the minimal timestamps. *)
  let rec go rank =
    if rank >= Array.length slots then []
    else
      match Atomic.get slots.(rank) with
      | Some child when Atomic.get child.count > 0 -> extract child
      | _ -> go (rank + 1)
  in
  go 0

and extract_seq om =
  let rec go () =
    match om.om_min () with
    | None -> []
    | Some (k, child) ->
        let taken = extract child in
        let emptied = Atomic.get child.count = 0 in
        if emptied then om.om_remove k;
        if taken = [] then (
          (* Only a stale empty child can yield nothing; a non-empty
             child failing to extract would mean corrupted counts. *)
          assert emptied;
          go ())
        else taken
  in
  go ()

and extract_par pm =
  (* All subtrees of a par level are one equivalence class: take the
     minimal class of every child and return the union. *)
  List.concat_map
    (fun (k, child) ->
      let taken = extract child in
      if Atomic.get child.count = 0 then pm.pm_remove k;
      taken)
    (pm.pm_entries ())

let extract_min_class t = extract t.root
