(* Lazy lock-based concurrent skip list map (Herlihy & Shavit, "The Art of
   Multiprocessor Programming", ch. 14), the stand-in for Java's
   ConcurrentSkipListMap/Set used by the original JStar runtime for Delta
   tree levels and Gamma tables.

   Properties:
   - [find_opt] is wait-free (no locks taken).
   - [add]/[remove] lock only the predecessor nodes of the affected node,
     validate, and retry on interference.
   - Deletion is lazy: a node is first [marked] (logically deleted) under
     its own lock, then physically unlinked.
   - Ordered traversal ([iter], [fold], [iter_from]) is weakly consistent
     under concurrency and exact at quiescence, like the Java class.

   OCaml [Mutex] is not reentrant, so when locking the predecessor chain we
   skip physically-equal predecessors that repeat across levels. *)

let max_level = 16

type ('k, 'v) node = {
  key : 'k option; (* None for the head sentinel *)
  value : 'v;
  next : ('k, 'v) node option Atomic.t array; (* None = tail at that level *)
  marked : bool Atomic.t;
  fully_linked : bool Atomic.t;
  top_level : int;
  lock : Mutex.t;
}

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  head : ('k, 'v) node;
  length : int Atomic.t;
  rng : int Atomic.t;
}

let make_node key value top_level =
  {
    key;
    value;
    next = Array.init (top_level + 1) (fun _ -> Atomic.make None);
    marked = Atomic.make false;
    fully_linked = Atomic.make false;
    top_level;
    lock = Mutex.create ();
  }

let create ~compare () =
  let head = make_node None (Obj.magic 0) (max_level - 1) in
  Atomic.set head.fully_linked true;
  { compare; head; length = Atomic.make 0; rng = Atomic.make 0x2545F491 }

(* Geometric level distribution, p = 1/2, from a shared xorshift state.
   The CAS-free fetch-update race only weakens randomness, never safety. *)
let random_level t =
  let x = Atomic.get t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  Atomic.set t.rng x;
  let rec count lvl bits =
    if lvl >= max_level - 1 || bits land 1 = 0 then lvl
    else count (lvl + 1) (bits lsr 1)
  in
  count 0 (x land max_int)

let node_lt t node key =
  match node.key with None -> true | Some k -> t.compare k key < 0

let node_eq t node key =
  match node.key with None -> false | Some k -> t.compare k key = 0

(* Fill [preds]/[succs] with the predecessor and successor of [key] at
   every level; return the highest level at which [key] was found, or -1. *)
let find_node t key preds succs =
  let found = ref (-1) in
  let pred = ref t.head in
  for level = max_level - 1 downto 0 do
    let curr = ref (Atomic.get !pred.next.(level)) in
    let continue = ref true in
    while !continue do
      match !curr with
      | Some c when node_lt t c key ->
          pred := c;
          curr := Atomic.get c.next.(level)
      | _ -> continue := false
    done;
    (match !curr with
    | Some c when !found = -1 && node_eq t c key -> found := level
    | _ -> ());
    preds.(level) <- !pred;
    succs.(level) <- !curr
  done;
  !found

(* Wait-free search that needs no preds/succs arrays: a loop over
   explicit arguments, so it allocates nothing.  Returns the visible node
   holding [key], or [t.head] when there is none.  A node that is found
   but not yet fully linked (or already marked) is invisible: the search
   keeps descending from the same predecessor. *)
let rec search t key pred level =
  match Atomic.get pred.next.(level) with
  | Some c when node_lt t c key -> search t key c level
  | Some c
    when node_eq t c key
         && Atomic.get c.fully_linked
         && not (Atomic.get c.marked) ->
      c
  | _ -> if level = 0 then t.head else search t key pred (level - 1)

let find_opt t key =
  let n = search t key t.head (max_level - 1) in
  if n == t.head then None else Some n.value

let mem t key = search t key t.head (max_level - 1) != t.head

(* Lock the distinct predecessors from level 0 up to [top]; returns the
   list of locked nodes (for unlocking) and whether validation passed. *)
let lock_and_validate t preds succs top =
  ignore t;
  let locked = ref [] in
  let valid = ref true in
  (try
     for level = 0 to top do
       let pred = preds.(level) in
       let already =
         List.exists (fun n -> n == pred) !locked
       in
       if not already then (
         Mutex.lock pred.lock;
         locked := pred :: !locked);
       let succ_ok =
         match succs.(level) with
         | None -> true
         | Some s -> not (Atomic.get s.marked)
       in
       let link_ok =
         match (Atomic.get pred.next.(level), succs.(level)) with
         | None, None -> true
         | Some a, Some b -> a == b
         | _ -> false
       in
       if Atomic.get pred.marked || (not succ_ok) || not link_ok then (
         valid := false;
         raise Exit)
     done
   with Exit -> ());
  (!locked, !valid)

let unlock_all locked = List.iter (fun n -> Mutex.unlock n.lock) locked

let rec add t key value =
  let preds = Array.make max_level t.head in
  let succs = Array.make max_level None in
  let top_level = random_level t in
  let l_found = find_node t key preds succs in
  if l_found <> -1 then (
    match succs.(l_found) with
    | Some node_found when not (Atomic.get node_found.marked) ->
        (* Wait until the in-flight insert is visible, then report dup. *)
        while not (Atomic.get node_found.fully_linked) do
          Domain.cpu_relax ()
        done;
        false
    | _ ->
        (* Found but marked: a removal is in flight; retry. *)
        Domain.cpu_relax ();
        add t key value)
  else
    let locked, valid = lock_and_validate t preds succs top_level in
    if not valid then (
      unlock_all locked;
      Domain.cpu_relax ();
      add t key value)
    else (
      let node = make_node (Some key) value top_level in
      for level = 0 to top_level do
        Atomic.set node.next.(level) succs.(level)
      done;
      for level = 0 to top_level do
        Atomic.set preds.(level).next.(level) (Some node)
      done;
      Atomic.set node.fully_linked true;
      unlock_all locked;
      Atomic.incr t.length;
      true)

let rec find_or_add t key mk =
  let n = search t key t.head (max_level - 1) in
  if n != t.head then n.value
  else
    let v = mk () in
    if add t key v then v else find_or_add t key mk

(* Lock the distinct predecessors and check each still points at [victim]
   at every level up to [top].  Unlike the insert-side validation, the
   victim itself is marked at this point, so succ marks are not checked. *)
let lock_and_validate_remove preds victim top =
  let locked = ref [] in
  let valid = ref true in
  (try
     for level = 0 to top do
       let pred = preds.(level) in
       if not (List.exists (fun n -> n == pred) !locked) then (
         Mutex.lock pred.lock;
         locked := pred :: !locked);
       let link_ok =
         match Atomic.get pred.next.(level) with
         | Some n -> n == victim
         | None -> false
       in
       if Atomic.get pred.marked || not link_ok then (
         valid := false;
         raise Exit)
     done
   with Exit -> ());
  (!locked, !valid)

let remove t key =
  let preds = Array.make max_level t.head in
  let succs = Array.make max_level None in
  (* [victim] is set (and its [marked] bit owned by us) once the logical
     delete has happened; the loop then retries the physical unlink. *)
  let rec loop victim =
    let l_found = find_node t key preds succs in
    match victim with
    | None -> (
        if l_found = -1 then false
        else
          match succs.(l_found) with
          | None -> false
          | Some candidate ->
              if
                (not (Atomic.get candidate.fully_linked))
                || candidate.top_level <> l_found
                || Atomic.get candidate.marked
              then false
              else (
                Mutex.lock candidate.lock;
                if Atomic.get candidate.marked then (
                  Mutex.unlock candidate.lock;
                  false)
                else (
                  Atomic.set candidate.marked true;
                  unlink (Some candidate))))
    | Some _ -> unlink victim
  and unlink victim =
    match victim with
    | None -> assert false
    | Some v ->
        let locked, valid = lock_and_validate_remove preds v v.top_level in
        if not valid then (
          unlock_all locked;
          Domain.cpu_relax ();
          loop victim)
        else (
          for level = v.top_level downto 0 do
            Atomic.set preds.(level).next.(level) (Atomic.get v.next.(level))
          done;
          unlock_all locked;
          Mutex.unlock v.lock;
          Atomic.decr t.length;
          true)
  in
  loop None

let length t = Atomic.get t.length
let is_empty t = length t = 0

let min_binding_opt t =
  let rec go node =
    match Atomic.get node.next.(0) with
    | None -> None
    | Some c ->
        if Atomic.get c.marked || not (Atomic.get c.fully_linked) then go c
        else
          match c.key with
          | Some k -> Some (k, c.value)
          | None -> go c
  in
  go t.head

let rec pop_min_opt t =
  match min_binding_opt t with
  | None -> None
  | Some (k, v) -> if remove t k then Some (k, v) else pop_min_opt t

(* Weakly-consistent ordered traversal from the smallest key. *)
let iter t f =
  let rec go node =
    match Atomic.get node.next.(0) with
    | None -> ()
    | Some c ->
        (if (not (Atomic.get c.marked)) && Atomic.get c.fully_linked then
           match c.key with Some k -> f k c.value | None -> ());
        go c
  in
  go t.head

let fold t init f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let to_list t = List.rev (fold t [] (fun acc k v -> (k, v) :: acc))

(* The last node < [from] at level 0, found through the index levels
   with the same closure-free loop as [search]. *)
let rec descend_to t from pred level =
  match Atomic.get pred.next.(level) with
  | Some c when node_lt t c from -> descend_to t from c level
  | _ -> if level = 0 then pred else descend_to t from pred (level - 1)

(* Iterate bindings with key >= from, while [f] keeps returning true. *)
let iter_from t from f =
  let rec go node =
    match Atomic.get node.next.(0) with
    | None -> ()
    | Some c ->
        let keep_going =
          if (not (Atomic.get c.marked)) && Atomic.get c.fully_linked then
            match c.key with
            | Some k when t.compare k from >= 0 -> f k c.value
            | _ -> true
          else true
        in
        if keep_going then go c
  in
  go (descend_to t from t.head (max_level - 1))
