(* Sharded concurrent hash map, the stand-in for Java's ConcurrentHashMap
   (which JStar uses for hash-indexed Gamma tables).

   The table is split into [shards] independent (mutex, Hashtbl) pairs
   selected by the key's hash.  Point operations lock one shard; whole-map
   operations ([iter], [length], [fold]) lock shards one at a time, giving
   the same weakly-consistent snapshot semantics as the Java class. *)

type ('k, 'v) shard = { mutex : Mutex.t; table : ('k, 'v) Hashtbl.t }

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  mask : int;
  hash : 'k -> int;
}

let default_shards = 64

let create ?(shards = default_shards) ?(hash = Hashtbl.hash) () =
  let n = Jstar_sched.Bits.next_pow2 (max 1 shards) in
  {
    shards =
      Array.init n (fun _ ->
          { mutex = Mutex.create (); table = Hashtbl.create 16 });
    mask = n - 1;
    hash;
  }

let shard_of t k =
  (* Mix the hash so that consecutive hash values spread across shards. *)
  let h = t.hash k in
  let h = h lxor (h lsr 16) in
  t.shards.(h land t.mask)

let with_shard s f =
  Mutex.lock s.mutex;
  Fun.protect f ~finally:(fun () -> Mutex.unlock s.mutex)

(* The probe path.  A lookup cannot raise (key comparison fails only on
   functional values, and no key holds one), so the shard is locked and
   unlocked directly, without [Fun.protect]'s two closures. *)
let find_opt t k =
  let s = shard_of t k in
  Mutex.lock s.mutex;
  let v = Hashtbl.find_opt s.table k in
  Mutex.unlock s.mutex;
  v

let mem t k =
  let s = shard_of t k in
  with_shard s (fun () -> Hashtbl.mem s.table k)

let set t k v =
  let s = shard_of t k in
  with_shard s (fun () -> Hashtbl.replace s.table k v)

let add_if_absent t k v =
  let s = shard_of t k in
  with_shard s (fun () ->
      if Hashtbl.mem s.table k then false
      else (
        Hashtbl.replace s.table k v;
        true))

let find_or_add t k mk =
  let s = shard_of t k in
  with_shard s (fun () ->
      match Hashtbl.find_opt s.table k with
      | Some v -> v
      | None ->
          let v = mk () in
          Hashtbl.replace s.table k v;
          v)

let update t k f =
  let s = shard_of t k in
  with_shard s (fun () ->
      let cur = Hashtbl.find_opt s.table k in
      match f cur with
      | None -> Hashtbl.remove s.table k
      | Some v -> Hashtbl.replace s.table k v)

let remove t k =
  let s = shard_of t k in
  with_shard s (fun () ->
      if Hashtbl.mem s.table k then (
        Hashtbl.remove s.table k;
        true)
      else false)

let length t =
  Array.fold_left
    (fun acc s -> acc + with_shard s (fun () -> Hashtbl.length s.table))
    0 t.shards

let is_empty t = length t = 0

let iter t f =
  Array.iter
    (fun s ->
      (* Snapshot the shard under its lock, then call back lock-free so
         [f] may itself touch the map without deadlocking. *)
      let entries =
        with_shard s (fun () ->
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.table [])
      in
      List.iter (fun (k, v) -> f k v) entries)
    t.shards

let fold t init f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let clear t =
  Array.iter (fun s -> with_shard s (fun () -> Hashtbl.reset s.table)) t.shards
