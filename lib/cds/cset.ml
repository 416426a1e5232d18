(* Concurrent navigable set: a thin veneer over the skip list map with
   unit values, matching the role of Java's ConcurrentSkipListSet as the
   default Gamma table store. *)

type 'a t = ('a, unit) Skiplist.t

let create ~compare () = Skiplist.create ~compare ()
let add t x = Skiplist.add t x ()

let mem t x = Skiplist.mem t x
let remove t x = Skiplist.remove t x
let length t = Skiplist.length t
let is_empty t = Skiplist.is_empty t
let min_elt_opt t = Option.map fst (Skiplist.min_binding_opt t)
let pop_min_opt t = Option.map fst (Skiplist.pop_min_opt t)
let iter t f = Skiplist.iter t (fun x () -> f x)
let fold t init f = Skiplist.fold t init (fun acc x () -> f acc x)
let to_list t = List.map fst (Skiplist.to_list t)
let iter_from t from f = Skiplist.iter_from t from (fun x () -> f x)
