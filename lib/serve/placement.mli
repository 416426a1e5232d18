(** Placement slots for session workers: which domain hosts each
    worker systhread.  Slot 0 is the domain that called {!create}; the
    other slots are executor domains spawned by {!create} and joined by
    {!shutdown}.  A worker stays on its slot for its whole life. *)

type t

val create : ?slots:int -> unit -> t
(** [slots] defaults to [Domain.recommended_domain_count ()]; slot 0 is
    the caller's domain, so [slots - 1] executor domains are spawned
    (none on a one-CPU box, where every worker runs on the caller's
    domain as a plain [Thread.create] would). *)

val load : t -> int array
(** Live workers per slot, slot 0 first. *)

val spawn : t -> (unit -> unit) -> Thread.t
(** Start a systhread running the function on the slot with the fewest
    live workers; on a tie an executor is preferred to slot 0.  Returns
    once the thread exists.
    @raise Failure after {!shutdown}. *)

val shutdown : t -> unit
(** Close every executor and join its domain.  Each executor first
    joins the threads it hosts, so this returns only after every worker
    placed on an executor has exited: stop them first. *)
