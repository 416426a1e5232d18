(** Per-table usage counters — the paper's logging system for recording
    statistics about each table during a run (§1.5), used to choose
    parallelisation strategies and data structures.

    Counters are striped by domain so the hot put path never contends
    on a shared cache line; reads sum the stripes. *)

type counter
(** One striped counter of a table's set; the engine makes them all in
    {!create}. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Bulk increment, one atomic op for a whole batch. *)

val read : counter -> int

type counters = {
  puts : counter;
  delta_inserts : counter;
  delta_dups : counter;
  gamma_inserts : counter;
  gamma_dups : counter;
  triggers : counter;
  queries : counter;
}

type t

val create : string list -> t
(** One counter set per table name, in id order. *)

val counters : t -> int -> counters
(** The counter set for a table id. *)

val get : t -> string -> counters option

type snapshot = {
  table : string;
  n_puts : int;
  n_delta_inserts : int;
  n_delta_dups : int;
  n_gamma_inserts : int;
  n_gamma_dups : int;
  n_triggers : int;
  n_queries : int;
}

val snapshot : t -> snapshot list
val pp_snapshot : Format.formatter -> snapshot list -> unit
