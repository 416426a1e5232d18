(** The PvWatts case study (§6.2, Fig 4): monthly solar-power averages
    over a CSV of hourly records, as a JStar program whose
    parallelisation, Delta routing and Gamma data structures are all
    chosen by configuration. *)

open Jstar_core

type t = {
  program : Program.t;
  init : Tuple.t list;
  pv_table : Schema.t;
  sum_table : Schema.t;
}

val make : data:Bytes.t -> chunks:int -> unit -> t
(** Build the Fig 4 program over an in-memory CSV buffer
    ([year,month,day,hour,site,power] records); the input is read by
    [chunks] parallel record-aligned readers (§6.2). *)

type pv_store =
  | Default_store  (** ordered set (skip list when parallel) *)
  | Hash_store  (** hash index on (year, month) *)
  | Month_array_store
      (** the custom array-of-hash store of §6.2 ("array indexed by
          month at the top level") *)

val month_array_store : Schema.t -> Store.t
(** The custom store itself, for direct use.  Its insert raises
    {!Tuple.Tuple_error} for a month outside 1..12, and a query for such
    a month visits nothing. *)

val config :
  ?threads:int -> ?no_delta:bool -> ?store:pv_store -> unit -> Config.t
(** The §6.2 configuration space: [-noDelta PvWatts] (default on),
    [-noGamma Chunk], and the PvWatts store choice (default
    month-array). *)

val run : ?chunks:int -> data:Bytes.t -> Config.t -> Engine.result

val baseline : Bytes.t -> string list
(** The hand-coded program with the paper's Java idiom — readline plus
    String.split — returning the same sorted [year/month: mean] lines. *)

val format_mean : int -> int -> float -> string
(** The output line format shared by all versions. *)
