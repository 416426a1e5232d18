(** The one clock for intervals: CLOCK_MONOTONIC in integer
    nanoseconds, anchored at process start.  Unboxed ([int]) and
    allocation-free, so instrumented hot paths can read it freely.
    Wall-time stamps ([Unix.gettimeofday]) are for labelling only. *)

val now_ns : unit -> int
(** Nanoseconds since the process loaded this library; non-negative
    and non-decreasing. *)

val since_s : int -> float
(** [since_s t0] is the seconds elapsed since the reading [t0]. *)
