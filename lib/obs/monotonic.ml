(* The process clock: integer nanoseconds of CLOCK_MONOTONIC since
   start-up.

   Integer timestamps keep the span hot path allocation-free (an OCaml
   [int] is immediate; a [float] result would be boxed) and give the
   exporters exact arithmetic.  The source is bechamel's
   [clock_gettime(CLOCK_MONOTONIC)] stub, declared [noalloc] with an
   unboxed result, so a read allocates nothing.  The clock never steps
   backwards, so intervals and deadlines survive a wall-clock change;
   anchoring at module initialisation keeps timestamps small and
   non-negative. *)

let raw () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())
let epoch = raw ()
let now_ns () = raw () - epoch
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9
