(** Validator for the exporter's Chrome trace-event JSON: required
    [ph]/[ts]/[pid]/[tid] (and [name]) fields, balanced, name-matched
    B/E pairs per (pid, tid) track. *)

type summary = {
  events : int;
  tracks : int;
  spans : int;  (** balanced B/E pairs seen *)
  instants : int;
  by_name : (string * int) list;  (** event count per name *)
}

val name_count : summary -> string -> int

val validate : Json.t -> (summary, string) result
val validate_string : string -> (summary, string) result
