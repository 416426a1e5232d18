(** The sensor stream program shared by the jstar-serve binary,
    [jstar-demo stream], the serve bench, tests and README walkthrough,
    so serve digests are directly comparable with standalone runs. *)

val sensor_program : unit -> Jstar_core.Program.frozen

val batch : Jstar_core.Program.frozen -> sensors:int -> t:int -> Jstar_core.Tuple.t list
(** One timestep of input: a [Tick t] plus one deterministic [Reading]
    per sensor (value = [(31t + 17s) mod 100], alarms at >= 90). *)
