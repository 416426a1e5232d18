(* Span/event kinds.  Represented as small ints so a ring slot is four
   scalar stores; the builtin ones cover the engine and pool call
   sites, and tracers hand out further ids for user-registered names
   (bench phases, application spans). *)

type t = int

let step = 0
let extract = 1
let gamma_insert = 2
let rule_fire = 3
let drain = 4
let spawn = 5
let steal = 6
let idle = 7
let prov_merge = 8
let audit = 9
let batch_fire = 10
let builtin_count = 11

let builtin_names =
  [|
    "step";
    "class-extract";
    "gamma-insert";
    "rule-fire";
    "drain";
    "pool-spawn";
    "pool-steal";
    "pool-idle";
    "prov-merge";
    "audit-violation";
    "batch-fire";
  |]

let builtin_name k =
  if k >= 0 && k < builtin_count then Some builtin_names.(k) else None

let to_int k = k
let custom i = builtin_count + i
