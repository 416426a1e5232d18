(* The /health heartbeat: a compact JSON summary of a live session —
   cheap enough to poll every second, structured enough to alert on.

   This module is a pure builder over engine-agnostic inputs (the obs
   layer cannot see lib/core); the engine-facing glue in lib/ops and
   bin/ fills the fields and passes subsystem extras (e.g. WAL/fsync
   lag from a Durable session) through [extra]. *)

let started_ns = Monotonic.now_ns ()

let make ?step ?steps ?processed ?outputs ?pending ?delta ?(gamma = [])
    ?(top_rules = []) ?utilization ?(extra = []) () =
  let open Json in
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let num i = Num (float_of_int i) in
  Obj
    ([
       ("status", Str "ok");
       ( "uptime_s",
         Num (float_of_int (Monotonic.now_ns () - started_ns) *. 1e-9) );
     ]
    @ opt "step" num step @ opt "steps" num steps
    @ opt "processed" num processed
    @ opt "outputs" num outputs
    @ opt "pending" num pending
    @ opt "delta"
        (fun (size, depth) -> Obj [ ("size", num size); ("depth", num depth) ])
        delta
    @ (match gamma with
      | [] -> []
      | g -> [ ("gamma", Obj (List.map (fun (t, n) -> (t, num n)) g)) ])
    @ (match top_rules with
      | [] -> []
      | rs ->
          [
            ( "top_rules",
              Arr
                (List.map
                   (fun (name, ema_self_s, fires) ->
                     Obj
                       [
                         ("rule", Str name);
                         ("ema_self_s", Num ema_self_s);
                         ("fires", num fires);
                       ])
                   rs) );
          ])
    @ opt "utilization" (fun u -> Num u) utilization
    @ extra)

let render ?step ?steps ?processed ?outputs ?pending ?delta ?gamma
    ?top_rules ?utilization ?extra () =
  Json.to_string
    (make ?step ?steps ?processed ?outputs ?pending ?delta ?gamma ?top_rules
       ?utilization ?extra ())
