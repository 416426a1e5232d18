(* The sensor stream program shared by jstar-serve, jstar-demo's
   stream command, the serve bench, tests and README walkthrough, so
   serve digests are directly comparable with standalone runs. *)

open Jstar_core

let sensor_program () =
  let p = Program.create () in
  let _tick =
    Program.table p "Tick" ~columns:Schema.[ int_col "t" ]
      ~orderby:Schema.[ Lit "Tick"; Seq "t" ]
      ()
  in
  let reading =
    Program.table p "Reading"
      ~columns:Schema.[ int_col "t"; int_col "sensor"; int_col "value" ]
      ~orderby:Schema.[ Lit "Reading"; Seq "t" ]
      ()
  in
  let alarm =
    Program.table p "Alarm"
      ~columns:Schema.[ int_col "t"; int_col "sensor"; int_col "value" ]
      ~orderby:Schema.[ Lit "Alarm"; Seq "t" ]
      ()
  in
  Program.order p [ "Tick"; "Reading"; "Alarm" ];
  Program.rule p "alarm" ~trigger:reading (fun ctx r ->
      if Tuple.int r "value" >= 90 then
        ctx.Rule.put
          (Tuple.make alarm [| Tuple.get r 0; Tuple.get r 1; Tuple.get r 2 |]));
  Program.output p alarm (fun t ->
      Printf.sprintf "alarm t=%d sensor=%d value=%d" (Tuple.int t "t")
        (Tuple.int t "sensor") (Tuple.int t "value"));
  Program.freeze p

let batch frozen ~sensors ~t =
  let table = Program.find_table frozen.Program.program in
  let tick = table "Tick" and reading = table "Reading" in
  Tuple.make tick [| Value.Int t |]
  :: List.init sensors (fun s ->
         Tuple.make reading
           [| Value.Int t; Value.Int s; Value.Int (((t * 31) + (s * 17)) mod 100) |])
