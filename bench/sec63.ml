(* §6.3 phase breakdown: where single-threaded PvWatts time goes.

   Paper (optimised program, parallel mode, 1 thread):
     16.9%  reading and parsing the input file
     63.7%  creating the PvWatts tuples and inserting them into Gamma
      3.8%  creating SumMonth tuples and inserting into the Delta tree
     15.6%  running the Statistics reducer per month
   and the Amdahl bound with a serial reader and 12 consumers:
     1 / (0.169 + (1 - 0.169) / 12) = 4.2x.

   We measure the same decomposition on the same substrate operations:
   a parse-only pass, then the tuple-creation + Gamma-insert work, then
   SumMonth Delta traffic, then the reduction.  Each phase is one
   tracer span, so the split printed here and the --trace-out artifact
   are one measurement. *)

open Jstar_core

(* Amdahl's law: the speedup bound when a [serial] fraction of the work
   stays serial and the rest parallelises over [workers] ways. *)
let amdahl ~serial ~workers =
  1.0 /. (serial +. ((1.0 -. serial) /. float_of_int workers))

let run () =
  (* The paper's own example pins the arithmetic before anything is
     measured: 1 / (0.169 + (1 - 0.169) / 12) = 4.2x. *)
  let paper_bound = amdahl ~serial:0.169 ~workers:12 in
  if Float.abs (paper_bound -. 4.2) > 0.05 then
    failwith (Printf.sprintf "sec63: Amdahl(0.169, 12) = %.3f, not 4.2" paper_bound);
  let installations = Util.pvwatts_installations () in
  let data =
    Jstar_csv.Pvwatts_data.to_bytes ~installations
      ~ordering:Jstar_csv.Pvwatts_data.Month_major
  in
  let tracer = Jstar_obs.Tracer.create ~level:Jstar_obs.Level.Spans () in
  let phase name f =
    Jstar_obs.Tracer.span tracer (Jstar_obs.Tracer.register_kind tracer name) f
  in
  let p = Program.create () in
  let pv =
    Program.table p "PvWatts"
      ~columns:
        Schema.
          [
            int_col "year"; int_col "month"; int_col "day"; int_col "hour";
            int_col "site"; int_col "power";
          ]
      ~orderby:Schema.[ Lit "PvWatts" ]
      ()
  in
  let store = Jstar_apps.Pvwatts.month_array_store pv in
  let fields = Array.make 6 0 in
  (* 1. reading and parsing *)
  let checksum = ref 0 in
  phase "read+parse" (fun () ->
      Jstar_csv.Parse.iter_records data 0 (Bytes.length data) (fun s e ->
          ignore (Jstar_csv.Parse.int_fields_into data s e fields);
          checksum := !checksum + fields.(5)));
  (* 2. creating tuples and inserting into Gamma *)
  phase "create+insert Gamma" (fun () ->
      Jstar_csv.Parse.iter_records data 0 (Bytes.length data) (fun s e ->
          ignore (Jstar_csv.Parse.int_fields_into data s e fields);
          let t =
            Tuple.make pv
              [|
                Value.int fields.(0); Value.int fields.(1); Value.int fields.(2);
                Value.int fields.(3); Value.int fields.(4); Value.int fields.(5);
              |]
          in
          ignore (store.Store.insert t)));
  (* 3. SumMonth tuples through the Delta tree (with dedup) *)
  let sum_month =
    Program.table p "SumMonth"
      ~columns:Schema.[ int_col "year"; int_col "month" ]
      ~key:2
      ~orderby:Schema.[ Lit "SumMonth" ]
      ()
  in
  Program.order p [ "PvWatts"; "SumMonth" ];
  let order = Program.order_rel p in
  ignore (Order_rel.rank order "SumMonth");
  let delta = Delta.create ~mode:Delta.Concurrent ~nlits:4 () in
  phase "SumMonth Delta insert" (fun () ->
      Jstar_csv.Parse.iter_records data 0 (Bytes.length data) (fun s e ->
          ignore (Jstar_csv.Parse.int_fields_into data s e fields);
          let t =
            Tuple.make sum_month [| Value.int fields.(0); Value.int fields.(1) |]
          in
          ignore (Delta.insert delta t (Timestamp.of_tuple order t))));
  (* 4. the Statistics reducer per month *)
  phase "Statistics reduce" (fun () ->
      for month = 1 to 12 do
        let stats = ref Reducer.Statistics.empty in
        store.Store.iter_prefix
          [| Value.Int Jstar_csv.Pvwatts_data.year; Value.Int month |]
          (fun t ->
            stats :=
              Reducer.Statistics.add !stats (float_of_int (Tuple.int t "power")));
        ignore (Reducer.Statistics.mean !stats)
      done);
  Util.heading "Sec 6.3: PvWatts single-thread phase breakdown";
  Jstar_obs.Export.console Fmt.stdout tracer;
  Util.note
    "paper: read 16.9%% | Gamma insert 63.7%% | Delta insert 3.8%% | reduce \
     15.6%%";
  let phases = Jstar_obs.Tracer.aggregate tracer in
  let ns_of name =
    List.fold_left (fun acc (n, _, ns) -> if n = name then acc + ns else acc) 0
      phases
  in
  let total = List.fold_left (fun acc (_, _, ns) -> acc + ns) 0 phases in
  let bound =
    amdahl
      ~serial:(float_of_int (ns_of "read+parse") /. float_of_int total)
      ~workers:12
  in
  Util.note
    "Amdahl bound with a serial reader and 12 consumers: %.2fx (paper: 4.2x)"
    bound;
  match !Util.trace_out with
  | Some path ->
      Jstar_obs.Export.write_chrome_trace path tracer;
      Util.note "phase trace -> %s (open in Perfetto)" path
  | None -> ()
