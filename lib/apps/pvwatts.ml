(* The PvWatts case study (§6.2, Fig 4): a map-reduce style program that
   reads a CSV of hourly solar measurements and prints the average power
   generated during each month.

   JStar form (Fig 4, plus the chunked parallel reader of §6.2):

     table PvWattsRequest(int chunks)                 orderby (Req);
     table Chunk(int id, int start, int stop)         orderby (Chunk, par id);
     table PvWatts(year, month, day, hour, power)     orderby (PvWatts);
     table SumMonth(int year, int month)              orderby (SumMonth);
     order Req < Chunk < PvWatts < SumMonth;

     foreach (PvWattsRequest req) { put Chunk(i) ... }       // split file
     foreach (Chunk c)  { ...parse region, put PvWatts... }  // parallel read
     foreach (PvWatts pv) { put new SumMonth(pv.year, pv.month); }
     foreach (SumMonth s) { reduce Statistics over PvWatts(s.year, s.month) }

   The same program text runs under every configuration of §6.2:
   - naive: every PvWatts tuple through the Delta tree;
   - [-noDelta PvWatts]: tuples straight into Gamma (the 23.0s -> 8.44s
     optimisation);
   - alternative Gamma stores for PvWatts: skip list (default), hash
     index on (year, month), or the custom month-array store. *)

open Jstar_core

type t = {
  program : Program.t;
  init : Tuple.t list;
  pv_table : Schema.t;
  sum_table : Schema.t;
}

(* The custom 'array-of-hashsets' Gamma store of §6.2: a 12-entry array
   indexed by month, each entry holding that month's tuples.  Built by
   "using inheritance to override one factory method" in the paper; here
   it is a Store.Custom factory.

   Each month entry is itself sharded ("either a HashSet or
   ConcurrentHashMap within each entry of the array"): month-major input
   means neighbouring readers insert into the *same* month for long
   stretches, so a single mutex per month would serialise them.  A shard
   is a [Tuple.Dset] under its own mutex, picked by the high bits of the
   tuple's cached hash ([Dset] indexes its buckets by the low bits), so
   an insert hashes the tuple once and compares fields with the
   schema-compiled [Tuple.equal]. *)
type month_shard = { lock : Mutex.t; set : Tuple.Dset.t }

let shard_bits = 3

let month_array_store schema =
  let month_pos = Schema.field_pos schema "month" in
  let months =
    Array.init 12 (fun _ ->
        Array.init (1 lsl shard_bits) (fun _ ->
            { lock = Mutex.create (); set = Tuple.Dset.create 256 }))
  in
  let valid_month m = m >= 1 && m <= 12 in
  let shard_of month t =
    months.(month - 1).(Tuple.hash t lsr (Sys.int_size - shard_bits))
  in
  let iter_month month f =
    Array.iter
      (fun sh ->
        Mutex.lock sh.lock;
        let snapshot = Tuple.Dset.fold (fun acc t -> t :: acc) sh.set [] in
        Mutex.unlock sh.lock;
        List.iter f snapshot)
      months.(month - 1)
  in
  let insert t =
    let month = Tuple.int_at t month_pos in
    if not (valid_month month) then
      raise
        (Tuple.Tuple_error
           (Fmt.str "%s.month: %d is not a month (1..12)" schema.Schema.name
              month));
    let sh = shard_of month t in
    Mutex.lock sh.lock;
    let added = Tuple.Dset.add_if_absent sh.set t in
    Mutex.unlock sh.lock;
    added
  in
  {
    Store.kind = "month-array";
    insert;
    insert_batch = Store.seq_batch insert;
    mem =
      (fun t ->
        let month = Tuple.int_at t month_pos in
        valid_month month
        &&
        let sh = shard_of month t in
        Mutex.lock sh.lock;
        let found = Tuple.Dset.mem sh.set t in
        Mutex.unlock sh.lock;
        found);
    probe_prefix = Store.no_probe;
    iter_prefix =
      (fun prefix f ->
        let visit t = if Tuple.matches_prefix t prefix then f t in
        (* queries supply (year, month); the month picks the entry *)
        if Array.length prefix > month_pos then begin
          let month = Value.to_int prefix.(month_pos) in
          if valid_month month then iter_month month visit
        end
        else
          for month = 1 to 12 do
            iter_month month visit
          done);
    iter =
      (fun f ->
        for month = 1 to 12 do
          iter_month month f
        done);
    size =
      (fun () ->
        Array.fold_left
          (Array.fold_left (fun n sh -> n + Tuple.Dset.length sh.set))
          0 months);
  }

let format_mean year month mean = Fmt.str "%d/%d: %.2f" year month mean

(* Build the JStar program over an in-memory CSV buffer. *)
let make ~data ~chunks () =
  let p = Program.create () in
  let req =
    Program.table p "PvWattsRequest" ~columns:Schema.[ int_col "chunks" ]
      ~orderby:Schema.[ Lit "Req" ] ()
  in
  let chunk =
    Program.table p "Chunk"
      ~columns:Schema.[ int_col "id"; int_col "start"; int_col "stop" ]
      ~orderby:Schema.[ Lit "Chunk"; Par "id" ]
      ()
  in
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
  let sum_month =
    Program.table p "SumMonth"
      ~columns:Schema.[ int_col "year"; int_col "month" ]
      ~key:2
      ~orderby:Schema.[ Lit "SumMonth" ]
      ()
  in
  Program.order p [ "Req"; "Chunk"; "PvWatts"; "SumMonth" ];
  (* Split the file into record-aligned regions, one Chunk tuple each;
     the Chunk class is par-ordered, so all readers run in parallel. *)
  Program.rule p "split_input" ~trigger:req
    ~puts:[ Spec.put "Chunk" ]
    (fun ctx r ->
      let n = Tuple.int r "chunks" in
      List.iter
        (fun (reg : Jstar_csv.Chunked.region) ->
          ctx.Rule.put
            (Tuple.make chunk
               [|
                 Value.Int reg.Jstar_csv.Chunked.index;
                 Value.Int reg.Jstar_csv.Chunked.start;
                 Value.Int reg.Jstar_csv.Chunked.stop;
               |]))
        (Jstar_csv.Chunked.regions data n));
  (* Parse one region: the byte-oriented CSV read loop of §6.1. *)
  Program.rule p "read_chunk" ~trigger:chunk
    ~puts:[ Spec.put "PvWatts" ]
    (fun ctx c ->
      let fields = Array.make 6 0 in
      Jstar_csv.Parse.iter_records data (Tuple.int c "start")
        (Tuple.int c "stop") (fun s e ->
          ignore (Jstar_csv.Parse.int_fields_into data s e fields);
          ctx.Rule.put
            (Tuple.make pv
               [|
                 Value.int fields.(0);
                 Value.int fields.(1);
                 Value.int fields.(2);
                 Value.int fields.(3);
                 Value.int fields.(4);
                 Value.int fields.(5);
               |])));
  Program.rule p "request_month" ~trigger:pv
    ~puts:[ Spec.put "SumMonth" ]
    (fun ctx t ->
      ctx.Rule.put
        (Tuple.make sum_month [| Tuple.get t 0; Tuple.get t 1 |]));
  Program.rule p "reduce_month" ~trigger:sum_month
    ~reads:[ Spec.read ~kind:Spec.Aggregate "PvWatts" ]
    (fun ctx s ->
      let year = Tuple.int s "year" and month = Tuple.int s "month" in
      let stats =
        Query.reduce ctx pv
          ~prefix:[| Value.Int year; Value.Int month |]
          ~monoid:Reducer.Statistics.monoid
          ~f:(fun t ->
            Reducer.Statistics.add Reducer.Statistics.empty
              (float_of_int (Tuple.int t "power")))
          ()
      in
      ctx.Rule.println
        (format_mean year month (Reducer.Statistics.mean stats)));
  {
    program = p;
    init = [ Tuple.make req [| Value.Int chunks |] ];
    pv_table = pv;
    sum_table = sum_month;
  }

(* Store selection for the PvWatts Gamma table, as studied in Fig 8. *)
type pv_store = Default_store | Hash_store | Month_array_store

let store_config = function
  | Default_store -> []
  | Hash_store -> [ ("PvWatts", Store.Hash_index 2) ]
  | Month_array_store -> [ ("PvWatts", Store.Custom month_array_store) ]

let config ?(threads = 1) ?(no_delta = true) ?(store = Month_array_store) () =
  {
    Config.default with
    threads;
    no_delta = (if no_delta then [ "PvWatts" ] else []);
    no_gamma = [ "Chunk" ];
    stores = store_config store;
  }

let run ?(chunks = 8) ~data config =
  let app = make ~data ~chunks () in
  Engine.run_program ~init:app.init app.program config

(* ------------------------------------------------------------------ *)
(* Hand-coded baseline: the straightforward imperative program a Java
   programmer would write.  The paper is explicit that "the Java
   program uses the typical input reading style of
   BufferedReader.readline plus String.split" while JStar's CSV library
   "keeps lines as byte arrays and avoids conversion to strings" — so
   the baseline deliberately materialises each line and splits it into
   strings, and that allocation cost is why the JStar version wins this
   benchmark (§6.1). *)

let baseline data =
  let counts = Hashtbl.create 16 in
  Jstar_csv.Parse.iter_records data 0 (Bytes.length data) (fun s e ->
      (* readline: materialise the line as a string *)
      let line = Bytes.sub_string data s (e - s) in
      (* String.split(",") *)
      match String.split_on_char ',' line with
      | [ year; month; _day; _hour; _site; power ] ->
          let key = (int_of_string year, int_of_string month) in
          let count, sum =
            match Hashtbl.find_opt counts key with
            | Some (c, sm) -> (c, sm)
            | None -> (0, 0)
          in
          Hashtbl.replace counts key (count + 1, sum + int_of_string power)
      | _ -> failwith ("malformed record: " ^ line));
  Hashtbl.fold
    (fun (year, month) (count, sum) acc ->
      format_mean year month (float_of_int sum /. float_of_int count) :: acc)
    counts []
  |> List.sort String.compare
