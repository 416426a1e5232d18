(* pvwatts_csv: the paper's §6.2 PvWatts program over a seeded
   month-major CSV ([year,month,day,hour,site,power], one year of hourly
   rows per installation), configured by Pvwatts.config ~threads:2 —
   -noDelta PvWatts, the month-array store, 8 reader chunks.

   The seed draws every power reading (dark hours read 0); the row
   count, and so the work, is fixed.  The check is a direct fold over
   the generated rows, formatted with Pvwatts.format_mean. *)

module Pvwatts = Jstar_apps.Pvwatts

let installations = 30
let year = 2012
let chunks = 8
let days_in_month = [| 31; 28; 31; 30; 31; 30; 31; 31; 30; 31; 30; 31 |]

type input = {
  csv : Bytes.t;
  records : int;
  month_sum : int array;  (** per month, exact integer sums *)
  month_count : int array;
}

let generate ~seed =
  let rng = Random.State.make [| seed; 0x7076 |] in
  let b = Buffer.create (installations * 8760 * 24) in
  let month_sum = Array.make 12 0 and month_count = Array.make 12 0 in
  for m = 1 to 12 do
    for d = 1 to days_in_month.(m - 1) do
      for h = 0 to 23 do
        for site = 0 to installations - 1 do
          let power =
            if h < 6 || h > 19 then 0 else Random.State.int rng 5000
          in
          month_sum.(m - 1) <- month_sum.(m - 1) + power;
          month_count.(m - 1) <- month_count.(m - 1) + 1;
          Printf.bprintf b "%d,%d,%d,%d,%d,%d\n" year m d h site power
        done
      done
    done
  done;
  {
    csv = Buffer.to_bytes b;
    records = Array.fold_left ( + ) 0 month_count;
    month_sum;
    month_count;
  }

(* The printed mean must be the exact mean correctly rounded.  The
   program accumulates a running float mean, whose last-bit error can
   only matter when the exact mean sits on a rounding tie of the
   2-decimal format; there either neighbour is accepted. *)
let mean_ok input m line =
  let exact =
    float_of_int input.month_sum.(m - 1)
    /. float_of_int input.month_count.(m - 1)
  in
  let fmt v = Pvwatts.format_mean year m v in
  line = fmt exact
  || Float.abs (Float.rem (exact *. 100.) 1. -. 0.5) < 1e-6
     && (line = fmt (exact +. 1e-6) || line = fmt (exact -. 1e-6))

let check input lines =
  List.length lines = 12
  && List.for_all
       (fun line ->
         match Scanf.sscanf line "%d/%d: %f" (fun y m _ -> (y, m)) with
         | y, m when y = year && m >= 1 && m <= 12 -> mean_ok input m line
         | _ -> false
         | exception _ -> false)
       lines
  && List.sort_uniq compare
       (List.map (fun l -> Scanf.sscanf l "%d/%d:" (fun _ m -> m)) lines)
     = List.init 12 (fun i -> i + 1)

let job input =
  {
    Batch.build =
      (fun () ->
        let app = Pvwatts.make ~data:input.csv ~chunks () in
        (app.Pvwatts.program, fun _ -> app.Pvwatts.init));
    config = (fun threads -> Pvwatts.config ~threads ());
    check = (fun _ lines -> check input lines);
  }

(* csv.parse_s: the chunked reader and integer field parser alone, on
   a 2-worker pool over the same bytes, no engine; checked by the
   record count and the power total. *)
let parse_alone input =
  let pool = Jstar_sched.Pool.create ~num_workers:2 () in
  Fun.protect
    ~finally:(fun () -> Jstar_sched.Pool.shutdown pool)
    (fun () ->
      let fields = Array.init chunks (fun _ -> Array.make 6 0) in
      let records = Array.make chunks 0 and power = Array.make chunks 0 in
      let (), s =
        Util.span "Chunked.parallel_read" (fun () ->
            Jstar_sched.Pool.run pool (fun () ->
                Jstar_csv.Chunked.parallel_read pool input.csv
                  ~num_regions:chunks (fun r s e ->
                    let f = fields.(r) in
                    ignore (Jstar_csv.Parse.int_fields_into input.csv s e f);
                    records.(r) <- records.(r) + 1;
                    power.(r) <- power.(r) + f.(5))))
      in
      let ok =
        Array.fold_left ( + ) 0 records = input.records
        && Array.fold_left ( + ) 0 power
           = Array.fold_left ( + ) 0 input.month_sum
      in
      (s, ok))

let describe input =
  let dark = ref 0 in
  Bytes.iteri
    (fun i c ->
      if c = '\n' && Bytes.get input.csv (i - 1) = '0'
         && Bytes.get input.csv (i - 2) = ',' then incr dark)
    input.csv;
  Util.note
    "input: %d CSV bytes, %d records (%d installations), %.1f%% zero-power rows"
    (Bytes.length input.csv) input.records installations
    (100. *. float_of_int !dark /. float_of_int input.records)
