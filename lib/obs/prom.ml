(* Prometheus text exposition format (version 0.0.4) over the metrics
   registry.

   The registry uses dotted names with table names embedded
   ("table.Row.puts", "gamma.Sum.size"); Prometheus wants a flat metric
   family per *kind* of number with the table as a label, so families
   stay bounded while tables come and go.  The mapping:

     table.<T>.<field>    ->  <ns>_table_<field>{table="<T>"}
     gamma.<T>.size       ->  <ns>_gamma_size{table="<T>"}
     anything else        ->  <ns>_<name with [^a-zA-Z0-9_:] -> '_'>

   Histograms render as cumulative buckets plus the mandatory [+Inf]
   lane, [_sum] and [_count]; bucket bounds are the registry's
   power-of-two uppers.  One [# TYPE] line is emitted per family even
   when several labeled series share it. *)

type labeled = { family : string; labels : (string * string) list }

let name_ok_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let sanitize_name s =
  let b = Bytes.of_string s in
  for i = 0 to Bytes.length b - 1 do
    if not (name_ok_char (Bytes.get b i)) then Bytes.set b i '_'
  done;
  let s = Bytes.to_string b in
  if s = "" then "_"
  else if
    (* metric names must not start with a digit *)
    match s.[0] with '0' .. '9' -> true | _ -> false
  then "_" ^ s
  else s

(* Label values escape backslash, double-quote and newline — the three
   characters the exposition format reserves inside quoted values. *)
let escape_label v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let classify name =
  match String.split_on_char '.' name with
  | [ "table"; t; field ] ->
      { family = "table_" ^ sanitize_name field; labels = [ ("table", t) ] }
  | [ "gamma"; t; "size" ] -> { family = "gamma_size"; labels = [ ("table", t) ] }
  | _ -> { family = sanitize_name name; labels = [] }

let render_labels b labels =
  match labels with
  | [] -> ()
  | _ ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (sanitize_name k);
          Buffer.add_string b "=\"";
          Buffer.add_string b (escape_label v);
          Buffer.add_char b '"')
        labels;
      Buffer.add_char b '}'

let add_float b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.9g" f)

let sample b name labels value =
  Buffer.add_string b name;
  render_labels b labels;
  Buffer.add_char b ' ';
  add_float b value;
  Buffer.add_char b '\n'

let render ?(namespace = "jstar") metrics =
  let b = Buffer.create 4096 in
  let typed : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let emit_type family kind =
    if not (Hashtbl.mem typed family) then begin
      Hashtbl.add typed family ();
      Buffer.add_string b "# TYPE ";
      Buffer.add_string b family;
      Buffer.add_char b ' ';
      Buffer.add_string b kind;
      Buffer.add_char b '\n'
    end
  in
  let exported = Metrics.export metrics in
  (* Group rows by family so all series of one family sit under a single
     TYPE line, as the format requires. *)
  let order = ref [] and groups : (string, 'a list ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (name, x) ->
      let { family; labels } = classify name in
      let family = namespace ^ "_" ^ family in
      (match Hashtbl.find_opt groups family with
      | Some l -> l := (labels, x) :: !l
      | None ->
          order := family :: !order;
          Hashtbl.add groups family (ref [ (labels, x) ])))
    exported;
  List.iter
    (fun family ->
      let rows = List.rev !(Hashtbl.find groups family) in
      List.iteri
        (fun i (labels, x) ->
          match x with
          | Metrics.X_counter v ->
              if i = 0 then emit_type family "counter";
              sample b family labels (float_of_int v)
          | Metrics.X_gauge (Metrics.Int v) ->
              if i = 0 then emit_type family "gauge";
              sample b family labels (float_of_int v)
          | Metrics.X_gauge (Metrics.Float v) ->
              if i = 0 then emit_type family "gauge";
              sample b family labels v
          | Metrics.X_hist { x_count; x_sum; x_buckets } ->
              if i = 0 then emit_type family "histogram";
              List.iter
                (fun (upper, cum) ->
                  let le = Printf.sprintf "%.9g" upper in
                  sample b (family ^ "_bucket")
                    (labels @ [ ("le", le) ])
                    (float_of_int cum))
                x_buckets;
              sample b (family ^ "_bucket")
                (labels @ [ ("le", "+Inf") ])
                (float_of_int x_count);
              sample b (family ^ "_sum") labels x_sum;
              sample b (family ^ "_count") labels (float_of_int x_count))
        rows)
    (List.rev !order);
  Buffer.contents b
