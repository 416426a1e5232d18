(* Provenance-cost ablation: what lineage capture
   ([Config.provenance]), the causality-law auditor
   ([Config.audit_causality]) and the determinism digests
   ([Config.digest]) cost on the put-dominated synthetic pipeline of
   {!Hotpath} — the workload where their per-put/per-visit hooks are
   the largest fraction of total work, so these numbers are upper
   bounds for the example programs.

   Reports wall time per knob combination plus the lineage volume
   (tuples tracked, candidate records merged), and writes
   BENCH_provcost.json. *)

open Jstar_core

type knobs = {
  label : string;
  provenance : bool;
  optout : bool;  (* hot rules built with [Rule.make ~provenance:false] *)
  audit : bool;
  digest : bool;
}

let configurations =
  [
    { label = "all-off"; provenance = false; optout = false; audit = false;
      digest = false };
    { label = "provenance"; provenance = true; optout = false; audit = false;
      digest = false };
    (* Global capture on, but the two hot rules opt out per-rule: what
       the escape hatch buys back on a workload where they produce
       everything. *)
    { label = "prov-optout"; provenance = true; optout = true; audit = false;
      digest = false };
    { label = "audit"; provenance = false; optout = false; audit = true;
      digest = false };
    { label = "digest"; provenance = false; optout = false; audit = false;
      digest = true };
    { label = "all-on"; provenance = true; optout = false; audit = true;
      digest = true };
  ]

let config_of k =
  {
    (Config.parallel ~threads:2 ()) with
    Config.stores = [ ("Row", Store.Hash_index 1) ];
    provenance = k.provenance;
    audit_causality = k.audit;
    digest = k.digest;
  }

let rounds = 4

let run () =
  let volume = Hashtbl.create 8 in
  let run_once k =
    let p, init = Hotpath.build ~prov_optout:k.optout () in
    let t0 = Jstar_obs.Monotonic.now_ns () in
    let r = Engine.run_program ~init p (config_of k) in
    let t = Jstar_obs.Monotonic.since_s t0 in
    (match r.Engine.lineage with
    | Some l ->
        Hashtbl.replace volume k.label
          (Lineage.tuples_tracked l, Lineage.records_merged l)
    | None -> ());
    (r, t)
  in
  (* Warmup doubling as the invariance check: observability knobs must
     not change what the program prints. *)
  let reference = ref None in
  List.iter
    (fun k ->
      let r, _ = run_once k in
      match !reference with
      | None -> reference := Some r.Engine.outputs
      | Some ref_out ->
          if ref_out <> r.Engine.outputs then
            failwith ("provcost: outputs diverge under " ^ k.label))
    configurations;
  (* Interleaved rounds, best-of-N per configuration (as in Hotpath). *)
  let best = Hashtbl.create 8 in
  for _ = 1 to rounds do
    List.iter
      (fun k ->
        let _, t = run_once k in
        match Hashtbl.find_opt best k.label with
        | Some t' when t' <= t -> ()
        | _ -> Hashtbl.replace best k.label t)
      configurations
  done;
  let rows =
    List.map (fun k -> (k, Hashtbl.find best k.label)) configurations
  in
  let t_of label = List.assoc label (List.map (fun (k, t) -> (k.label, t)) rows) in
  let overhead label = (t_of label /. t_of "all-off" -. 1.0) *. 100.0 in
  Util.heading
    (Printf.sprintf "Provenance/audit/digest cost (%d rows, 2 threads)"
       (Hotpath.rows_n ()));
  Util.bar_chart ~title:"wall time per knob combination" ~unit:"s"
    (List.map (fun (k, t) -> (k.label, t)) rows);
  Util.note
    "overheads vs all-off: provenance %+.1f%%, prov-optout %+.1f%%, audit \
     %+.1f%%, digest %+.1f%%, all-on %+.1f%%"
    (overhead "provenance") (overhead "prov-optout") (overhead "audit")
    (overhead "digest") (overhead "all-on");
  let vol label =
    match Hashtbl.find_opt volume label with Some v -> v | None -> (0, 0)
  in
  let tracked, merged = vol "provenance" in
  let ot, om = vol "prov-optout" in
  Util.note
    "lineage volume: %d tuples tracked, %d candidate records merged \
     (prov-optout: %d tracked, %d merged)"
    tracked merged ot om;
  let json =
    let b = Buffer.create 512 in
    Buffer.add_string b "{\n";
    Buffer.add_string b
      (Printf.sprintf
         "  \"bench\": \"provcost\",\n  \"meta\": %s,\n  \"rows\": %d,\n\
         \  \"threads\": 2,\n"
         (Util.meta_json ()) (Hotpath.rows_n ()));
    Buffer.add_string b
      (Printf.sprintf
         "  \"lineage_tuples\": %d,\n  \"lineage_records\": %d,\n\
         \  \"lineage_tuples_optout\": %d,\n  \"lineage_records_optout\": %d,\n"
         tracked merged ot om);
    Buffer.add_string b "  \"configurations\": [\n";
    List.iteri
      (fun i (k, t) ->
        Buffer.add_string b
          (Printf.sprintf
             "    {\"label\": \"%s\", \"provenance\": %b, \
              \"prov_optout\": %b, \"audit\": %b, \"digest\": %b, \
              \"seconds\": %.6f, \"overhead_pct\": %.2f}%s\n"
             k.label k.provenance k.optout k.audit k.digest t
             (overhead k.label)
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string b "  ]\n}\n";
    Buffer.contents b
  in
  print_string json;
  let oc = open_out "BENCH_provcost.json" in
  output_string oc json;
  close_out oc
