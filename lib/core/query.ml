(* Query combinators over a rule context: the [get] forms of §3-§4.

   - [iter]/[list]/[fold]: positive queries ([get T(prefix)] with an
     optional residual predicate, the boolean-lambda part of a query).
   - [uniq]: [get uniq? T(...)] — at most one matching tuple expected.
   - [is_empty]: the negative query form ([get uniq? ... == null]).
   - [count]/[min_by]/[reduce]: aggregate queries.

   All of these run against the Gamma database; the law of causality
   makes their results stable (§4), which the causality checker
   verifies per rule. *)

let iter ctx schema ?(prefix = [||]) ?where f =
  (* Branch on [where] once, outside the scan: the [None] case passes
     [f] straight through, so an unfiltered scan (the hash-join hot
     path) allocates no wrapper closure and tests nothing per tuple. *)
  match where with
  | None -> ctx.Rule.iter_prefix schema prefix f
  | Some p -> ctx.Rule.iter_prefix schema prefix (fun t -> if p t then f t)

let fold ctx schema ?prefix ?where ~init ~f () =
  let acc = ref init in
  iter ctx schema ?prefix ?where (fun t -> acc := f !acc t);
  !acc

let list ctx schema ?prefix ?where () =
  List.rev (fold ctx schema ?prefix ?where ~init:[] ~f:(fun acc t -> t :: acc) ())

(* Aggregate and negative queries run inside a [Prov_frame] strict
   scope: the law demands their matches be strictly earlier than the
   trigger, and the runtime auditor ([Config.audit_causality]) enforces
   [<] instead of [<=] for tuples visited inside the scope. *)

let reduce ctx schema ?prefix ?where ~monoid ~f () =
  Prov_frame.with_strict (fun () ->
      fold ctx schema ?prefix ?where ~init:monoid.Reducer.empty
        ~f:(fun acc t -> monoid.Reducer.combine acc (f t))
        ())

let count ctx schema ?prefix ?where () =
  Prov_frame.with_strict (fun () ->
      fold ctx schema ?prefix ?where ~init:0 ~f:(fun n _ -> n + 1) ())

exception Not_unique of string

let uniq ctx schema ?prefix ?where () =
  let found = ref None in
  iter ctx schema ?prefix ?where (fun t ->
      match !found with
      | None -> found := Some t
      | Some prev ->
          if not (Tuple.equal prev t) then
            raise (Not_unique schema.Schema.name));
  !found

let is_empty ctx schema ?prefix ?where () =
  (* The negative query form: any match refutes it, so matches must be
     strictly in the past (a same-time match would make the answer
     schedule-dependent). *)
  Prov_frame.with_strict (fun () -> uniq ctx schema ?prefix ?where () = None)

let min_by ctx schema ?prefix ?where ~key () =
  Prov_frame.with_strict (fun () ->
      fold ctx schema ?prefix ?where ~init:None
        ~f:(fun acc t ->
          match acc with
          | None -> Some t
          | Some best ->
              (* Key ties break by tuple order, not by visit order: a
                 hash bucket lists its tuples newest first, so the
                 first key-minimal tuple visited depends on the store
                 and on the schedule that filled it. *)
              let k = key t and kb = key best in
              if k < kb || (k = kb && Tuple.fast_compare t best < 0) then
                Some t
              else acc)
        ())
