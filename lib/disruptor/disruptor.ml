(* High-level single-producer / multi-consumer harness, wiring a ring
   buffer, wait strategy and consumer domains together the way the
   PvWatts Disruptor design does (§6.3, Fig 9): one producer parses the
   input and publishes events; each consumer claims every event and
   processes the subset it is responsible for; a sentinel event tells
   consumers to stop.

   Events are pre-allocated mutable slots: the producer fills a slot in
   place through [emit], and consumers read it — no allocation on the
   hot path ("recycle objects rather than garbage collecting them"). *)

type options = {
  ring_size : int;
  batch : int;
  wait : Wait_strategy.kind;
  num_consumers : int;
}

(* Table 1 of the paper: ring of 1024, batch of 256, blocking waits,
   single producer, 12 consumers. *)
let pvwatts_options =
  {
    ring_size = 1024;
    batch = 256;
    wait = Wait_strategy.Blocking;
    num_consumers = 12;
  }

let default_options = pvwatts_options

type stats = {
  published : int;
  elapsed_producer : float;
  elapsed_total : float;
}

let run ?(options = default_options) ~init ~producer ~consumer () =
  if options.num_consumers < 1 then invalid_arg "Disruptor.run: no consumers";
  let ring =
    Ring_buffer.create ~wait:options.wait ~batch:options.batch
      ~size:options.ring_size ~init ()
  in
  let consumer_seqs =
    List.init options.num_consumers (fun _ ->
        Sequence.create ())
  in
  List.iter (Ring_buffer.add_gating_sequence ring) consumer_seqs;
  let domains =
    List.mapi
      (fun i own ->
        Domain.spawn (fun () ->
            Ring_buffer.consume ring own (fun ev _seq _eob -> consumer i ev)))
      consumer_seqs
  in
  let t0 = Jstar_obs.Monotonic.now_ns () in
  (* Batched publication: claim [batch] slots at a time, publish when the
     claimed range is exhausted, flush the remainder at the end. *)
  let published = ref 0 in
  let claimed_hi = ref Sequence.initial in
  let written = ref Sequence.initial in
  let emit fill =
    if !written = !claimed_hi then
      claimed_hi := Ring_buffer.next ring options.batch;
    let seq = !written + 1 in
    fill (Ring_buffer.get ring seq);
    written := seq;
    incr published;
    if !written = !claimed_hi then Ring_buffer.publish ring !written
  in
  let flush () =
    if !written >= 0 && !written < !claimed_hi then
      Ring_buffer.publish ring !written
  in
  producer ~emit;
  flush ();
  let elapsed_producer = Jstar_obs.Monotonic.since_s t0 in
  List.iter Domain.join domains;
  {
    published = !published;
    elapsed_producer;
    elapsed_total = Jstar_obs.Monotonic.since_s t0;
  }
