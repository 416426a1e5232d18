(* closure_join: transitive closure over a seeded layered-cluster graph,
   the shape of the repo's joins bench — C clusters of [layers] layers
   of [width] nodes, adjacent layers joined by complete bipartite edges
   less a few seeded drops, so most derived Path puts are duplicates and
   each BFS wave is one very wide class.  Runs at 2 threads with
   hash-index stores.

   The seed picks which edges are dropped; the amount of work hardly
   moves with it.  The check is a plain BFS over
   the generated edges: the engine's Path table must hold exactly the
   pairs it reaches. *)

open Jstar_core

let clusters = 20
let layers = 4
let width = 32
let drops_per_layer = 16

type input = { edges : (int * int) array; paths : int }

(* Edges, plus the reference path count from a BFS per node. *)
let generate ~seed =
  let rng = Random.State.make [| seed; 0x636c6f73 |] in
  let nodes = clusters * layers * width in
  let node cl l s = (((cl * layers) + l) * width) + s in
  let edges = ref [] in
  for cl = 0 to clusters - 1 do
    for l = 0 to layers - 2 do
      let dropped = Hashtbl.create drops_per_layer in
      while Hashtbl.length dropped < drops_per_layer do
        Hashtbl.replace dropped
          (Random.State.int rng width, Random.State.int rng width)
          ()
      done;
      for a = 0 to width - 1 do
        for b = 0 to width - 1 do
          if not (Hashtbl.mem dropped (a, b)) then
            edges := (node cl l a, node cl (l + 1) b) :: !edges
        done
      done
    done
  done;
  let edges = Array.of_list !edges in
  let adj = Array.make nodes [] in
  Array.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) edges;
  let seen = Array.make nodes (-1) in
  let paths = ref 0 in
  for src = 0 to nodes - 1 do
    let queue = Queue.create () in
    List.iter (fun b -> Queue.add b queue) adj.(src);
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      if seen.(v) <> src then begin
        seen.(v) <- src;
        incr paths;
        List.iter (fun b -> Queue.add b queue) adj.(v)
      end
    done
  done;
  { edges; paths = !paths }

let program () =
  let p = Program.create () in
  let edge =
    Program.table p "Edge"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Edge" ]
      ()
  in
  let path =
    Program.table p "Path"
      ~columns:Schema.[ int_col "a"; int_col "b" ]
      ~orderby:Schema.[ Lit "Path" ]
      ()
  in
  Program.order p [ "Edge"; "Path" ];
  Program.rule p "seed" ~trigger:edge (fun ctx e ->
      ctx.Rule.put (Tuple.make path [| Tuple.get e 0; Tuple.get e 1 |]));
  Program.rule p "step" ~trigger:path
    ~reads:[ Spec.read ~prefix:[ Spec.Field "b" ] "Edge" ]
    (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      Query.iter ctx edge ~prefix:[| Value.Int y |] (fun e ->
          ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
  p

let config threads =
  {
    (Config.parallel ~threads ()) with
    Config.stores = [ ("Edge", Store.Hash_index 1); ("Path", Store.Hash_index 2) ];
  }

let job input =
  {
    Batch.build =
      (fun () ->
        ( program (),
          fun frozen ->
            let edge = Program.find_table frozen.Program.program "Edge" in
            Array.fold_right
              (fun (a, b) acc ->
                Tuple.make edge [| Value.Int a; Value.Int b |] :: acc)
              input.edges [] ));
    config;
    check =
      (fun session _ ->
        let path =
          Program.find_table (Engine.session_frozen session).Program.program
            "Path"
        in
        (Engine.session_gamma session path).Store.size () = input.paths);
  }

let describe input =
  Util.note "input: %d edges in %d clusters, %d paths (the final Path Gamma)"
    (Array.length input.edges) clusters input.paths
