(* Kill-based crash-recovery smoke test, run via the @persist-smoke
   dune alias (pulled into @runtest and CI).

   The parent re-executes itself as a child process pointed at a fresh
   persistence directory.  The child feeds, drains, checkpoints, feeds
   more — then SIGKILLs itself from *inside* a drain (an external-action
   handler fires mid-step), the harshest crash point: the WAL holds
   committed feed records with no covering watermark.  The parent then
   restores the directory and requires every digest (Gamma, class
   sequence, output stream) and the full output list to equal an
   uninterrupted in-process run of the same schedule.

   Given the jstar-demo binary, it also checks that a recovery error
   reaches the user as one line and a plain failure exit: a directory
   written without [--digest] cannot be reopened with it, because the
   digest's lanes are part of every WAL watermark. *)

open Jstar_core
open Jstar_persist

let v_int i = Value.Int i

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("persist-smoke: " ^ s);
      exit 1)
    fmt

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* -- the program ----------------------------------------------------- *)

type prog = { p : Program.t; edge : Schema.t; boom : Schema.t }

let build ~kill =
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
  let boom =
    Program.table p "Boom" ~columns:Schema.[ int_col "n" ]
      ~orderby:Schema.[ Lit "Boom" ]
      ()
  in
  Program.order p [ "Edge"; "Path"; "Boom" ];
  Program.rule p "seed" ~trigger:edge (fun ctx e ->
      ctx.Rule.put (Tuple.make path [| Tuple.get e 0; Tuple.get e 1 |]));
  Program.rule p "close" ~trigger:path (fun ctx t ->
      let x = Tuple.get t 0 and y = Tuple.int t "b" in
      Query.iter ctx edge ~prefix:[| v_int y |] (fun e ->
          ctx.Rule.put (Tuple.make path [| x; Tuple.get e 1 |])));
  Program.output p path (fun t ->
      Printf.sprintf "path %d %d" (Tuple.int t "a") (Tuple.int t "b"));
  Program.action p boom (fun _ctx _t ->
      if kill then Unix.kill (Unix.getpid ()) Sys.sigkill);
  { p; edge; boom }

let config = { Config.default with Config.digest = true }
let batches = [ [ (0, 1); (1, 2) ]; [ (2, 3); (3, 0) ]; [ (1, 4); (4, 5) ] ]

let edges pr es = List.map (fun (a, b) -> Tuple.make pr.edge [| v_int a; v_int b |]) es
let nth_batch i = List.nth batches i

(* -- child: run the schedule and die mid-drain ----------------------- *)

let child dir =
  let pr = build ~kill:true in
  let t, _ =
    Durable.open_ ~fsync:Wal.Always ~dir (Program.freeze pr.p) config
  in
  Durable.feed t (edges pr (nth_batch 0));
  ignore (Durable.drain t);
  Durable.checkpoint t;
  Durable.feed t (edges pr (nth_batch 1));
  ignore (Durable.drain t);
  Durable.feed t (edges pr (nth_batch 2));
  Durable.feed t [ Tuple.make pr.boom [| v_int 1 |] ];
  (* the Boom action handler SIGKILLs the process inside this drain *)
  ignore (Durable.drain t);
  exit 3 (* unreachable unless the kill failed *)

(* -- parent: crash the child, restore, compare ----------------------- *)

let digest3 result =
  match result.Engine.digest with
  | Some d -> (d.Engine.d_gamma, d.Engine.d_classes, d.Engine.d_outputs)
  | None -> die "digest missing"

let parent () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jstar-smoke-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--child"; dir |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _, Unix.WEXITED c -> die "child exited %d instead of dying mid-drain" c
  | _, _ -> die "child ended unexpectedly");
  (* restore: snapshot gen 1 + a WAL whose tail is feeds without a
     watermark *)
  let pr = build ~kill:false in
  let t, status = Durable.open_ ~dir (Program.freeze pr.p) config in
  (match status with
  | Durable.Restored r ->
      if r.Durable.r_gen <> 1 then die "restored gen %d, expected 1" r.Durable.r_gen;
      if r.Durable.r_pending = 0 then
        die "expected the killed drain's feeds to be pending"
  | Durable.Fresh -> die "nothing restored");
  ignore (Durable.drain t);
  let restored = Durable.finish t in
  (* the uninterrupted oracle *)
  let pr2 = build ~kill:false in
  let s = Engine.start (Program.freeze pr2.p) config in
  Engine.feed s (edges pr2 (nth_batch 0));
  ignore (Engine.drain s);
  Engine.feed s (edges pr2 (nth_batch 1));
  ignore (Engine.drain s);
  Engine.feed s (edges pr2 (nth_batch 2));
  Engine.feed s [ Tuple.make pr2.boom [| v_int 1 |] ];
  ignore (Engine.drain s);
  let oracle = Engine.finish s in
  if digest3 restored <> digest3 oracle then begin
    let g, c, o = digest3 restored and g', c', o' = digest3 oracle in
    die "digest mismatch after restore: gamma %s/%s classes %s/%s outputs %s/%s"
      g g' c c' o o'
  end;
  if restored.Engine.outputs <> oracle.Engine.outputs then
    die "output streams differ after restore";
  rm_rf dir;
  print_endline "persist-smoke OK: checkpoint, SIGKILL mid-drain, restore, digests equal"

(* -- jstar-demo: a recovery error is one line, not a crash ------------ *)

(* Run [demo args] with stdout discarded; its exit code and stderr lines. *)
let run_demo demo args =
  let err_r, err_w = Unix.pipe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process demo (Array.of_list (demo :: args)) Unix.stdin null err_w
  in
  Unix.close err_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr err_r in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let err = lines [] in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> (c, err)
  | _, _ -> die "jstar-demo %s: killed" (String.concat " " args)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let demo_recovery_error demo =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jstar-smoke-demo-%d" (Unix.getpid ()))
  in
  (match run_demo demo [ "stream"; "--ticks"; "100"; "--persist"; dir ] with
  | 0, _ -> ()
  | c, _ -> die "jstar-demo stream --persist exited %d" c);
  let reopen =
    run_demo demo [ "stream"; "--ticks"; "200"; "--persist"; dir; "--digest" ]
  in
  rm_rf dir;
  match reopen with
  | 0, _ -> die "reopening with --digest succeeded; expected a recovery error"
  | 125, _ -> die "the recovery error escaped as an internal error (exit 125)"
  | _, [ line ] when contains line dir && contains line "diverged" ->
      print_endline
        "persist-smoke OK: jstar-demo reports a recovery error in one line"
  | c, lines ->
      die "exit %d, stderr %S: expected one line naming %s and the divergence"
        c (String.concat "\n" lines) dir

let () =
  match Sys.argv with
  | [| _; "--child"; dir |] -> child dir
  | [| _; demo |] ->
      parent ();
      demo_recovery_error demo
  | _ -> parent ()
