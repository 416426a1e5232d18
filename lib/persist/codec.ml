(* Schema-aware binary tuple codec.

   Design constraints, in order:
   - No [Marshal]: the on-disk form must be stable across builds and
     validated byte-by-byte (Marshal segfaults on corrupt input).
   - Representation-preserving: the engine digests hash Value.t
     constructors, so an [Int] stored in a widened [TFloat] column must
     come back as that same [Int] — hence a one-byte type tag per field
     rather than encoding purely by column type.
   - Schema-checked: decode goes through [Tuple.make], which re-runs the
     arity/type validation, and file headers carry [schema_hash] so a
     WAL or snapshot written under a different program shape is refused
     outright rather than misread. *)

open Jstar_core

exception Codec_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Codec_error s)) fmt

(* -- canonical schema hash ------------------------------------------- *)

let schema_hash tables =
  let b = Buffer.create 256 in
  Array.iter
    (fun s ->
      Buffer.add_string b s.Schema.name;
      Buffer.add_char b '(';
      Array.iter
        (fun c ->
          Buffer.add_string b c.Schema.col_name;
          Buffer.add_char b ':';
          Buffer.add_string b (Value.ty_name c.Schema.col_ty);
          Buffer.add_char b ',')
        s.Schema.columns;
      Buffer.add_string b (Printf.sprintf "|key=%d|" s.Schema.key_arity);
      Array.iter
        (fun e ->
          (match e with
          | Schema.Lit l -> Buffer.add_string b ("L" ^ l)
          | Schema.Seq f -> Buffer.add_string b ("S" ^ f)
          | Schema.Par f -> Buffer.add_string b ("P" ^ f));
          Buffer.add_char b ',')
        s.Schema.orderby;
      Buffer.add_char b ';')
    tables;
  Crc32.string (Buffer.contents b)

(* -- primitives ------------------------------------------------------ *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let put_i64 b v = Buffer.add_int64_le b (Int64.of_int v)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let need src pos n =
  if !pos + n > Bytes.length src then fail "truncated frame (need %d bytes)" n

let get_u8 src pos =
  need src pos 1;
  let v = Char.code (Bytes.get src !pos) in
  incr pos;
  v

let get_u32 src pos =
  need src pos 4;
  let v =
    Char.code (Bytes.get src !pos)
    lor (Char.code (Bytes.get src (!pos + 1)) lsl 8)
    lor (Char.code (Bytes.get src (!pos + 2)) lsl 16)
    lor (Char.code (Bytes.get src (!pos + 3)) lsl 24)
  in
  pos := !pos + 4;
  v

let get_i64 src pos =
  need src pos 8;
  let v = Int64.to_int (Bytes.get_int64_le src !pos) in
  pos := !pos + 8;
  v

let get_string src pos =
  let n = get_u32 src pos in
  need src pos n;
  let s = Bytes.sub_string src !pos n in
  pos := !pos + n;
  s

(* -- values ---------------------------------------------------------- *)

let tag_int = 0
and tag_float = 1
and tag_str = 2
and tag_bool = 3

let put_value b = function
  | Value.Int i ->
      put_u8 b tag_int;
      put_i64 b i
  | Value.Float f ->
      put_u8 b tag_float;
      Buffer.add_int64_le b (Int64.bits_of_float f)
  | Value.Str s ->
      put_u8 b tag_str;
      put_string b s
  | Value.Bool v ->
      put_u8 b tag_bool;
      put_u8 b (if v then 1 else 0)

let get_value src pos =
  match get_u8 src pos with
  | 0 -> Value.int (get_i64 src pos)
  | 1 ->
      need src pos 8;
      let bits = Bytes.get_int64_le src !pos in
      pos := !pos + 8;
      Value.Float (Int64.float_of_bits bits)
  | 2 -> Value.Str (get_string src pos)
  | 3 -> Value.Bool (get_u8 src pos <> 0)
  | t -> fail "unknown value tag %d" t

(* -- tuples ---------------------------------------------------------- *)

let encode_tuple b t =
  let schema = Tuple.schema t in
  put_u32 b schema.Schema.id;
  Array.iter (put_value b) (Tuple.fields t)

let decode_tuple ~tables src pos =
  let id = get_u32 src pos in
  if id < 0 || id >= Array.length tables then fail "table id %d out of range" id;
  let schema = tables.(id) in
  let arity = Schema.arity schema in
  (* explicit loop: field decode order matters and [Array.init]'s
     application order is unspecified *)
  let fields = Array.make arity (Value.Int 0) in
  for i = 0 to arity - 1 do
    fields.(i) <- get_value src pos
  done;
  match Tuple.make schema fields with
  | t -> t
  | exception Tuple.Tuple_error m -> fail "tuple rejected by schema: %s" m
