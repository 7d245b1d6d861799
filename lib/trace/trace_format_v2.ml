open Dgrace_events
open Trace_format
module Error = Dgrace_resilience.Error

(* Trace format v2: the batched binary encoding.

   Same "DGRT" magic as v1 with version byte 2, then a sequence of
   length-prefixed blocks:

     block := varint body_len, body_len bytes of body
     body  := varint n                       (1 <= n <= block_events)
              kinds   — RLE (tag byte, varint run)
              a col   — RLE (varint value, varint run)   tids/parents
              b col   — zigzag-delta varints, one/row    addrs/locks/children
              c col   — RLE (varint value, varint run)   sizes/sync codes
              locs    — per access row: varint id,
                        fresh ids followed by varint len + bytes

   Columns use the Batch.t layout (kind codes = v1 tags).  The
   location intern table persists across blocks, exactly like the v1
   per-record interning, so a stream decoder must survive for a whole
   stream.  Every decode failure is a structured [Error.Corrupt_trace]
   with an absolute stream offset — truncating a v2 file at any byte
   yields a clean error, never an exception, and resync is rejected
   (blocks are self-delimiting; a corrupt block's extent is unknown).

   See doc/trace.md for the worked layout. *)

(* Hot-loop guard (doc/shadow.md, "Hot-loop rules"): Stdlib's
   polymorphic [min]/[max]/[compare] are C calls, so this module only
   sees the int ones, which inline; any other use fails to type. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max
let[@warning "-32"] compare = Int.compare

let version = 2
let block_events = Batch.default_capacity

(* A corrupt varint could name a multi-gigabyte body; cap well above
   any real block (4096 events * worst-case record size). *)
let max_body_len = 1 lsl 24

let zigzag d = if d >= 0 then d lsl 1 else (((-d) lsl 1) - 1)
let unzigzag z = if z land 1 = 0 then z lsr 1 else -((z + 1) lsr 1)

(* ------------------------------------------------------------------ *)
(* encoding *)

type block_encoder = {
  e_locs : (string, int) Hashtbl.t;
  mutable e_next_loc : int;
}

let block_encoder () = { e_locs = Hashtbl.create 64; e_next_loc = 0 }

(* Encode one batch as a block body (no length prefix): the serve 'B'
   frame payload is exactly one body. *)
let encode_body enc (b : Batch.t) =
  let n = Batch.length b in
  if n < 1 || n > block_events then
    invalid_arg "Trace_format_v2.encode_body: 1 <= batch length <= 4096 required";
  let buf = Buffer.create (n * 4) in
  write_varint buf n;
  (* int columns only: a polymorphic [get] would make [=] a C call *)
  let rle (get : int -> int) put =
    let i = ref 0 in
    while !i < n do
      let v = get !i in
      let j = ref (!i + 1) in
      while !j < n && get !j = v do
        incr j
      done;
      put v (!j - !i);
      i := !j
    done
  in
  rle
    (fun i -> b.Batch.kind.(i))
    (fun v run ->
      Buffer.add_char buf (Char.chr v);
      write_varint buf run);
  rle
    (fun i -> b.Batch.a.(i))
    (fun v run ->
      write_varint buf v;
      write_varint buf run);
  let prev = ref 0 in
  for i = 0 to n - 1 do
    let v = b.Batch.b.(i) in
    write_varint buf (zigzag (v - !prev));
    prev := v
  done;
  rle
    (fun i -> b.Batch.c.(i))
    (fun v run ->
      write_varint buf v;
      write_varint buf run);
  for i = 0 to n - 1 do
    if b.Batch.kind.(i) <= tag_write then begin
      let loc = b.Batch.loc.(i) in
      match Hashtbl.find_opt enc.e_locs loc with
      | Some id -> write_varint buf id
      | None ->
        let id = enc.e_next_loc in
        enc.e_next_loc <- id + 1;
        Hashtbl.replace enc.e_locs loc id;
        write_varint buf id;
        write_varint buf (String.length loc);
        Buffer.add_string buf loc
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* writer: the v1 Trace_writer surface over block buffering *)

type writer = {
  oc : out_channel;
  enc : block_encoder;
  pending : Batch.t;
  mutable count : int;
}

let create oc =
  output_string oc magic;
  output_byte oc version;
  { oc; enc = block_encoder (); pending = Batch.create (); count = 0 }

let flush_block w =
  if Batch.length w.pending > 0 then begin
    let body = encode_body w.enc w.pending in
    let hdr = Buffer.create 4 in
    write_varint hdr (String.length body);
    Buffer.output_buffer w.oc hdr;
    output_string w.oc body;
    Batch.clear w.pending
  end

let write w ev =
  Batch.push w.pending ev;
  w.count <- w.count + 1;
  if Batch.is_full w.pending then flush_block w

let sink w ev = write w ev
let events_written w = w.count

let close w =
  flush_block w;
  close_out w.oc

let to_file path f =
  let oc = open_out_bin path in
  let w = create oc in
  match f (sink w) with
  | v ->
    let n = w.count in
    close w;
    (v, n)
  | exception e ->
    close w;
    raise e

(* ------------------------------------------------------------------ *)
(* decoding *)

(* Location ids are dense (0, 1, 2, ... in first-use order), so the
   decoder's intern table is a growable array indexed by id: one
   bounds-checked load per access row instead of a hash. *)
type stream_decoder = {
  path : string option;
  mutable d_locs : string array;  (* ids [0, d_next_loc) are live *)
  mutable d_next_loc : int;
  mutable events_read : int;
}

let stream_decoder ?path () =
  { path; d_locs = Array.make 64 ""; d_next_loc = 0; events_read = 0 }

let add_loc dec s =
  let id = dec.d_next_loc in
  if id = Array.length dec.d_locs then begin
    let grown = Array.make (2 * id) "" in
    Array.blit dec.d_locs 0 grown 0 id;
    dec.d_locs <- grown
  end;
  dec.d_locs.(id) <- s;
  dec.d_next_loc <- id + 1

(* In-body cursor; [Corrupt] carries the reason, the caller maps it to
   an [Error.Corrupt_trace] at the cursor's absolute offset. *)
type cursor = { s : string; mutable pos : int }

let cur_byte cur =
  if cur.pos >= String.length cur.s then raise (Corrupt "truncated block");
  let b = Char.code (String.unsafe_get cur.s cur.pos) in
  cur.pos <- cur.pos + 1;
  b

let cur_varint cur =
  let rec loop acc shift =
    if shift > 62 then raise (Corrupt "varint too long");
    let b = cur_byte cur in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else loop acc (shift + 7)
  in
  let n = loop 0 0 in
  if n < 0 then raise (Corrupt "varint overflow") else n

let cur_take cur len =
  if cur.pos + len > String.length cur.s then raise (Corrupt "truncated block");
  let s = String.sub cur.s cur.pos len in
  cur.pos <- cur.pos + len;
  s

(* Decode one block body into [batch] (cleared first).  [base] is the
   body's absolute offset in the stream, used for error offsets.  Rows
   get [off = events_read + i]: a monotone stream position, the same
   order key the shard splitter uses, so races merge identically. *)
let decode_body_exn dec ~base body (batch : Batch.t) =
  let cur = { s = body; pos = 0 } in
  let corrupt reason =
    raise
      (Error.E
         (Error.Corrupt_trace
            {
              path = dec.path;
              offset = base + cur.pos;
              events_read = dec.events_read;
              reason;
            }))
  in
  try
    let n = cur_varint cur in
    if n < 1 || n > block_events then
      raise (Corrupt (Printf.sprintf "block event count %d out of range" n));
    if n > Batch.capacity batch then
      invalid_arg "Trace_format_v2.decode_body: batch capacity too small";
    Batch.clear batch;
    let kind = batch.Batch.kind
    and a = batch.Batch.a
    and b = batch.Batch.b
    and c = batch.Batch.c
    and loc = batch.Batch.loc
    and off = batch.Batch.off in
    (* kinds *)
    let i = ref 0 in
    while !i < n do
      let tag = cur_byte cur in
      if tag > max_tag then
        raise (Corrupt (Printf.sprintf "unknown tag %d" tag));
      let run = cur_varint cur in
      if run < 1 || !i + run > n then raise (Corrupt "kind run out of range");
      Array.fill kind !i run tag;
      i := !i + run
    done;
    (* a column (tids/parents) *)
    let i = ref 0 in
    while !i < n do
      let v = cur_varint cur in
      if v > max_tid then
        raise (Corrupt (Printf.sprintf "tid %d out of range" v));
      let run = cur_varint cur in
      if run < 1 || !i + run > n then raise (Corrupt "tid run out of range");
      Array.fill a !i run v;
      i := !i + run
    done;
    (* b column (addrs/locks/children), zigzag deltas *)
    let prev = ref 0 in
    for i = 0 to n - 1 do
      let v = !prev + unzigzag (cur_varint cur) in
      if v < 0 then raise (Corrupt "negative address");
      if (kind.(i) = tag_fork || kind.(i) = tag_join) && v > max_tid then
        raise (Corrupt (Printf.sprintf "tid %d out of range" v));
      b.(i) <- v;
      prev := v
    done;
    (* c column (sizes/sync codes) *)
    let i = ref 0 in
    while !i < n do
      let v = cur_varint cur in
      let run = cur_varint cur in
      if run < 1 || !i + run > n then raise (Corrupt "size run out of range");
      for j = !i to !i + run - 1 do
        let k = kind.(j) in
        if k = tag_acquire || k = tag_release then begin
          if v > 3 then raise (Corrupt (Printf.sprintf "bad sync kind %d" v))
        end
        else if v > max_access_size then
          raise (Corrupt (Printf.sprintf "size %d out of range" v));
        c.(j) <- v
      done;
      i := !i + run
    done;
    (* locations, access rows only *)
    for i = 0 to n - 1 do
      if kind.(i) <= tag_write then begin
        let id = cur_varint cur in
        if id < dec.d_next_loc then loc.(i) <- dec.d_locs.(id)
        else if id = dec.d_next_loc then begin
          let len = cur_varint cur in
          if len > max_loc_len then
            raise (Corrupt (Printf.sprintf "location length %d out of range" len));
          let s = cur_take cur len in
          add_loc dec s;
          loc.(i) <- s
        end
        else raise (Corrupt (Printf.sprintf "location id %d from the future" id))
      end
      else loc.(i) <- ""
    done;
    if cur.pos <> String.length body then
      raise (Corrupt "trailing bytes in block");
    for i = 0 to n - 1 do
      off.(i) <- dec.events_read + i
    done;
    batch.Batch.len <- n;
    dec.events_read <- dec.events_read + n
  with Corrupt reason -> corrupt reason

let decode_body dec ~base body batch =
  match decode_body_exn dec ~base body batch with
  | () -> Ok ()
  | exception Error.E e -> Error e

(* ------------------------------------------------------------------ *)
(* file reading *)

let check_header ?path ic =
  let fail ~offset reason =
    raise
      (Error.E (Error.Corrupt_trace { path; offset; events_read = 0; reason }))
  in
  (match really_input_string ic (String.length magic) with
   | exception End_of_file -> fail ~offset:0 "bad magic (shorter than header)"
   | m -> if m <> magic then fail ~offset:0 "bad magic");
  match input_byte ic with
  | exception End_of_file ->
    fail ~offset:(String.length magic) "missing version byte"
  | v ->
    if v <> version then
      fail ~offset:(String.length magic)
        (Printf.sprintf "unsupported version %d" v)

(* Read one block into [batch]; false on clean EOF at a block
   boundary.  Truncation anywhere inside the length prefix or body is
   a corrupt-trace error at the block's start offset. *)
let read_block dec ic batch =
  let start = pos_in ic in
  let corrupt reason =
    raise
      (Error.E
         (Error.Corrupt_trace
            {
              path = dec.path;
              offset = start;
              events_read = dec.events_read;
              reason;
            }))
  in
  match input_byte ic with
  | exception End_of_file -> false
  | b0 ->
    let body_len =
      let rec loop acc shift b =
        if shift > 62 then corrupt "varint too long"
        else
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b land 0x80 = 0 then acc
          else
            match input_byte ic with
            | exception End_of_file -> corrupt "truncated block header"
            | b -> loop acc (shift + 7) b
      in
      let n = loop 0 0 b0 in
      if n < 0 then corrupt "varint overflow" else n
    in
    if body_len < 1 || body_len > max_body_len then
      corrupt (Printf.sprintf "block length %d out of range" body_len);
    let base = pos_in ic in
    let body =
      match really_input_string ic body_len with
      | exception End_of_file -> corrupt "truncated block"
      | s -> s
    in
    decode_body_exn dec ~base body batch;
    true

(* Fold over blocks decoded into a single reused batch: the batched
   replay hot path.  The batch passed to [f] is overwritten by the
   next block — consume it before returning. *)
let fold_batches path f init =
  let ic = open_in_bin path in
  let run () =
    check_header ~path ic;
    let dec = stream_decoder ~path () in
    let batch = Batch.create () in
    let rec loop acc =
      if read_block dec ic batch then loop (f acc batch) else acc
    in
    loop init
  in
  match run () with
  | acc ->
    close_in ic;
    acc
  | exception e ->
    close_in ic;
    raise e

(* Event-at-a-time surface for generic consumers (dump, convert,
   per-event differential replays).  Each block is materialized once;
   not the hot path. *)
let read ?path ic =
  check_header ?path ic;
  let dec = stream_decoder ?path () in
  let batch = Batch.create () in
  let rec block () =
    if read_block dec ic batch then begin
      let evs = Array.init (Batch.length batch) (Batch.event batch) in
      within evs 0
    end
    else Seq.Nil
  and within evs i =
    if i < Array.length evs then
      Seq.Cons (evs.(i), fun () -> within evs (i + 1))
    else block ()
  in
  fun () -> block ()

let fold_file path f init =
  let ic = open_in_bin path in
  match Seq.fold_left f init (read ~path ic) with
  | acc ->
    close_in ic;
    acc
  | exception e ->
    close_in ic;
    raise e

let read_file path = List.rev (fold_file path (fun acc ev -> ev :: acc) [])
