(* Trace format v2 (blocked column encoding): round-trip laws, v1
   interchange, batched replay agreement, and the strict corruption
   contract — every truncation yields a structured [Corrupt_trace]
   with a sane absolute offset, never a bare exception. *)

open Dgrace_events
open Dgrace_trace
module Error = Dgrace_resilience.Error
module Engine = Dgrace_core.Engine
module Spec = Dgrace_core.Spec

let tmp_file () = Filename.temp_file "dgrace" ".trace"

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let strings = List.map Event.to_string

let v2_roundtrip events =
  let path = tmp_file () in
  let (), n =
    Trace_format_v2.to_file path (fun sink -> List.iter sink events)
  in
  let back = Trace_format_v2.read_file path in
  Sys.remove path;
  (n, back)

(* Deterministic mixed stream, long enough to span several blocks when
   repeated: every tag, repeated tids/locs (RLE-friendly) and strided
   addrs (delta-friendly) plus breaks in both. *)
let sample_events =
  [
    Event.Fork { parent = 0; child = 1 };
    Event.Alloc { tid = 0; addr = 0x1000; size = 64 };
    Event.Access { tid = 0; kind = Write; addr = 0x1000; size = 4; loc = "init" };
    Event.Access { tid = 0; kind = Write; addr = 0x1004; size = 4; loc = "init" };
    Event.Access { tid = 0; kind = Write; addr = 0x1008; size = 4; loc = "init" };
    Event.Acquire { tid = 1; lock = 3; sync = Event.Lock };
    Event.Access { tid = 1; kind = Read; addr = 0x9000; size = 1; loc = "worker" };
    Event.Access { tid = 1; kind = Read; addr = 0x1001; size = 2; loc = "worker" };
    Event.Release { tid = 1; lock = 3; sync = Event.Lock };
    Event.Acquire { tid = 1; lock = 9; sync = Event.Barrier };
    Event.Release { tid = 0; lock = 10; sync = Event.Flag };
    Event.Access { tid = 0; kind = Write; addr = 0x1000; size = 8; loc = "" };
    Event.Free { tid = 0; addr = 0x1000; size = 64 };
    Event.Join { parent = 0; child = 1 };
    Event.Thread_exit { tid = 1 };
  ]

let test_roundtrip () =
  let n, back = v2_roundtrip sample_events in
  Alcotest.(check int) "count" (List.length sample_events) n;
  Alcotest.(check (list string)) "identical" (strings sample_events)
    (strings back)

let test_empty () =
  let n, back = v2_roundtrip [] in
  Alcotest.(check int) "count" 0 n;
  Alcotest.(check (list string)) "no events" [] (strings back)

let test_multi_block () =
  (* more than one block's worth of rows, so block boundaries, the
     cross-block location table, and the running row numbering are all
     exercised *)
  let reps = (Trace_format_v2.block_events / List.length sample_events) + 2 in
  let events =
    List.concat (List.init reps (fun _ -> sample_events))
  in
  let n, back = v2_roundtrip events in
  Alcotest.(check int) "count" (List.length events) n;
  Alcotest.(check bool) "identical" true (strings events = strings back)

let test_fold_batches_offsets () =
  let path = tmp_file () in
  let reps = (Trace_format_v2.block_events / List.length sample_events) + 2 in
  let events = List.concat (List.init reps (fun _ -> sample_events)) in
  let (), total =
    Trace_format_v2.to_file path (fun sink -> List.iter sink events)
  in
  (* rows are numbered by stream position, monotonically across blocks *)
  let next = ref 0 in
  let batches = ref 0 in
  Trace_format_v2.fold_batches path
    (fun () b ->
      incr batches;
      for i = 0 to Batch.length b - 1 do
        if b.Batch.off.(i) <> !next then
          Alcotest.failf "row %d numbered %d" !next b.Batch.off.(i);
        incr next
      done)
    ();
  Sys.remove path;
  Alcotest.(check int) "every row numbered" total !next;
  Alcotest.(check bool) "spans several blocks" true (!batches > 1)

(* v1 -> v2 interchange: converting a v1 stream and replaying it
   batched gives bit-identical races to the v1 per-event replay. *)
let test_v1_interchange () =
  let v1 = tmp_file () and v2 = tmp_file () in
  let racy =
    [
      Event.Fork { parent = 0; child = 1 };
      Event.Access { tid = 0; kind = Write; addr = 0x40; size = 4; loc = "a" };
      Event.Access { tid = 1; kind = Write; addr = 0x40; size = 4; loc = "b" };
      Event.Thread_exit { tid = 1 };
      Event.Join { parent = 0; child = 1 };
    ]
  in
  let (), _ = Trace_writer.to_file v1 (fun sink -> List.iter sink racy) in
  let events = Trace_reader.read_file v1 in
  let (), _ =
    Trace_format_v2.to_file v2 (fun sink -> List.iter sink events)
  in
  Alcotest.(check int) "v1 is v1" 1 (Trace_reader.probe_version v1);
  Alcotest.(check int) "v2 is v2" 2 (Trace_reader.probe_version v2);
  let per_event = Engine.replay ~spec:Spec.dynamic (List.to_seq events) in
  let batched =
    Engine.replay_batches ~spec:Spec.dynamic (fun consume ->
        Trace_format_v2.fold_batches v2 (fun () b -> consume b) ())
  in
  Sys.remove v1;
  Sys.remove v2;
  Alcotest.(check (list string))
    "race-bit-identical"
    (List.map Report.to_string per_event.races)
    (List.map Report.to_string batched.races);
  Alcotest.(check int) "the seeded race" 1 batched.race_count

(* Strict corruption contract: a v2 file cut at EVERY byte offset
   either decodes cleanly (a cut at a block boundary is a valid
   shorter stream) or fails with [Corrupt_trace] carrying an absolute
   offset inside the file — never a bare exception, and never events
   beyond the cut. *)
let test_truncate_every_offset () =
  let path = tmp_file () in
  let (), total =
    Trace_format_v2.to_file path (fun sink ->
        for _ = 1 to 3 do List.iter sink sample_events done)
  in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let len = String.length full in
  let cut_path = tmp_file () in
  let clean_cuts = ref 0 in
  for cut = 0 to len - 1 do
    write_file cut_path (String.sub full 0 cut);
    match Trace_format_v2.read_file cut_path with
    | events ->
      incr clean_cuts;
      if List.length events > total then
        Alcotest.failf "cut at %d: more events than written" cut
    | exception Error.E (Error.Corrupt_trace c) ->
      if c.offset < 0 || c.offset > cut then
        Alcotest.failf "cut at %d: offset %d outside the prefix" cut c.offset;
      if c.events_read < 0 || c.events_read > total then
        Alcotest.failf "cut at %d: events_read %d out of range" cut
          c.events_read
    | exception exn ->
      Alcotest.failf "cut at %d: unstructured exception %s" cut
        (Printexc.to_string exn)
  done;
  Sys.remove cut_path;
  (* at least the empty-body boundary after the header decodes *)
  Alcotest.(check bool) "some cuts are clean EOFs" true (!clean_cuts >= 1)

let test_corrupt_block_offset () =
  (* flip a byte inside the first block body: the error's absolute
     offset must point at or after the header, inside the file *)
  let path = tmp_file () in
  let (), _ =
    Trace_format_v2.to_file path (fun sink -> List.iter sink sample_events)
  in
  let full = In_channel.with_open_bin path In_channel.input_all in
  let bytes = Bytes.of_string full in
  Bytes.set bytes (Bytes.length bytes - 3) '\xff';
  write_file path (Bytes.to_string bytes);
  (match Trace_format_v2.read_file path with
   | _ -> ()  (* a flipped byte can decode as different valid columns *)
   | exception Error.E (Error.Corrupt_trace c) ->
     Alcotest.(check bool) "offset inside the file" true
       (c.offset >= 5 && c.offset <= String.length full)
   | exception exn ->
     Alcotest.failf "unstructured exception %s" (Printexc.to_string exn));
  Sys.remove path

(* The decoder's location table starts at 64 entries and grows: 200
   distinct labels, some reused across blocks, must come back as they
   were written. *)
let many_locs_events =
  List.init 3000 (fun i ->
      let loc = Printf.sprintf "site-%d" (i mod 200) in
      Event.Access
        {
          tid = i mod 3;
          kind = (if i mod 5 = 0 then Write else Read);
          addr = 0x4000 + (8 * (i mod 97));
          size = 4;
          loc;
        })

let test_location_table_grows () =
  let n, back = v2_roundtrip many_locs_events in
  Alcotest.(check int) "count" (List.length many_locs_events) n;
  Alcotest.(check (list string)) "identical" (strings many_locs_events)
    (strings back)

(* After a valid prefix that interned 200 locations (ids 0..199), a
   block naming id 201 — one past the next fresh id — is corrupt.  The
   error offset is the absolute position just past that id's varint:
   prefix + 1-byte length prefix + the body up to and including it. *)
let test_future_location_id () =
  let path = tmp_file () in
  let (), _ =
    Trace_format_v2.to_file path (fun sink -> List.iter sink many_locs_events)
  in
  let prefix = In_channel.with_open_bin path In_channel.input_all in
  let body = Buffer.create 16 in
  let v = Trace_format.write_varint body in
  (* one row: a 4-byte read by tid 0 of 0x40, then its location id *)
  v 1;
  Buffer.add_char body (Char.chr Trace_format.tag_read);
  v 1;
  v 0;
  v 1;
  v (2 * 0x40);
  v 4;
  v 1;
  v 201;
  let body = Buffer.contents body in
  Alcotest.(check bool) "body length fits one varint byte" true
    (String.length body < 0x80);
  let block = String.make 1 (Char.chr (String.length body)) ^ body in
  write_file path (prefix ^ block);
  let expected = String.length prefix + String.length block in
  (match Trace_format_v2.read_file path with
   | _ -> Alcotest.fail "a location id from the future decoded"
   | exception Error.E (Error.Corrupt_trace c) ->
     Alcotest.(check int) "offset" expected c.offset;
     Alcotest.(check int) "events read" (List.length many_locs_events)
       c.events_read;
     Alcotest.(check bool) "reason names the future id" true
       (Astring_contains.contains c.reason "from the future")
   | exception exn ->
     Alcotest.failf "unstructured exception %s" (Printexc.to_string exn));
  Sys.remove path

(* qcheck laws (fixed seed in CI via QCHECK_SEED) *)

let arb_events = QCheck.small_list Test_trace.arb_event

let qcheck_roundtrip =
  QCheck.Test.make ~name:"v2: random event lists round-trip" ~count:100
    arb_events (fun events ->
      let _, back = v2_roundtrip events in
      strings back = strings events)

let qcheck_v1_v2_agree =
  QCheck.Test.make ~name:"v2: v1 and v2 encode the same stream" ~count:50
    arb_events (fun events ->
      let v1 = tmp_file () and v2 = tmp_file () in
      let (), _ = Trace_writer.to_file v1 (fun sink -> List.iter sink events) in
      let (), _ =
        Trace_format_v2.to_file v2 (fun sink -> List.iter sink events)
      in
      let a = Trace_reader.read_file v1 in
      let b = Trace_format_v2.read_file v2 in
      Sys.remove v1;
      Sys.remove v2;
      strings a = strings b)

let qcheck_batched_replay_identical =
  QCheck.Test.make
    ~name:"v2: batched replay race-identical to per-event" ~count:50
    arb_events (fun events ->
      let v2 = tmp_file () in
      let (), _ =
        Trace_format_v2.to_file v2 (fun sink -> List.iter sink events)
      in
      let per_event = Engine.replay ~spec:Spec.dynamic (List.to_seq events) in
      let batched =
        Engine.replay_batches ~spec:Spec.dynamic (fun consume ->
            Trace_format_v2.fold_batches v2 (fun () b -> consume b) ())
      in
      Sys.remove v2;
      List.map Report.to_string per_event.races
      = List.map Report.to_string batched.races)

let suites : unit Alcotest.test list =
  [
    ( "trace_v2.format",
      [
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "multi-block" `Quick test_multi_block;
        Alcotest.test_case "batch row numbering" `Quick
          test_fold_batches_offsets;
        Alcotest.test_case "v1 interchange replay" `Quick test_v1_interchange;
        Alcotest.test_case "truncate at every offset" `Quick
          test_truncate_every_offset;
        Alcotest.test_case "corrupt block offset" `Quick
          test_corrupt_block_offset;
        Alcotest.test_case "location table grows" `Quick
          test_location_table_grows;
        Alcotest.test_case "location id from the future" `Quick
          test_future_location_id;
        QCheck_alcotest.to_alcotest qcheck_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_v1_v2_agree;
        QCheck_alcotest.to_alcotest qcheck_batched_replay_identical;
      ] );
  ]
