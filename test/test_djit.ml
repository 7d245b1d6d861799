(* DJIT+ (full vector clocks per location): the same detection rules
   as FastTrack, at O(n) space per location. *)

open Dgrace_detectors
open Tutil

let djit () = Djit.create ()

let check name events expected =
  let d = feed_events (djit ()) events in
  Alcotest.(check int) name expected (race_count d)

let test_basic_races () =
  check "ww race" [ fork 0 1; wr 0 0x100; wr 1 0x100 ] 1;
  check "wr race" [ fork 0 1; wr 0 0x100; rd 1 0x100 ] 1;
  check "rw race" [ fork 0 1; rd 1 0x100; wr 0 0x100 ] 1;
  check "rr no race" [ fork 0 1; rd 0 0x100; rd 1 0x100 ] 0

let test_sync_edges () =
  check "lock ordering" [ fork 0 1; acq 0; wr 0 0x100; rel 0; acq 1; wr 1 0x100; rel 1 ] 0;
  check "fork edge" [ wr 0 0x100; fork 0 1; wr 1 0x100 ] 0;
  check "join edge"
    [ fork 0 1; wr 1 0x100; Dgrace_events.Event.Thread_exit { tid = 1 }; join 0 1; wr 0 0x100 ]
    0

(* DJIT+ keeps the full read vector clock, so the read-shared pattern
   works without an adaptive representation *)
let test_read_shared () =
  check "unordered reads then racy write"
    [ fork 0 1; fork 0 2; rd 1 0x100; rd 2 0x100; wr 0 0x100 ]
    1

let test_granularity () =
  let d4 = feed_events (Djit.create ~granularity:4 ()) [ fork 0 1; wr ~size:1 0 0x100; wr ~size:1 1 0x103 ] in
  Alcotest.(check int) "word granularity conflates" 1 (race_count d4);
  let d1 = feed_events (Djit.create ~granularity:1 ()) [ fork 0 1; wr ~size:1 0 0x100; wr ~size:1 1 0x103 ] in
  Alcotest.(check int) "byte granularity separates" 0 (race_count d1)

let test_memory_is_heavier_than_fasttrack () =
  let open Dgrace_shadow in
  let events =
    (fork 0 1 :: acq 0 :: List.map (fun i -> wr 0 (0x1000 + (4 * i))) (List.init 64 Fun.id))
    @ (rel 0 :: acq 1 :: List.map (fun i -> rd 1 (0x1000 + (4 * i))) (List.init 64 Fun.id))
    @ [ rel 1 ]
  in
  let dj = feed_events (Djit.create ~granularity:4 ()) events in
  let ft = feed_events (Fasttrack.create ~granularity:4 ()) events in
  Alcotest.(check bool) "djit vc bytes > fasttrack vc bytes" true
    (Accounting.peak_vc_bytes dj.Detector.account
     > Accounting.peak_vc_bytes ft.Detector.account)

let test_free_retires () =
  let open Dgrace_shadow in
  let d =
    feed_events (djit ())
      [ wr 0 0x400; wr 0 0x401; free 0 0x400 8 ]
  in
  Alcotest.(check int) "retired" 0 (Accounting.live_vcs d.Detector.account)

(* Slots wider than a shadow page (128 B) or a share line (4 KiB):
   creation must not fail, and sharded replay must agree with the
   per-event run.  The stream writes both 4 KiB halves of eight 8 KiB
   slots from two unordered threads — a race per slot at djit:8192,
   none at djit:256 — plus a same-thread and a lock-ordered pair. *)
let test_wide_slots () =
  let module Engine = Dgrace_core.Engine in
  let module Spec = Dgrace_core.Spec in
  let halves j = [ wr 1 ((8192 * j) + 16); wr 2 ((8192 * j) + 4096 + 16) ] in
  let events =
    [ fork 0 1; fork 0 2 ]
    @ List.concat (List.init 8 halves)
    @ [ wr 1 0x20000; wr 1 0x20100; acq 1; wr 1 0x30000; rel 1; acq 2;
        wr 2 0x30010; rel 2 ]
  in
  let summary_lines (s : Engine.summary) =
    List.map Dgrace_events.Report.to_string s.races
  in
  List.iter
    (fun (granularity, expected) ->
      let spec = Spec.Djit { granularity } in
      let name = Spec.name spec in
      let seq = Engine.replay ~spec (List.to_seq events) in
      let sharded =
        Engine.replay_sharded ~shards:2 ~spec (List.to_seq events)
      in
      Alcotest.(check int) (name ^ ": races") expected seq.race_count;
      Alcotest.(check (list string)) (name ^ ": sharded K=2 = per-event")
        (summary_lines seq) (summary_lines sharded);
      Alcotest.(check int) (name ^ ": shard line covers a slot")
        (Int.max 4096 granularity) (Spec.shard_granule spec))
    [ (256, 0); (8192, 8) ]

let suites : unit Alcotest.test list =
  [
    ( "djit.rules",
      [
        Alcotest.test_case "basic races" `Quick test_basic_races;
        Alcotest.test_case "sync edges" `Quick test_sync_edges;
        Alcotest.test_case "read shared" `Quick test_read_shared;
        Alcotest.test_case "granularity" `Quick test_granularity;
        Alcotest.test_case "slots wider than a page or share line" `Quick
          test_wide_slots;
      ] );
    ( "djit.memory",
      [
        Alcotest.test_case "heavier than FastTrack" `Quick test_memory_is_heavier_than_fasttrack;
        Alcotest.test_case "free retires clocks" `Quick test_free_retires;
      ] );
  ]
