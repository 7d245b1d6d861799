(* Differential proof for the pipelined decode→detect replay and the
   batch fast paths (doc/trace.md, doc/shadow.md):

   - the pipelined replay must be bit-identical to the sequential
     batched path on races (content and order), stream stats,
     transition counts and exit code — corpus traces and random
     streams, sequential and sharded;
   - a trace cut at EVERY byte offset must fail through the pipeline
     with exactly the sequential error (same absolute offset, same
     events_read) after exactly the sequential prefix;
   - budget stops must pin the same stop_reason and partial summary;
   - batched application must be report- and stats-identical to the
     per-event reference for the dynamic and fixed-granularity
     detectors, with and without vector-clock interning, sharded or
     not;
   - the batch ring honours its recycling protocol: FIFO, error only
     after drain, abort releases a blocked producer. *)

open Dgrace_events
open Dgrace_trace
module Engine = Dgrace_core.Engine
module Spec = Dgrace_core.Spec
module Budget = Dgrace_resilience.Budget
module Error = Dgrace_resilience.Error
module Metrics = Dgrace_obs.Metrics
module Session = Dgrace_serve.Session

let tmp_file () = Filename.temp_file "dgrace" ".trace"
(* resolve next to the test binary so both `dune runtest` (cwd = test
   dir) and `dune exec test/test_main.exe` (cwd = project root) work *)
let corpus name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat "corpus" (name ^ ".trace.v2"))
let corpus_names = [ "clean"; "racy"; "deadlock_adjacent"; "straddle" ]

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let fold_feed path consume =
  Trace_format_v2.fold_batches path (fun () b -> consume b) ()

let report = Alcotest.testable (Fmt.of_to_string Report.to_string) ( = )

let json =
  Alcotest.testable
    (Fmt.of_to_string Dgrace_obs.Json.to_string)
    Dgrace_obs.Json.equal

let transitions_json (s : Engine.summary) =
  match s.transitions with
  | None -> Dgrace_obs.Json.Null
  | Some m -> Dgrace_obs.State_matrix.to_json m

let stats_tuple (s : Engine.summary) =
  let r = s.stats in
  Dgrace_detectors.Run_stats.
    (r.accesses, r.reads, r.writes, r.same_epoch, r.sync_ops, r.allocs, r.frees)

let check_equivalent ~ctx (a : Engine.summary) (b : Engine.summary) =
  Alcotest.(check (list report)) (ctx ^ ": race reports") a.races b.races;
  Alcotest.(check int) (ctx ^ ": race count") a.race_count b.race_count;
  Alcotest.(check int) (ctx ^ ": suppressed") a.suppressed b.suppressed;
  Alcotest.check json (ctx ^ ": transitions") (transitions_json a)
    (transitions_json b);
  Alcotest.(check int)
    (ctx ^ ": exit code")
    (Engine.exit_code_of_summary a)
    (Engine.exit_code_of_summary b);
  if stats_tuple a <> stats_tuple b then
    Alcotest.failf "%s: stream stats differ" ctx

(* boolean form for qcheck laws *)
let equivalent (a : Engine.summary) (b : Engine.summary) =
  List.map Report.to_string a.races = List.map Report.to_string b.races
  && a.race_count = b.race_count
  && Dgrace_obs.Json.equal (transitions_json a) (transitions_json b)
  && stats_tuple a = stats_tuple b

(* ------------------------------------------------------------------ *)
(* batch ring protocol *)

exception Boom

let test_ring_fifo () =
  let ring = Batch_ring.create ~slots:4 () in
  for i = 1 to 3 do
    match Batch_ring.acquire ring with
    | None -> Alcotest.fail "acquire returned None without an abort"
    | Some b ->
      Alcotest.(check int) "acquired batch is cleared" 0 (Batch.length b);
      Batch.push b ~off:i (Event.Thread_exit { tid = i });
      Batch_ring.publish ring b
  done;
  Batch_ring.close ring;
  for i = 1 to 3 do
    match Batch_ring.take ring with
    | None -> Alcotest.failf "ring drained %d batches early" (3 - i + 1)
    | Some b ->
      Alcotest.(check int) "FIFO order" i b.Batch.off.(0);
      Batch_ring.recycle ring b
  done;
  (match Batch_ring.take ring with
   | None -> ()
   | Some _ -> Alcotest.fail "batch after clean close drained");
  Alcotest.(check int) "blocks counted" 3 (Batch_ring.blocks ring)

let test_ring_error_after_drain () =
  (* a close error reaches the consumer only once every published
     batch was taken — the pipeline's corruption-offset guarantee *)
  let ring = Batch_ring.create ~slots:4 () in
  (match Batch_ring.acquire ring with
   | Some b ->
     Batch.push b (Event.Thread_exit { tid = 7 });
     Batch_ring.publish ring b
   | None -> Alcotest.fail "acquire");
  Batch_ring.close ~error:Boom ring;
  (match Batch_ring.take ring with
   | Some b -> Batch_ring.recycle ring b
   | None -> Alcotest.fail "published batch lost behind the error");
  match Batch_ring.take ring with
  | exception Boom -> ()
  | _ -> Alcotest.fail "close error not re-raised after drain"

let test_ring_abort_unblocks () =
  let ring = Batch_ring.create ~slots:2 () in
  let producer =
    Domain.spawn (fun () ->
        let published = ref 0 in
        let rec loop () =
          match Batch_ring.acquire ring with
          | None -> !published  (* woken by abort *)
          | Some b ->
            incr published;
            Batch_ring.publish ring b;
            loop ()
        in
        loop ())
  in
  (* consume one batch so the producer is demonstrably running, then
     abort while it is (or is about to be) blocked on a full ring *)
  (match Batch_ring.take ring with
   | Some b -> Batch_ring.recycle ring b
   | None -> Alcotest.fail "no batch from producer");
  Batch_ring.abort ring;
  let published = Domain.join producer in
  Alcotest.(check bool) "producer published then stopped" true (published >= 1)

(* ------------------------------------------------------------------ *)
(* feed: row-for-row agreement with the sequential reader *)

let rows_of feed path =
  let rows = ref [] in
  feed path (fun b ->
      for i = 0 to Batch.length b - 1 do
        rows := (b.Batch.off.(i), Event.to_string (Batch.event b i)) :: !rows
      done);
  List.rev !rows

let test_feed_matches_fold () =
  List.iter
    (fun name ->
      let path = corpus name in
      let seq = rows_of fold_feed path in
      let blocks = ref 0 in
      let pipe =
        rows_of
          (fun p consume ->
            let s = Trace_pipeline.feed p consume in
            blocks := s.Trace_pipeline.blocks)
          path
      in
      if seq <> pipe then Alcotest.failf "%s: rows differ" name;
      Alcotest.(check bool) (name ^ ": blocks counted") true (!blocks >= 1))
    corpus_names

(* ------------------------------------------------------------------ *)
(* engine-level differential on the corpus, sequential and sharded *)

let sharded_gauges =
  [
    "pipeline.blocks";
    "pipeline.decode_us";
    "pipeline.decode_stall_us";
    "pipeline.detect_stall_us";
    "par.replans";
  ]

let diff_corpus name () =
  let path = corpus name in
  let events = Trace_format_v2.read_file path in
  List.iter
    (fun spec ->
      let seq = Engine.replay_batches ~spec (fold_feed path) in
      let pipe = Engine.replay_pipelined ~spec path in
      let ctx = Printf.sprintf "%s %s pipelined" name (Spec.name spec) in
      check_equivalent ~ctx seq pipe;
      (* the pipeline gauges land in the summary metrics *)
      Alcotest.(check bool) (ctx ^ ": pipeline.blocks gauge") true
        (List.mem_assoc "pipeline.blocks" (Metrics.gauges pipe.metrics));
      List.iter
        (fun shards ->
          let base = Engine.replay_sharded ~shards ~spec (List.to_seq events) in
          let sp = Engine.replay_sharded_pipelined ~shards ~spec path in
          let ctx =
            Printf.sprintf "%s %s sharded=%d pipelined" name (Spec.name spec)
              shards
          in
          check_equivalent ~ctx base sp;
          List.iter
            (fun g ->
              Alcotest.(check bool) (ctx ^ ": " ^ g ^ " gauge") true
                (List.mem_assoc g (Metrics.gauges sp.metrics)))
            sharded_gauges)
        [ 1; 4 ])
    [ Spec.dynamic; Spec.word ]

(* The sharded pipeline plans as it routes and restarts behind a full
   planner prepass only when a row straddles a line ([par.replans]).
   Either way it equals the per-event reference and the materialised
   sharded replay, at every shard count. *)
let test_sharded_replan () =
  List.iter
    (fun name ->
      let path = corpus name in
      let events = Trace_format_v2.read_file path in
      let reference = Engine.replay ~spec:Spec.dynamic (List.to_seq events) in
      List.iter
        (fun shards ->
          let ctx = Printf.sprintf "%s sharded=%d" name shards in
          let base =
            Engine.replay_sharded ~shards ~spec:Spec.dynamic
              (List.to_seq events)
          in
          let sp = Engine.replay_sharded_pipelined ~shards ~spec:Spec.dynamic path in
          check_equivalent ~ctx:(ctx ^ " vs per-event") reference sp;
          check_equivalent ~ctx:(ctx ^ " vs materialised") base sp;
          (* the corpus names its cases: only [straddle] straddles *)
          Alcotest.(check int) (ctx ^ ": par.replans")
            (if shards > 1 && name = "straddle" then 1 else 0)
            (List.assoc "par.replans" (Metrics.gauges sp.metrics)))
        [ 1; 2; 3; 4 ])
    corpus_names

(* K shards run on the calling domain plus K - 1 spawned ones; an
   abandoned first pass spawns its K - 1 once more.  Domain ids are
   handed out in spawn order, so two probes bracket the count. *)
let test_sharded_domain_count () =
  let probe () =
    Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))
  in
  List.iter
    (fun (name, replans) ->
      List.iter
        (fun shards ->
          let before = probe () in
          ignore
            (Engine.replay_sharded_pipelined ~shards ~spec:Spec.dynamic
               (corpus name));
          let spawned = probe () - before - 1 in
          Alcotest.(check int)
            (Printf.sprintf "%s sharded=%d: domains spawned" name shards)
            ((shards - 1) * (1 + if shards > 1 then replans else 0))
            spawned)
        [ 1; 2; 3; 4 ])
    [ ("racy", 0); ("clean", 0); ("straddle", 1) ]

(* ------------------------------------------------------------------ *)
(* corruption: every truncation offset, pipelined = sequential *)

type cut_outcome = Clean of int | Corrupt of int * int * int
(* Clean rows | Corrupt (rows consumed, absolute offset, events_read) *)

let cut_outcome feed path =
  let rows = ref 0 in
  match feed path (fun b -> rows := !rows + Batch.length b) with
  | _ -> Clean !rows
  | exception Error.E (Error.Corrupt_trace c) ->
    Corrupt (!rows, c.offset, c.events_read)

let test_truncate_every_offset_pipelined () =
  let path = tmp_file () in
  let (), _ =
    Trace_format_v2.to_file path (fun sink ->
        for _ = 1 to 3 do
          List.iter sink Test_trace_v2.sample_events
        done)
  in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let cut_path = tmp_file () in
  for cut = 0 to String.length full - 1 do
    write_file cut_path (String.sub full 0 cut);
    let seq = cut_outcome fold_feed cut_path in
    (* the sharded pipeline: same error, or equivalent races on a clean
       cut.  A shard domain left blocked at a cut would pile up across
       the sweep until [Domain.spawn] runs out of domains. *)
    let sharded =
      match Engine.replay_sharded_pipelined ~shards:2 ~spec:Spec.dynamic cut_path with
      | s -> Ok s
      | exception Error.E e -> Error e
    in
    (match (seq, sharded) with
     | Clean _, Ok s ->
       check_equivalent
         ~ctx:(Printf.sprintf "cut at %d: sharded" cut)
         (Engine.replay_batches ~spec:Spec.dynamic (fold_feed cut_path))
         s
     | Corrupt (_, o, e), Error (Error.Corrupt_trace c) ->
       Alcotest.(check (pair int int))
         (Printf.sprintf "cut at %d: sharded offset, events_read" cut)
         (o, e)
         (c.offset, c.events_read)
     | Corrupt _, Ok _ ->
       Alcotest.failf "cut at %d: sharded replay read a corrupt prefix" cut
     | _, Error e ->
       Alcotest.failf "cut at %d: sharded replay failed: %s" cut
         (Error.to_string e));
    let pipe =
      cut_outcome (fun p consume -> ignore (Trace_pipeline.feed p consume))
        cut_path
    in
    (match (seq, pipe) with
     | Clean a, Clean b when a = b -> ()
     | Corrupt (r1, o1, e1), Corrupt (r2, o2, e2)
       when r1 = r2 && o1 = o2 && e1 = e2 ->
       ()
     | _ ->
       let show = function
         | Clean r -> Printf.sprintf "clean after %d rows" r
         | Corrupt (r, o, e) ->
           Printf.sprintf "corrupt at byte %d (rows %d, events_read %d)" o r e
       in
       Alcotest.failf "cut at %d: sequential %s, pipelined %s" cut (show seq)
         (show pipe))
  done;
  Sys.remove cut_path

let test_corrupt_corpus_error_identity () =
  (* the bundled truncated trace, through the full engine *)
  let path = corpus "truncated" in
  let run f = match f () with _ -> None | exception Error.E e -> Some e in
  let seq = run (fun () -> Engine.replay_batches ~spec:Spec.dynamic (fold_feed path)) in
  let pipe = run (fun () -> Engine.replay_pipelined ~spec:Spec.dynamic path) in
  let sp = run (fun () ->
      Engine.replay_sharded_pipelined ~shards:4 ~spec:Spec.dynamic path)
  in
  let err = Alcotest.testable (Fmt.of_to_string Error.to_string) ( = ) in
  Alcotest.(check (option err)) "pipelined error identical" seq pipe;
  Alcotest.(check (option err)) "sharded pipelined error identical" seq sp;
  Alcotest.(check bool) "it is an error" true (seq <> None)

(* ------------------------------------------------------------------ *)
(* budget stop identity *)

(* Every governed path shares one budget guard, so a budget stops or
   degrades each of them at the same event: same stop reason (with the
   live bytes of a shadow stop), same [degraded] flag, same races in
   the same order, same access count.  The per-event [Engine.replay] is
   the reference. *)
let governed_paths ~budget events =
  let path = tmp_file () in
  let (), _ =
    Trace_format_v2.to_file path (fun sink -> Array.iter sink events)
  in
  let spec = Spec.dynamic in
  let session feed =
    let t = Session.open_ ~budget ~id:1 ~spec () in
    feed t;
    match Session.finalize t with
    | Ok s -> s
    | Error e -> Alcotest.failf "session: %s" (Error.to_string e)
  in
  let feed_events t =
    (* frame-sized chunks, stopping at the first refused feed *)
    let n = Array.length events in
    let rec go i =
      if i < n then
        let len = min 1000 (n - i) in
        match Session.feed_events t (Array.to_list (Array.sub events i len)) with
        | Ok _ -> go (i + len)
        | Error _ -> ()
    in
    go 0
  in
  let feed_batches t =
    Trace_format_v2.fold_batches path
      (fun ok b -> ok && Result.is_ok (Session.feed_batch t b))
      true
    |> ignore
  in
  let runs =
    [
      ("replay", Engine.replay ~budget ~spec (Array.to_seq events));
      ("replay_batches", Engine.replay_batches ~budget ~spec (fold_feed path));
      ("replay_pipelined", Engine.replay_pipelined ~budget ~spec path);
      ( "replay_sharded ~shards:1",
        Engine.replay_sharded ~budget ~shards:1 ~spec (Array.to_seq events) );
      ("Session.feed_events", session feed_events);
      ("Session.feed_batch", session feed_batches);
    ]
  in
  Sys.remove path;
  runs

let test_budget_stop_identity () =
  let path = corpus "racy" in
  List.iter
    (fun limit ->
      let seq =
        Engine.replay_batches
          ~budget:(Budget.make ~max_events:limit ())
          ~spec:Spec.dynamic (fold_feed path)
      in
      let pipe =
        Engine.replay_pipelined
          ~budget:(Budget.make ~max_events:limit ())
          ~spec:Spec.dynamic path
      in
      let stop = function
        | None -> "none"
        | Some s -> Budget.stop_to_string s
      in
      let ctx = Printf.sprintf "max_events=%d" limit in
      Alcotest.(check string)
        (ctx ^ ": stop reason")
        (stop seq.partial) (stop pipe.partial);
      check_equivalent ~ctx seq pipe)
    [ 1; 5; 1_000_000 ];
  let stop (s : Engine.summary) =
    Option.fold ~none:"completed" ~some:Budget.stop_to_string s.partial
  in
  List.iter
    (fun name ->
      let events =
        Test_par.recorded
          (Option.get (Dgrace_workloads.Registry.find name))
          1
      in
      List.iter
        (fun (what, budget) ->
          match governed_paths ~budget events with
          | [] -> assert false
          | (_, (reference : Engine.summary)) :: others ->
            List.iter
              (fun (path_name, (s : Engine.summary)) ->
                let ctx = Printf.sprintf "%s %s %s" name what path_name in
                Alcotest.(check string) (ctx ^ ": stop") (stop reference) (stop s);
                Alcotest.(check bool)
                  (ctx ^ ": degraded") reference.degraded s.degraded;
                Alcotest.(check (list report))
                  (ctx ^ ": races") reference.races s.races;
                Alcotest.(check int)
                  (ctx ^ ": accesses") reference.stats.accesses
                  s.stats.accesses)
              others)
        (List.map
           (fun n ->
             (Printf.sprintf "max_events=%d" n, Budget.make ~max_events:n ()))
           [ 1; 256; 5000 ]
        @ List.map
            (fun n ->
              ( Printf.sprintf "max_shadow_bytes=%d" n,
                Budget.make ~max_shadow_bytes:n () ))
            [ 1; 30_000; 100_000 ]))
    [ "raytrace"; "dedup"; "pbzip2" ]

(* ------------------------------------------------------------------ *)
(* serve: split decode/apply = inline feed_batch_frame *)

let test_session_pipelined_feed () =
  let bodies =
    (* several blocks so location interning crosses frames *)
    let enc = Trace_format_v2.block_encoder () in
    List.map
      (fun events -> Trace_format_v2.encode_body enc (Batch.of_events events))
      [
        Test_trace_v2.sample_events;
        Test_trace_v2.sample_events;
        [
          Event.Access
            { tid = 0; kind = Write; addr = 0x40; size = 4; loc = "a" };
          Event.Access
            { tid = 1; kind = Write; addr = 0x40; size = 4; loc = "b" };
        ];
      ]
  in
  let inline = Session.open_ ~id:1 ~spec:Spec.dynamic () in
  let split = Session.open_ ~id:2 ~spec:Spec.dynamic () in
  List.iter
    (fun body ->
      let a =
        match Session.feed_batch_frame inline body with
        | Ok ack -> ack
        | Error e -> Alcotest.failf "inline feed failed: %s" (Error.to_string e)
      in
      let b =
        match Session.decode_batch_frame split body with
        | Error e -> Alcotest.failf "decode failed: %s" (Error.to_string e)
        | Ok batch -> (
          match Session.apply_decoded split batch with
          | Ok ack -> ack
          | Error e ->
            Alcotest.failf "apply failed: %s" (Error.to_string e))
      in
      Alcotest.(check int) "ack events" a.Session.ack_events b.Session.ack_events;
      Alcotest.(check (list report)) "ack races" a.Session.new_races
        b.Session.new_races)
    bodies;
  match (Session.finalize inline, Session.finalize split) with
  | Ok a, Ok b -> check_equivalent ~ctx:"session pipelined" a b
  | _ -> Alcotest.fail "finalize failed"

let test_session_decode_error_poisons_in_order () =
  let t = Session.open_ ~id:3 ~spec:Spec.dynamic () in
  match Session.decode_batch_frame t "\xff\xff\xff garbage" with
  | Ok _ -> Alcotest.fail "garbage decoded"
  | Error e -> (
    (match Session.poison_decoded t e with
     | Ok _ -> Alcotest.fail "poison_decoded returned Ok"
     | Error _ -> ());
    match Session.state t with
    | `Poisoned _ -> ()
    | _ -> Alcotest.fail "session not poisoned")

(* ------------------------------------------------------------------ *)
(* qcheck laws (fixed seed in CI via QCHECK_SEED) *)

let arb_events = QCheck.small_list Test_trace.arb_event

let with_v2 events f =
  let v2 = tmp_file () in
  let (), _ = Trace_format_v2.to_file v2 (fun sink -> List.iter sink events) in
  Fun.protect ~finally:(fun () -> Sys.remove v2) (fun () -> f v2)

(* The batch fast paths against the per-event [on_event] reference:
   the dynamic detector and its word instance, and the standalone
   FastTrack at a sub-page and a super-page granularity, so both
   detectors' [process_batch] are covered. *)
let qcheck_batched_law =
  QCheck.Test.make
    ~name:
      "pipeline: batched = per-event (dynamic+word+ft:8+ft:8192 x intern x \
       shards)"
    ~count:25 arb_events (fun events ->
      with_v2 events (fun v2 ->
          List.for_all
            (fun spec ->
              List.for_all
                (fun vc_intern ->
                  let base =
                    Engine.replay ~vc_intern ~spec (List.to_seq events)
                  in
                  let batched =
                    Engine.replay_batches ~vc_intern ~spec (fold_feed v2)
                  in
                  equivalent base batched
                  && List.for_all
                       (fun shards ->
                         let sh =
                           Engine.replay_sharded ~vc_intern ~shards ~spec
                             (List.to_seq events)
                         in
                         equivalent base sh)
                       [ 1; 4 ])
                [ true; false ])
            [
              Spec.dynamic;
              Spec.word;
              Spec.Fasttrack { granularity = 8 };
              Spec.Fasttrack { granularity = 8192 };
            ]))

let qcheck_pipelined_identical =
  QCheck.Test.make ~name:"pipeline: pipelined replay = sequential batched"
    ~count:25 arb_events (fun events ->
      with_v2 events (fun v2 ->
          List.for_all
            (fun spec ->
              let seq = Engine.replay_batches ~spec (fold_feed v2) in
              let pipe = Engine.replay_pipelined ~spec v2 in
              let sharded = Engine.replay_sharded_pipelined ~shards:4 ~spec v2 in
              equivalent seq pipe && equivalent seq sharded)
            [ Spec.dynamic; Spec.word ]))

let suites : unit Alcotest.test list =
  [
    ( "pipeline.ring",
      [
        Alcotest.test_case "fifo + clean close" `Quick test_ring_fifo;
        Alcotest.test_case "error only after drain" `Quick
          test_ring_error_after_drain;
        Alcotest.test_case "abort unblocks producer" `Quick
          test_ring_abort_unblocks;
      ] );
    ( "pipeline.feed",
      [
        Alcotest.test_case "rows match sequential reader" `Quick
          test_feed_matches_fold;
        Alcotest.test_case "truncate at every offset" `Quick
          test_truncate_every_offset_pipelined;
      ] );
    ( "pipeline.engine",
      List.map
        (fun name ->
          Alcotest.test_case ("corpus differential: " ^ name) `Quick
            (diff_corpus name))
        corpus_names
      @ [
          Alcotest.test_case "corrupt corpus error identity" `Quick
            test_corrupt_corpus_error_identity;
          Alcotest.test_case "budget stop identity" `Quick
            test_budget_stop_identity;
          Alcotest.test_case "sharded replan only on a straddle" `Quick
            test_sharded_replan;
          Alcotest.test_case "sharded runs on K domains" `Quick
            test_sharded_domain_count;
          QCheck_alcotest.to_alcotest qcheck_batched_law;
          QCheck_alcotest.to_alcotest qcheck_pipelined_identical;
        ] );
    ( "pipeline.serve",
      [
        Alcotest.test_case "split decode/apply = inline" `Quick
          test_session_pipelined_feed;
        Alcotest.test_case "decode error poisons in order" `Quick
          test_session_decode_error_poisons_in_order;
      ] );
  ]
