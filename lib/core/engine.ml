open Dgrace_events
open Dgrace_detectors
open Dgrace_shadow
open Dgrace_sim
module Json = Dgrace_obs.Json
module Metrics = Dgrace_obs.Metrics
module Sampler = Dgrace_obs.Sampler
module Recorder = Dgrace_obs.Recorder
module Span = Dgrace_obs.Span
module State_matrix = Dgrace_obs.State_matrix
module Export = Dgrace_obs.Export
module Budget = Dgrace_resilience.Budget
module Error = Dgrace_resilience.Error
module Trace_pipeline = Dgrace_trace.Trace_pipeline

type summary = {
  detector : string;
  races : Report.t list;
  race_count : int;
  suppressed : int;
  stats : Run_stats.t;
  mem : mem_summary;
  elapsed : float;
  sim : Sim.result option;
  partial : Budget.stop option;
  degraded : bool;
  metrics : Metrics.t;
  transitions : State_matrix.t option;
  timeseries : Recorder.t option;
}

and mem_summary = {
  peak_bytes : int;
  peak_hash_bytes : int;
  peak_vc_bytes : int;
  peak_bitmap_bytes : int;
  peak_interned_bytes : int;
  peak_vcs : int;
  total_vcs : int;
  avg_sharing : float;
}

let mem_of_account a =
  {
    peak_bytes = Accounting.peak_bytes a;
    peak_hash_bytes = Accounting.peak_hash_bytes a;
    peak_vc_bytes = Accounting.peak_vc_bytes a;
    peak_bitmap_bytes = Accounting.peak_bitmap_bytes a;
    peak_interned_bytes = Accounting.peak_interned_bytes a;
    peak_vcs = Accounting.peak_vcs a;
    total_vcs = Accounting.total_vcs_created a;
    avg_sharing = Accounting.avg_sharing a;
  }

let summarize (d : Detector.t) ~elapsed ~sim ~partial ~degraded ~timeseries =
  {
    detector = d.name;
    races = Detector.races d;
    race_count = Detector.race_count d;
    suppressed = Report.Collector.suppressed d.collector;
    stats = d.stats;
    mem = mem_of_account d.account;
    elapsed;
    sim;
    partial;
    degraded;
    metrics = d.metrics;
    transitions = d.transitions;
    timeseries;
  }

(* The memory-over-time sources of the paper's Table 2/3 quantities,
   read live from the detector's accounting on each sample. *)
let sampler_sources (d : Detector.t) =
  [
    ("hash_bytes", fun () -> Accounting.hash_bytes d.account);
    ("vc_bytes", fun () -> Accounting.vc_bytes d.account);
    ("bitmap_bytes", fun () -> Accounting.bitmap_bytes d.account);
    ("total_bytes", fun () -> Accounting.current_bytes d.account);
    ("live_vcs", fun () -> Accounting.live_vcs d.account);
    ("accesses", fun () -> d.stats.Run_stats.accesses);
    ("races", fun () -> Report.Collector.count d.collector);
  ]

(* Accumulate pushed events into one reused batch and hand full
   batches to the detector's [process_batch] — the batched shape of a
   push-style source (the simulator, a v1 event sequence).  [off] is
   the running event index: the same monotone order key the shard
   splitter and the v2 decoder use. *)
let batching_sink pb =
  let batch = Batch.create () in
  let n = ref 0 in
  let sink ev =
    Batch.push batch ~off:!n ev;
    incr n;
    if Batch.is_full batch then begin
      pb batch;
      Batch.clear batch
    end
  in
  let flush () =
    if Batch.length batch > 0 then begin
      pb batch;
      Batch.clear batch
    end
  in
  (sink, flush)

(* The flight recorder exists when the caller wants a sampled
   time-series ([sample_every], i.e. [--metrics-out]) or a trace
   (counter tracks need wall-clock-stamped samples); it only reaches
   the summary in the first case, keeping [timeseries]'s presence
   keyed to [sample_every] as it always was. *)
let make_recorder (d : Detector.t) ~sample_every ~tracer =
  match (sample_every, tracer) with
  | Some every, _ ->
    Some (Recorder.create ~every ~sources:(sampler_sources d) ())
  | None, Some _ ->
    Some (Recorder.create ~every:1024 ~sources:(sampler_sources d) ())
  | None, None -> None

let feed_counter_tracks ~tracer ~prefix recorder =
  match (tracer, recorder) with
  | Some t, Some r ->
    List.iter
      (fun (nm, series) -> Span.add_counter_series t ~name:(prefix ^ "." ^ nm) series)
      (Recorder.counter_series r)
  | (Some _ | None), _ -> ()

(* Policy time (budget deadlines) reads the caller's clock source so a
   mock clock drives it in tests; [elapsed] in the summary follows the
   same source, which is the real wall clock by default. *)
let seconds_of clock =
  fun () -> float_of_int (clock ()) *. 1e-9

(* The CLI heartbeat [(every, f)]: [f n] after every [every]th event. *)
let heartbeat (every, f) =
  let n = ref 0 in
  fun () ->
    incr n;
    if !n mod every = 0 then f !n

let detector ?suppression ?vc_intern ~tracer spec =
  Spec.to_detector ?suppression ?vc_intern ?tracer:(Option.map Span.main tracer)
    spec

(* What a sequential run consumes: pushed events (the simulator, an
   event sequence) or pushed batches (decoded v2 blocks, a pipeline). *)
type source =
  | Events of ((Event.t -> unit) -> Sim.result option)
  | Batches of ((Batch.t -> unit) -> unit)

(* The one sequential driver.  Events and batches go through the
   governed path ({!Governed}): the budget guard, recorder, heartbeat
   and tracing lane compose into one per-event sink, and the batch
   kernel runs only when none of them is in play.  A batched run that
   unrolls to the per-event loop counts on [engine.batch_fallback]:
   once per run for pushed events ([batched] only), once per unrolled
   batch for a batch source.  A budget stop unwinds the source
   ([Sim.run]'s suspended threads are simply collected by the GC) and
   becomes the summary's [partial]; [span] names the run's span on the
   main lane. *)
let drive ~span ?(batched = false) ?(budget = Budget.unlimited)
    ?(clock = Dgrace_obs.Clock.ns) ?sample_every ?progress ?tracer
    (d : Detector.t) source =
  let lane = Option.map Span.main tracer in
  let recorder = make_recorder d ~sample_every ~tracer in
  let now_s = seconds_of clock in
  let t0 = now_s () in
  let degraded = ref false in
  let o =
    {
      Governed.guard =
        Governed.guard
          ?note:(Option.map (fun b () -> Span.instant b "budget.degrade") lane)
          d budget ~degraded ~now_s ~t0 ();
      recorder;
      exact = sample_every <> None;
      progress = Option.map heartbeat progress;
      lane;
    }
  in
  let run () =
    match source with
    | Batches feed ->
      feed (Governed.consumer d o);
      None
    | Events push -> (
      match if batched then Governed.kernel d o else None with
      | Some pb ->
        let sink, flush = batching_sink pb in
        let sim = push sink in
        flush ();
        sim
      | None ->
        if batched then Governed.note_fallback d;
        push (Governed.sink d o))
  in
  (match lane with Some b -> Span.begin_span b span | None -> ());
  let sim, partial =
    match run () with
    | sim -> (sim, None)
    | exception Budget.Stop stop ->
      (match lane with Some b -> Span.instant b "budget.stop" | None -> ());
      (None, Some stop)
  in
  (match lane with Some b -> Span.end_span b span | None -> ());
  (match lane with
   | Some b -> Span.span b "engine.finish" d.finish
   | None -> d.finish ());
  Option.iter Recorder.flush recorder;
  feed_counter_tracks ~tracer ~prefix:d.name recorder;
  let elapsed = now_s () -. t0 in
  let timeseries = match sample_every with Some _ -> recorder | None -> None in
  summarize d ~elapsed ~sim ~partial ~degraded:!degraded ~timeseries

let with_detector ?policy ?batched ?budget ?clock ?sample_every ?progress
    ?tracer d program =
  drive ~span:"engine.run" ?batched ?budget ?clock ?sample_every ?progress
    ?tracer d
    (Events (fun sink -> Some (Sim.run ?policy ~sink program)))

let run ?policy ?batched ?budget ?clock ?suppression ?vc_intern ?sample_every
    ?progress ?tracer ~spec program =
  with_detector ?policy ?batched ?budget ?clock ?sample_every ?progress ?tracer
    (detector ?suppression ?vc_intern ~tracer spec)
    program

let replay ?batched ?budget ?clock ?suppression ?vc_intern ?page_cluster:_
    ?sample_every ?progress ?tracer ~spec events =
  drive ~span:"engine.replay" ?batched ?budget ?clock ?sample_every ?progress
    ?tracer
    (detector ?suppression ?vc_intern ~tracer spec)
    (Events
       (fun sink ->
         Seq.iter sink events;
         None))

(* Batched replay proper: the producer pushes whole {!Batch.t} buffers
   (decoded v2 blocks, pre-split shard batches). *)
let replay_batches ?budget ?clock ?suppression ?vc_intern ?page_cluster:_
    ?sample_every ?progress ?tracer ~spec feed =
  drive ~span:"engine.replay" ?budget ?clock ?sample_every ?progress ?tracer
    (detector ?suppression ?vc_intern ~tracer spec)
    (Batches feed)

(* ------------------------------------------------------------------ *)
(* sharded replay (doc/parallel.md): split the trace by address line,
   replay one detector per shard — one OCaml domain each in [Parallel]
   mode — and merge the per-shard outcomes into one summary that is
   bit-identical to the sequential replay on races, transition counts
   and exit code (test/test_par.ml is the differential proof). *)

module Par = Dgrace_par.Par

let zero_mem =
  {
    peak_bytes = 0;
    peak_hash_bytes = 0;
    peak_vc_bytes = 0;
    peak_bitmap_bytes = 0;
    peak_interned_bytes = 0;
    peak_vcs = 0;
    total_vcs = 0;
    avg_sharing = 0.;
  }

(* Peaks are per-domain observations; their sum is the honest upper
   bound on what the sharded run held live at once (the shards really
   do coexist in [Parallel] mode).  [avg_sharing] is weighted by each
   shard's clock population. *)
let merge_mem ms =
  let m =
    Array.fold_left
      (fun acc m ->
        {
          peak_bytes = acc.peak_bytes + m.peak_bytes;
          peak_hash_bytes = acc.peak_hash_bytes + m.peak_hash_bytes;
          peak_vc_bytes = acc.peak_vc_bytes + m.peak_vc_bytes;
          peak_bitmap_bytes = acc.peak_bitmap_bytes + m.peak_bitmap_bytes;
          peak_interned_bytes = acc.peak_interned_bytes + m.peak_interned_bytes;
          peak_vcs = acc.peak_vcs + m.peak_vcs;
          total_vcs = acc.total_vcs + m.total_vcs;
          avg_sharing =
            acc.avg_sharing +. (m.avg_sharing *. float_of_int m.total_vcs);
        })
      zero_mem ms
  in
  {
    m with
    avg_sharing =
      (if m.total_vcs = 0 then 0. else m.avg_sharing /. float_of_int m.total_vcs);
  }

let merge_sharded ~elapsed ~timeseries (r : Par.result) =
  let outs = r.Par.outcomes in
  let d0 = outs.(0).Par.detector in
  let stats = Run_stats.create () in
  Array.iter
    (fun (o : Par.shard_outcome) ->
      let s = o.Par.detector.Detector.stats in
      stats.Run_stats.accesses <- stats.Run_stats.accesses + s.Run_stats.accesses;
      stats.Run_stats.reads <- stats.Run_stats.reads + s.Run_stats.reads;
      stats.Run_stats.writes <- stats.Run_stats.writes + s.Run_stats.writes;
      stats.Run_stats.same_epoch <-
        stats.Run_stats.same_epoch + s.Run_stats.same_epoch)
    outs;
  (* sync/alloc/free events are broadcast to every shard; summing the
     per-shard counts would multiply them by the shard count, so the
     merged stats take the splitter's global counts instead *)
  stats.Run_stats.sync_ops <- r.Par.plan.Dgrace_trace.Trace_shard.sync_ops;
  stats.Run_stats.allocs <- r.Par.plan.Dgrace_trace.Trace_shard.allocs;
  stats.Run_stats.frees <- r.Par.plan.Dgrace_trace.Trace_shard.frees;
  let metrics = Metrics.create () in
  Array.iter
    (fun (o : Par.shard_outcome) ->
      Metrics.merge_into ~into:metrics o.Par.detector.Detector.metrics)
    outs;
  let usec s = int_of_float (s *. 1e6) in
  Metrics.set (Metrics.gauge metrics "par.shards") (Array.length outs);
  Metrics.set (Metrics.gauge metrics "par.split_us") (usec r.Par.split_s);
  Metrics.set
    (Metrics.gauge metrics "par.critical_path_us")
    (usec r.Par.critical_path_s);
  Metrics.set
    (Metrics.gauge metrics "par.straddling")
    r.Par.plan.Dgrace_trace.Trace_shard.straddling;
  Metrics.set
    (Metrics.gauge metrics "par.super_granules")
    r.Par.plan.Dgrace_trace.Trace_shard.super_granules;
  Array.iter
    (fun (o : Par.shard_outcome) ->
      let pfx = Printf.sprintf "par.shard%d." o.Par.index in
      Metrics.set (Metrics.gauge metrics (pfx ^ "events")) o.Par.events;
      Metrics.set (Metrics.gauge metrics (pfx ^ "busy_us")) (usec o.Par.busy_s))
    outs;
  let transitions =
    match d0.Detector.transitions with
    | None -> None
    | Some m0 ->
      let states =
        Array.init (State_matrix.n_states m0) (State_matrix.state_name m0)
      in
      let acc = State_matrix.create ~states in
      Array.iter
        (fun (o : Par.shard_outcome) ->
          match o.Par.detector.Detector.transitions with
          | Some m -> State_matrix.merge_into ~into:acc m
          | None -> ())
        outs;
      Some acc
  in
  let races = Par.merged_races r in
  {
    detector = d0.Detector.name;
    races;
    race_count = List.length races;
    suppressed =
      Array.fold_left
        (fun acc (o : Par.shard_outcome) ->
          acc + Report.Collector.suppressed o.Par.detector.Detector.collector)
        0 outs;
    stats;
    mem =
      merge_mem
        (Array.map
           (fun (o : Par.shard_outcome) ->
             mem_of_account o.Par.detector.Detector.account)
           outs);
    elapsed;
    sim = None;
    partial = Option.map snd (Par.merged_stop r);
    degraded = Par.any_degraded r;
    metrics;
    transitions;
    timeseries;
  }

let replay_sharded ?mode ?batched ?budget ?(clock = Dgrace_obs.Clock.ns)
    ?suppression ?vc_intern ?sample_every ?progress ?tracer ~shards ~spec
    events =
  if shards < 1 then invalid_arg "Engine.replay_sharded: shards must be >= 1";
  let now_s = seconds_of clock in
  let t0 = now_s () in
  (* materialise first: the splitter needs two passes, and forcing the
     sequence here surfaces corrupt-trace errors before any domain is
     spawned *)
  let events = Array.of_seq events in
  (* shard [i]'s detector traces onto the same lane the shard's own
     spans land on (the [Par.shard_lane] convention) *)
  let make i =
    Spec.to_detector ?suppression ?vc_intern
      ?tracer:(Option.map (fun t -> Span.lane t (Par.shard_lane i)) tracer)
      spec
  in
  let r =
    Par.analyze ?mode ?batched ?budget ~clock ?progress ?tracer
      ~recorder_for:(fun _ d -> make_recorder d ~sample_every ~tracer)
      ~make ~shards ~granule:(Spec.shard_granule spec) events
  in
  Array.iter
    (fun (o : Par.shard_outcome) ->
      feed_counter_tracks ~tracer ~prefix:(Par.shard_lane o.index) o.recorder)
    r.outcomes;
  (* same rule as the sequential entry points: the merged time-series
     reaches the summary only when the caller asked for one *)
  let timeseries =
    match sample_every with
    | Some _ ->
      Recorder.merged_final
        (Array.to_list r.outcomes
        |> List.filter_map (fun (o : Par.shard_outcome) -> o.recorder))
    | None -> None
  in
  merge_sharded ~elapsed:(now_s () -. t0) ~timeseries r

(* ------------------------------------------------------------------ *)
(* pipelined replay (doc/trace.md): decode on its own domain, detect
   here — the decode and detect stages of a v2 file replay overlap
   instead of alternating.  Results are bit-identical to the
   sequential [replay_batches] over [fold_batches]: same batches, same
   row numbering, errors surfacing after the same prefix (the ring
   drains before re-raising), and per-event semantics (budgets,
   recorders, progress, tracing) via the same unrolled sink. *)

let pipeline_gauges metrics (p : Trace_pipeline.stats) =
  let usec ns = ns / 1000 in
  Metrics.set (Metrics.gauge metrics "pipeline.blocks") p.Trace_pipeline.blocks;
  Metrics.set
    (Metrics.gauge metrics "pipeline.decode_stall_us")
    (usec p.Trace_pipeline.decode_stall_ns);
  Metrics.set
    (Metrics.gauge metrics "pipeline.detect_stall_us")
    (usec p.Trace_pipeline.detect_stall_ns);
  Metrics.set
    (Metrics.gauge metrics "pipeline.decode_us")
    (usec p.Trace_pipeline.decode_ns)

let replay_pipelined ?slots ?budget ?(clock = Dgrace_obs.Clock.ns) ?suppression
    ?vc_intern ?page_cluster:_ ?sample_every ?progress ?tracer ~spec path =
  let d = detector ?suppression ?vc_intern ~tracer spec in
  (* the decoder domain lands its block decodes on a "decoder" lane, so
     [racedet timings] shows the decode-vs-detect split side by side *)
  let on_lane b = fun name f -> Span.span b name f in
  let span = Option.map (fun t -> on_lane (Span.lane t "decoder")) tracer in
  let consumer_span = Option.map (fun t -> on_lane (Span.main t)) tracer in
  drive ~span:"engine.replay" ?budget ~clock ?sample_every ?progress ?tracer d
    (Batches
       (fun consume ->
         pipeline_gauges d.metrics
           (Trace_pipeline.feed ?slots ~clock ?span ?consumer_span path consume)))

let replay_sharded_pipelined ?slots ?(clock = Dgrace_obs.Clock.ns) ?suppression
    ?vc_intern ?page_cluster:_ ~shards ~spec path =
  if shards < 1 then
    invalid_arg "Engine.replay_sharded_pipelined: shards must be >= 1";
  let now_s = seconds_of clock in
  let t0 = now_s () in
  let make (_ : int) = Spec.to_detector ?suppression ?vc_intern spec in
  let r, pipe =
    Par.analyze_pipelined ?slots ~clock ~make ~shards
      ~granule:(Spec.shard_granule spec) path
  in
  let s = merge_sharded ~elapsed:(now_s () -. t0) ~timeseries:None r in
  pipeline_gauges s.metrics pipe;
  Metrics.set (Metrics.gauge s.metrics "par.replans") r.Par.replans;
  s

(* ------------------------------------------------------------------ *)
(* checked calls: structured errors instead of exceptions *)

let checked f =
  match f () with
  | s -> Ok s
  | exception Error.E e -> Error e
  | exception Sim.Deadlock { Sim.blocked; held } ->
    Error (Error.Deadlock { blocked; held })

let summarize_detector d ~elapsed ~partial ~degraded =
  summarize d ~elapsed ~sim:None ~partial ~degraded ~timeseries:None

let exit_code_of_summary s =
  if s.partial <> None || s.degraded then Error.exit_partial
  else if s.race_count > 0 then Error.exit_races
  else Error.exit_ok

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>detector: %s@,elapsed: %.3fs@,%a@," s.detector
    s.elapsed Run_stats.pp s.stats;
  Format.fprintf ppf
    "memory: peak=%dB (hash=%d vc=%d bitmap=%d) peak-vcs=%d avg-sharing=%.1f@,"
    s.mem.peak_bytes s.mem.peak_hash_bytes s.mem.peak_vc_bytes
    s.mem.peak_bitmap_bytes s.mem.peak_vcs s.mem.avg_sharing;
  (match s.partial with
   | Some stop ->
     Format.fprintf ppf "status: partial (%s)@," (Budget.stop_to_string stop)
   | None -> ());
  if s.degraded then
    Format.fprintf ppf "status: degraded (shadow state shed under budget)@,";
  Format.fprintf ppf "races: %d (%d suppressed)" s.race_count s.suppressed;
  List.iter (fun r -> Format.fprintf ppf "@,  %a" Report.pp r) s.races;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* structured export (doc/observability.md documents the schema) *)

let stats_to_json (st : Run_stats.t) =
  Json.Obj
    [
      ("accesses", Json.Int st.accesses);
      ("reads", Json.Int st.reads);
      ("writes", Json.Int st.writes);
      ("same_epoch", Json.Int st.same_epoch);
      ("sync_ops", Json.Int st.sync_ops);
      ("allocs", Json.Int st.allocs);
      ("frees", Json.Int st.frees);
    ]

let mem_to_json m =
  Json.Obj
    [
      ("peak_bytes", Json.Int m.peak_bytes);
      ("peak_hash_bytes", Json.Int m.peak_hash_bytes);
      ("peak_vc_bytes", Json.Int m.peak_vc_bytes);
      ("peak_bitmap_bytes", Json.Int m.peak_bitmap_bytes);
      ("peak_interned_bytes", Json.Int m.peak_interned_bytes);
      ("peak_vcs", Json.Int m.peak_vcs);
      ("total_vcs", Json.Int m.total_vcs);
      ("avg_sharing", Json.Float m.avg_sharing);
    ]

(* [with_elapsed:false] is for the top-level "run" document, where v3
   moved the wall clock onto the envelope itself; nested run objects
   (compare's [runs] list) keep it in the body. *)
let summary_body ?workload ?(with_elapsed = true) s =
  List.concat
    [
      [ ("detector", Json.String s.detector) ];
      (match workload with Some w -> [ ("workload", w) ] | None -> []);
      (if with_elapsed then [ ("elapsed_s", Json.Float s.elapsed) ] else []);
      [
        ("races", Json.Int s.race_count);
        ("suppressed", Json.Int s.suppressed);
        ("partial", Json.Bool (s.partial <> None));
        ("degraded", Json.Bool s.degraded);
      ];
      (match s.partial with
       | Some stop -> [ ("stop_reason", Budget.stop_to_json stop) ]
       | None -> []);
      [
        ("stats", stats_to_json s.stats);
        ("memory", mem_to_json s.mem);
        ("metrics", Metrics.to_json s.metrics);
      ];
      (match s.transitions with
       | Some m -> [ ("transitions", State_matrix.to_json m) ]
       | None -> []);
      (match s.timeseries with
       | Some ts -> [ ("timeseries", Recorder.to_json ts) ]
       | None -> []);
      (match s.sim with
       | Some sim ->
         [
           ( "sim",
             Json.Obj
               [
                 ("threads", Json.Int sim.Sim.threads);
                 ("events", Json.Int sim.Sim.events);
                 ("accesses", Json.Int sim.Sim.accesses);
                 ("total_allocated", Json.Int sim.Sim.total_allocated);
               ] );
         ]
       | None -> []);
    ]

let summary_to_json ?workload s =
  Export.envelope ~kind:"run" ~elapsed_s:s.elapsed
    (summary_body ?workload ~with_elapsed:false s)

let summaries_to_json ?workload ?elapsed_s ss =
  Export.envelope ~kind:"compare" ?elapsed_s
    [
      (match workload with Some w -> ("workload", w) | None -> ("workload", Json.Null));
      ("runs", Json.List (List.map (fun s -> Json.Obj (summary_body s)) ss));
    ]
