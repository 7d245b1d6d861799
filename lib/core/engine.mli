(** The analysis engine: run a simulated program (or a recorded event
    stream) under a detector and collect everything the evaluation
    needs — races, stream statistics, shadow-memory accounting,
    wall-clock time, and (on request) a sampled time-series plus the
    detector's own telemetry.

    This is the main entry point of the library:

    {[
      let summary =
        Engine.run ~spec:Spec.dynamic (fun () ->
          let a = Sim.malloc 64 in
          let t = Sim.spawn (fun () -> Sim.write a 4) in
          Sim.write a 4;
          Sim.join t)
      in
      List.iter (fun r -> print_endline (Report.to_string r)) summary.races
    ]}

    {b Resource budgets.}  Every entry point except
    {!replay_sharded_pipelined} takes an optional
    {!Dgrace_resilience.Budget.t} ([racedet replay] sends a budgeted
    sharded run to {!replay_sharded} instead).  One guard
    ({!Dgrace_resilience.Budget.guard}) enforces it on every path, per
    run or, when sharded, per shard.  Exceeding the shadow-memory cap
    first asks the detector to degrade (shed shadow state; the summary
    is flagged [degraded]); exceeding the event or wall-clock cap —
    or the shadow cap once degradation is exhausted — ends the run
    early with [partial = Some reason].  A partial or degraded summary
    still reports every race found: results are a lower bound, never
    garbage.  See [doc/resilience.md].

    {b Clocks.}  Every entry point also takes an optional
    [clock : Dgrace_obs.Clock.source].  The budget's deadline check and
    the summary's [elapsed] field read it instead of the wall clock, so
    deadline behaviour is deterministic under {!Dgrace_obs.Clock.ticker}
    in tests; the default is {!Dgrace_obs.Clock.ns}. *)

open Dgrace_events
open Dgrace_detectors
open Dgrace_sim

type summary = {
  detector : string;  (** detector name *)
  races : Report.t list;  (** distinct-location races, detection order *)
  race_count : int;
  suppressed : int;  (** reports dropped by suppression rules *)
  stats : Run_stats.t;
  mem : mem_summary;
  elapsed : float;  (** wall-clock seconds for the instrumented run *)
  sim : Sim.result option;
      (** simulator result (None for replays and budget-stopped runs) *)
  partial : Dgrace_resilience.Budget.stop option;
      (** why the run ended before end-of-stream, if it did *)
  degraded : bool;
      (** the detector shed shadow state to stay under its budget *)
  metrics : Dgrace_obs.Metrics.t;  (** the detector's instruments *)
  transitions : Dgrace_obs.State_matrix.t option;
      (** sharing-state transition counts (dynamic detectors) *)
  timeseries : Dgrace_obs.Recorder.t option;
      (** wall-clock-stamped memory/stream samples, present iff
          [sample_every] was given *)
}

and mem_summary = {
  peak_bytes : int;  (** peak of hash + vector clock + bitmap bytes *)
  peak_hash_bytes : int;
  peak_vc_bytes : int;
  peak_bitmap_bytes : int;
  peak_interned_bytes : int;
      (** the deduplicated (hash-consed snapshot) portion of
          [peak_vc_bytes] — an annotation, not a fourth factor of
          [peak_bytes] *)
  peak_vcs : int;  (** max vector clocks simultaneously live *)
  total_vcs : int;  (** vector clocks ever created *)
  avg_sharing : float;  (** average bytes sharing one vector clock *)
}

val run :
  ?policy:Scheduler.policy ->
  ?batched:bool ->
  ?budget:Dgrace_resilience.Budget.t ->
  ?clock:Dgrace_obs.Clock.source ->
  ?suppression:Suppression.t ->
  ?vc_intern:bool ->
  ?sample_every:int ->
  ?progress:int * (int -> unit) ->
  ?tracer:Dgrace_obs.Span.t ->
  spec:Spec.t ->
  (unit -> unit) ->
  summary
(** Execute the program under the simulator, feeding every event to a
    fresh detector built from [spec].

    [batched] (default [false]) accumulates the pushed events into
    {!Dgrace_events.Batch.t} buffers and hands full batches to the
    detector's [process_batch] fast path.  It engages only when the
    detector has one {e and} nothing per-event is observable — no
    budget, [sample_every], [progress] or [tracer] — so results are
    always identical to the per-event loop (doc/trace.md).

    [sample_every] snapshots shadow-memory accounting and stream
    counters every N events into [summary.timeseries] (a final sample
    is always taken at end of stream).  [progress] is [(every, f)]:
    [f events] is called every [every] events — the CLI heartbeat;
    [every] must be positive (the CLI argument parser enforces this).

    [tracer] turns on the flight recorder (doc/observability.md): the
    run phase becomes an ["engine.run"] span on the ["main"] lane,
    [d.finish] an ["engine.finish"] span, budget shedding and stops
    ["budget.degrade"]/["budget.stop"] instants; the detector's
    per-phase sampled timers and a ["detector.on_event"] timer land on
    the same lane, and the recorder's series are attached as counter
    tracks — export with {!Dgrace_obs.Chrome_trace.to_json}.

    When nothing is given the event loop is exactly the detector's own
    handler: observability and governance cost nothing unless asked
    for.

    @raise Sim.Deadlock when the workload globally deadlocks
    (see {!checked} for the [result] form). *)

val replay :
  ?batched:bool ->
  ?budget:Dgrace_resilience.Budget.t ->
  ?clock:Dgrace_obs.Clock.source ->
  ?suppression:Suppression.t ->
  ?vc_intern:bool ->
  ?page_cluster:bool ->
  ?sample_every:int ->
  ?progress:int * (int -> unit) ->
  ?tracer:Dgrace_obs.Span.t ->
  spec:Spec.t ->
  Event.t Seq.t ->
  summary
(** Analyse a pre-recorded event stream (see {!Dgrace_trace}).
    [batched] works as in {!run}; [tracer] works as in {!run}, with
    the dispatch phase recorded as an ["engine.replay"] span.
    [page_cluster] is accepted and ignored here and in
    {!replay_batches}, {!replay_pipelined} and
    {!replay_sharded_pipelined}: batches always apply in row order.
    The label remains only so that callers written against the earlier
    signature (the perfbench harness) still compile.
    @raise Dgrace_resilience.Error.E when forcing the sequence hits a
    corrupt record (see {!checked} for the [result] form). *)

val replay_batches :
  ?budget:Dgrace_resilience.Budget.t ->
  ?clock:Dgrace_obs.Clock.source ->
  ?suppression:Suppression.t ->
  ?vc_intern:bool ->
  ?page_cluster:bool ->
  ?sample_every:int ->
  ?progress:int * (int -> unit) ->
  ?tracer:Dgrace_obs.Span.t ->
  spec:Spec.t ->
  ((Batch.t -> unit) -> unit) ->
  summary
(** Batched replay proper: [replay_batches ~spec feed] calls
    [feed consume] and expects the producer to push whole
    {!Dgrace_events.Batch.t} buffers — decoded v2 blocks
    ({!Dgrace_trace.Trace_format_v2.fold_batches}) or pre-packed
    arrays.  An eligible detector consumes them via [process_batch];
    under any budget, [sample_every], [progress] or [tracer], or for a
    detector without the fast path, each batch is unrolled through the
    same composed per-event sink as {!replay}, so those semantics are
    preserved exactly.  Budget stops raised while the producer runs
    are converted to [partial] as usual; errors the producer raises
    (e.g. a corrupt v2 block) propagate.  [page_cluster] is ignored
    (see {!replay}).
    @raise Dgrace_resilience.Error.E on corrupt input (see
    {!checked}). *)

val replay_sharded :
  ?mode:Dgrace_par.Par.mode ->
  ?batched:bool ->
  ?budget:Dgrace_resilience.Budget.t ->
  ?clock:Dgrace_obs.Clock.source ->
  ?suppression:Suppression.t ->
  ?vc_intern:bool ->
  ?sample_every:int ->
  ?progress:int * (int -> unit) ->
  ?tracer:Dgrace_obs.Span.t ->
  shards:int ->
  spec:Spec.t ->
  Event.t Seq.t ->
  summary
(** Sharded parallel replay (doc/parallel.md): the stream is
    partitioned by hashed {!Dynamic_granularity.share_granule}-sized
    address line — sync events broadcast — and each shard replays on a
    fresh detector, one OCaml domain per shard in the default
    [Parallel] mode.  The merged summary is deterministic and
    bit-identical to {!replay} on races (stable-sorted by trace
    offset), transition counts and exit code; [test/test_par.ml]
    asserts this for every bundled workload.  [batched] (default
    [true]) lets each shard consume its stream as struct-of-arrays
    batches when its detector has a [process_batch] fast path and
    nothing per-event is requested (see {!Dgrace_par.Par.analyze});
    races are bit-identical either way.  Differences from
    {!replay}: [budget] applies {e per shard} (the merged [partial] is
    the earliest shard stop), [sample_every] attaches one flight
    recorder per shard and merges their {e final} samples into the
    summary time-series (element-wise sum — intermediate samples do
    not line up across shards), memory peaks are summed across shards,
    and the merged metrics gain [par.*] gauges (shard count, split and
    critical-path times, straddling-access and super-granule counts
    from the splitter, per-shard event/busy figures).  [tracer] adds
    one timeline lane per shard plus the main lane's split/join
    markers (see {!Dgrace_par.Par.analyze}) and per-shard counter
    tracks.
    @raise Dgrace_resilience.Error.E when materialising the sequence
    hits a corrupt record.
    @raise Invalid_argument when [shards < 1]. *)

val replay_pipelined :
  ?slots:int ->
  ?budget:Dgrace_resilience.Budget.t ->
  ?clock:Dgrace_obs.Clock.source ->
  ?suppression:Suppression.t ->
  ?vc_intern:bool ->
  ?page_cluster:bool ->
  ?sample_every:int ->
  ?progress:int * (int -> unit) ->
  ?tracer:Dgrace_obs.Span.t ->
  spec:Spec.t ->
  string ->
  summary
(** Pipelined replay of a trace-v2 file (doc/trace.md): a dedicated
    decoder domain streams blocks into a bounded ring of [slots]
    recycled batches ({!Dgrace_trace.Trace_pipeline}) while the
    calling domain detects — decode and detect overlap instead of
    alternating.  Results are bit-identical to
    [replay_batches ~spec (fold_batches path)]: same batches and row
    numbering; a [Corrupt_trace] surfaces at the same absolute offset
    after the same prefix was analysed (the ring drains before
    re-raising); budgets, [sample_every], [progress] and [tracer]
    force the same per-event unrolled sink, with decode still
    overlapped.  On completion the summary metrics gain the
    [pipeline.blocks] / [pipeline.decode_stall_us] /
    [pipeline.detect_stall_us] / [pipeline.decode_us] gauges (stall
    time is measured on [clock]); with a [tracer], block decodes land
    on a ["decoder"] lane so [racedet timings] shows the
    decode-vs-detect split.  [page_cluster] is ignored (see
    {!replay}).
    @raise Dgrace_resilience.Error.E on corrupt input (see
    {!checked}). *)

val replay_sharded_pipelined :
  ?slots:int ->
  ?clock:Dgrace_obs.Clock.source ->
  ?suppression:Suppression.t ->
  ?vc_intern:bool ->
  ?page_cluster:bool ->
  shards:int ->
  spec:Spec.t ->
  string ->
  summary
(** Pipelined {e sharded} replay of a trace-v2 file on exactly
    [shards] domains ({!Dgrace_par.Par.analyze_pipelined}): the
    calling domain decodes, plans and routes each block and runs shard
    0's detector, and [shards - 1] spawned domains each drain one
    bounded ring.  The planner prepass runs only when a row straddles
    a line: that pass is abandoned, the whole file is planned, and the
    rows are routed again ([par.replans] = 1).  The merged summary is
    bit-identical to {!replay_sharded} on races, stats, transitions
    and exit code, and a [Corrupt_trace] carries the sequential
    offset.  It gains [pipeline.*] gauges on top of the [par.*] ones:
    [pipeline.blocks] routed, [pipeline.decode_us] the caller's
    decode + route time, [pipeline.decode_stall_us] the caller blocked
    on full shard rings, [pipeline.detect_stall_us] the shards'
    summed wait on empty ones.  Per-event machinery (budget,
    recorder, progress, tracer) is not offered on this path — callers
    needing it use {!replay_sharded}.
    [page_cluster] is ignored (see {!replay}).
    @raise Dgrace_resilience.Error.E on corrupt input.
    @raise Invalid_argument when [shards < 1]. *)

val with_detector :
  ?policy:Scheduler.policy ->
  ?batched:bool ->
  ?budget:Dgrace_resilience.Budget.t ->
  ?clock:Dgrace_obs.Clock.source ->
  ?sample_every:int ->
  ?progress:int * (int -> unit) ->
  ?tracer:Dgrace_obs.Span.t ->
  Detector.t ->
  (unit -> unit) ->
  summary
(** Like {!run} for an externally constructed detector.  (The
    detector's own phase timers are wired at construction — see
    {!Spec.to_detector}; [tracer] here records the engine-level spans
    and counter tracks.) *)

val checked : (unit -> 'a) -> ('a, Dgrace_resilience.Error.t) result
(** [checked (fun () -> replay ~spec events)] runs any entry point
    above with every anticipated failure — deadlocked workload
    ({!Sim.Deadlock}), corrupt trace, exhausted budget raised as an
    error by a lower layer ({!Dgrace_resilience.Error.E}) — returned
    as a structured {!Dgrace_resilience.Error.t} instead of an
    exception.  Budget stops are {e not} errors here: they produce
    [Ok summary] with [partial] set. *)

val summarize_detector :
  Detector.t ->
  elapsed:float ->
  partial:Dgrace_resilience.Budget.stop option ->
  degraded:bool ->
  summary
(** Package a finished detector (after [d.finish ()]) as a {!summary} —
    the hook the incremental session layer ([Dgrace_serve.Session])
    uses to report exactly the same document as a one-shot run,
    including the partial/degraded contract. *)

val exit_code_of_summary : summary -> int
(** The documented exit-code contract applied to a completed run:
    {!Dgrace_resilience.Error.exit_partial} when partial or degraded,
    {!Dgrace_resilience.Error.exit_races} when races were found,
    {!Dgrace_resilience.Error.exit_ok} otherwise. *)

val pp_summary : Format.formatter -> summary -> unit
(** Multi-line human-readable rendering (includes [status:] lines for
    partial/degraded runs). *)

(** {1 Structured export}

    Versioned machine-readable documents (see {!Dgrace_obs.Export} and
    [doc/observability.md]). *)

val summary_to_json : ?workload:Dgrace_obs.Json.t -> summary -> Dgrace_obs.Json.t
(** One run as a [kind = "run"] envelope: summary, stats, memory
    peaks, metrics, partial/degraded flags (plus [stop_reason] when
    partial), and — when present — transition matrix and time-series.
    Since schema v3 the wall clock is the envelope's own ["elapsed_s"]
    field. *)

val summaries_to_json :
  ?workload:Dgrace_obs.Json.t ->
  ?elapsed_s:float ->
  summary list ->
  Dgrace_obs.Json.t
(** Several runs of the same workload as a [kind = "compare"]
    envelope; [elapsed_s] (total wall clock for the whole comparison)
    goes on the envelope, while each nested run object keeps its own
    ["elapsed_s"]. *)
