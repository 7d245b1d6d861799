(** The governed event path every analysis loop shares.

    One run, one shard or one serve session feeds its detector through
    this module: {!sink} composes the detector with the budget guard,
    the flight recorder, the progress heartbeat and the sampled
    tracing dispatch, and {!kernel} is the rule that decides when a
    whole {!Dgrace_events.Batch.t} may go to [process_batch] instead.
    The sequential engine, the shard loops of [Dgrace_par] and the
    serve sessions all call it, so a budget, a tracer or a recorder
    behaves the same on every plan. *)

open Dgrace_events

type observers = {
  guard : (unit -> unit) option;
      (** the stream's budget check ({!guard}), run after each event *)
  recorder : Dgrace_obs.Recorder.t option;
  exact : bool;
      (** the recorder's samples are output and it must tick once per
          event; otherwise a traced sink may batch-tick it *)
  progress : (unit -> unit) option;  (** per-event heartbeat hook *)
  lane : Dgrace_obs.Span.buf option;  (** the tracing lane *)
}

val unobserved : observers
(** Nothing observed: {!sink} is [on_event] itself. *)

val observed : observers -> bool
(** Anything per-event is in play: a guard, recorder, heartbeat or
    lane. *)

val guard :
  ?note:(unit -> unit) ->
  Detector.t ->
  Dgrace_resilience.Budget.t ->
  degraded:bool ref ->
  now_s:(unit -> float) ->
  ?t0:float ->
  unit ->
  (unit -> unit) option
(** {!Dgrace_resilience.Budget.guard} over the detector's live shadow
    bytes and its [degrade] step (a detector without one cannot shed,
    so a breached shadow cap stops it). *)

val sink : Detector.t -> observers -> Event.t -> unit
(** The per-event sink: [on_event], then the guard, a recorder tick
    and the heartbeat; under a lane, [on_event] runs through
    {!Dgrace_obs.Span.wrap_dispatch}.  Built once per stream, it is
    [on_event] itself when nothing is observed. *)

val kernel : Detector.t -> observers -> (Batch.t -> unit) option
(** The fast-path rule: the detector's [process_batch] when it has one
    and nothing is {!observed}, so the batch path can never change
    what an observer sees. *)

val note_fallback : Detector.t -> unit
(** Count one unrolled run or batch on the detector's
    [engine.batch_fallback] counter, so a batched run that lost its
    fast path shows it instead of just running slower. *)

val consumer : Detector.t -> observers -> Batch.t -> unit
(** A batch consumer: the {!kernel} when it applies, else each batch
    is counted with {!note_fallback} and unrolled through {!sink}. *)
