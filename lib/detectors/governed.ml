open Dgrace_events
module Budget = Dgrace_resilience.Budget
module Metrics = Dgrace_obs.Metrics
module Recorder = Dgrace_obs.Recorder
module Span = Dgrace_obs.Span

type observers = {
  guard : (unit -> unit) option;
  recorder : Recorder.t option;
  exact : bool;
  progress : (unit -> unit) option;
  lane : Span.buf option;
}

let unobserved =
  { guard = None; recorder = None; exact = false; progress = None; lane = None }

let observed o =
  Option.is_some o.guard || Option.is_some o.recorder
  || Option.is_some o.progress || Option.is_some o.lane

let guard ?note (d : Detector.t) b ~degraded ~now_s ?t0 () =
  Budget.guard ?note b
    ~live_bytes:(fun () -> Dgrace_shadow.Accounting.current_bytes d.account)
    ~degrade:(match d.degrade with Some step -> step | None -> fun () -> false)
    ~degraded ~now_s ?t0 ()

let dispatch_stride = 64

(* When nothing is observed the sink is the detector's own handler and
   the event loop pays nothing.  A traced sink samples one event in
   [dispatch_stride]: only that event is dispatched with the lane armed
   (timing the dispatch and letting the detector's gated phase timers
   run), so the other events pay one counter and one branch.  An exact
   recorder is ticked once per event; one that only feeds counter
   tracks is batch-ticked on sampled events. *)
let sink (d : Detector.t) o =
  match o with
  | { guard = None; recorder = None; progress = None; lane = None; _ } ->
    d.on_event
  | { guard = None; progress = None; lane = Some buf; exact = false; recorder }
    ->
    (* the trace-only shape: the whole loop is the dispatch wrapper *)
    let on_sample =
      match recorder with
      | Some r -> fun () -> Recorder.tick_n r dispatch_stride
      | None -> fun () -> ()
    in
    Span.wrap_dispatch buf ~name:"detector.on_event" ~stride:dispatch_stride
      ~on_sample d.on_event
  | { guard; recorder; progress; lane; _ } ->
    let on_event =
      match lane with
      | None -> d.on_event
      | Some buf ->
        Span.wrap_dispatch buf ~name:"detector.on_event"
          ~stride:dispatch_stride
          ~on_sample:(fun () -> ())
          d.on_event
    in
    fun ev ->
      on_event ev;
      (match guard with Some g -> g () | None -> ());
      (match recorder with Some r -> Recorder.tick r | None -> ());
      match progress with Some p -> p () | None -> ()

let note_fallback (d : Detector.t) =
  Metrics.incr (Metrics.counter d.metrics "engine.batch_fallback")

let kernel (d : Detector.t) o = if observed o then None else d.process_batch

let consumer d o =
  match kernel d o with
  | Some pb -> pb
  | None ->
    let sink = sink d o in
    fun b ->
      note_fallback d;
      Batch.iter_events sink b
