(** Per-run resource budgets and the degrade-don't-die policy.

    A budget bounds what one analysis run may consume: shadow-memory
    bytes, events processed, wall-clock seconds.  The engine checks it
    from the event sink against live {!Dgrace_shadow.Accounting}
    readouts and reacts in two different ways:

    - {b shadow bytes}: the detector is asked to {e degrade} — shed
      memory by coarsening shadow state (see
      [Detector.degrade]) — and the run continues, flagged
      [degraded].  Only when the detector can shed nothing more does
      the run stop.
    - {b events / deadline}: the run stops at the limit and the
      summary is flagged [partial] with the {!stop} reason.

    A stopped or degraded run still reports every race found so far:
    results are a lower bound, never garbage. *)

type t = {
  max_shadow_bytes : int option;
      (** cap on [Accounting.current_bytes] before degradation *)
  max_events : int option;  (** cap on events fed to the detector *)
  deadline_s : float option;  (** wall-clock cap for the run *)
}

val unlimited : t

val make :
  ?max_shadow_bytes:int -> ?max_events:int -> ?deadline_s:float -> unit -> t
(** Omitted dimensions are unlimited.
    @raise Invalid_argument on non-positive limits. *)

val is_unlimited : t -> bool

(** Why a budgeted run ended before end-of-stream. *)
type stop =
  | Max_events of { limit : int }
  | Deadline of { limit_s : float; elapsed_s : float }
  | Shadow_bytes of { limit : int; bytes : int }
      (** over the shadow budget with degradation exhausted *)

val stop_to_string : stop -> string
val stop_to_json : stop -> Dgrace_obs.Json.t

val stop_to_error : stop -> Error.t
(** The {!Error.Budget_exhausted} form, for [Engine.checked]. *)

exception Stop of stop
(** Raised by a {!guard}; the loop that installed the guard catches it
    and turns it into the [partial] field of its summary. *)

val guard :
  ?note:(unit -> unit) ->
  t ->
  live_bytes:(unit -> int) ->
  degrade:(unit -> bool) ->
  degraded:bool ref ->
  now_s:(unit -> float) ->
  ?t0:float ->
  unit ->
  (unit -> unit) option
(** The one budget check, called once after each delivered event; [None]
    for an unlimited budget, so an unbudgeted loop pays nothing.  It
    counts events itself, so one guard governs one stream: one run,
    one shard or one serve session.

    - Past [max_events] events it raises [Stop (Max_events _)].
    - While [live_bytes ()] exceeds [max_shadow_bytes] it calls
      [degrade] (one shedding step), sets [degraded] and calls [note]
      (a trace instant) after each successful step, and raises
      [Stop (Shadow_bytes _)] once [degrade] returns [false] with the
      bytes still over.
    - Every 256th event it reads [now_s] and raises [Stop (Deadline _)]
      when more than [deadline_s] seconds passed since [t0] (default:
      [now_s ()] when the guard is built, read only for a limited
      budget). *)
