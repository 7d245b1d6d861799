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
