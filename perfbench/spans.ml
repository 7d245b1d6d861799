(* The benchmark's own spans.  Every call the traced run makes into a
   layer is wrapped here, from outside the library: the span names its
   layer, and a layer's self time is its spans' durations minus the
   part covered by nested spans.  The root span's self time is the
   [unattributed] remainder, so self times always sum to the traced
   wall time.  Spans are mirrored into a {!Dgrace_obs.Span} tracer so
   the run can be exported as a Chrome trace and checked by
   {!Dgrace_obs.Chrome_trace}'s validator. *)

module Span = Dgrace_obs.Span

type frame = { layer : string; mutable child_ns : int }

type t = {
  tracer : Span.t;
  lane : Span.buf;
  mutable stack : frame list;
  self_ns : (string, int) Hashtbl.t;
  mutable wall_ns : int;
}

let unattributed = "unattributed"

let create () =
  let tracer = Span.create () in
  {
    tracer;
    lane = Span.main tracer;
    stack = [];
    self_ns = Hashtbl.create 16;
    wall_ns = 0;
  }

let now_ns = Dgrace_obs.Clock.ns

(* [timed t layer name f] runs [f] inside a span and returns its result
   with the span's duration in seconds. *)
let timed t layer name f =
  let label = layer ^ "." ^ name in
  let fr = { layer; child_ns = 0 } in
  t.stack <- fr :: t.stack;
  Span.begin_span t.lane label;
  let t0 = now_ns () in
  let close () =
    let d = now_ns () - t0 in
    Span.end_span t.lane label;
    t.stack <- List.tl t.stack;
    let self = d - fr.child_ns in
    Hashtbl.replace t.self_ns layer
      (self + Option.value ~default:0 (Hashtbl.find_opt t.self_ns layer));
    (match t.stack with p :: _ -> p.child_ns <- p.child_ns + d | [] -> t.wall_ns <- d);
    float_of_int d /. 1e9
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
    ignore (close ());
    raise e

let span t layer name f = fst (timed t layer name f)

(* The whole traced run: one root span whose self time is the
   unattributed remainder. *)
let root t f = span t unattributed "run" f

let self_s t layer =
  float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.self_ns layer)) /. 1e9

let wall_s t = float_of_int t.wall_ns /. 1e9

(* Export the spans as Chrome trace JSON to [path] and validate the
   document. *)
let export t path =
  let doc = Dgrace_obs.Chrome_trace.to_json t.tracer in
  let oc = open_out_bin path in
  output_string oc (Dgrace_obs.Json.to_string ~minify:true doc);
  close_out oc;
  Dgrace_obs.Chrome_trace.phases doc
