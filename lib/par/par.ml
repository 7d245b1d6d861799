open Dgrace_events
open Dgrace_detectors
module Budget = Dgrace_resilience.Budget
module Trace_shard = Dgrace_trace.Trace_shard
module Span = Dgrace_obs.Span
module Recorder = Dgrace_obs.Recorder

type mode = Parallel | Sequential

(* The tracing-lane naming convention shared with the engine: shard
   [i] records on lane ["shard<i>"], so a detector built with that
   lane as its tracer lands its phase timers beside the shard's own
   spans. *)
let shard_lane = Printf.sprintf "shard%d"

type shard_outcome = {
  index : int;
  detector : Detector.t;
  tagged_races : (int * Report.t) list;
  stop : (int * Budget.stop) option;
  degraded : bool;
  events : int;
  busy_s : float;
  recorder : Recorder.t option;
}

type result = {
  plan : Trace_shard.t;
  outcomes : shard_outcome array;
  split_s : float;
  critical_path_s : float;
  elapsed_s : float;
  replans : int;
}

(* a finished shard's outcome; [busy_s] runs from [t0] *)
let outcome ?stop ?(degraded = false) ?recorder index (d : Detector.t) ~events
    ~t0 =
  { index; detector = d; tagged_races = Report.Collector.tagged_races d.collector;
    stop; degraded; events; busy_s = Unix.gettimeofday () -. t0; recorder }

let result ?(replans = 0) ~plan ~split_s ~t0 outcomes =
  let critical_path_s =
    Array.fold_left (fun acc o -> Float.max acc o.busy_s) 0. outcomes
  in
  { plan; outcomes; split_s; critical_path_s;
    elapsed_s = Unix.gettimeofday () -. t0; replans }

(* Replay one shard's stream on a fresh detector, tagging every new
   race report with the global trace offset of the event that produced
   it (the collector's tag mechanism: the offset is stamped before
   each dispatch, and batched detectors stamp it per row themselves).
   Events go through the governed sink with the shard's own budget
   guard, recorder (ticked once per event: its merged final sample is
   observable output), heartbeat and lane.

   With [batched] and the batch kernel eligible, the stream is packed
   into struct-of-arrays batches and handed to [process_batch]; the
   packing happens before [busy_s] starts, mirroring how the split
   itself is outside the per-shard analysis time.  A batched shard
   whose detector has no kernel is counted once on
   [engine.batch_fallback]; the merged registry sums them. *)
let run_shard ~batched ~budget ~now_s ~progress ~lane ~recorder_for make
    (stream : (int * Event.t) array) index =
  let d : Detector.t = make index in
  let degraded = ref false in
  let note = Option.map (fun buf () -> Span.instant buf "budget.degrade") lane in
  let o =
    {
      Governed.guard =
        Option.bind budget (fun b ->
            Governed.guard ?note d b ~degraded ~now_s ());
      recorder = recorder_for index d;
      exact = true;
      progress;
      lane;
    }
  in
  let batches =
    Option.map
      (fun pb -> (pb, Trace_shard.batches_of stream))
      (if batched then Governed.kernel d o else None)
  in
  let t0 = Unix.gettimeofday () in
  let delivered = ref 0 in
  let stop = ref None in
  (match batches with
   | Some (pb, batches) ->
     Array.iter
       (fun b ->
         pb b;
         delivered := !delivered + Batch.length b)
       batches
   | None ->
     if batched && not (Governed.observed o) then Governed.note_fallback d;
     let sink = Governed.sink d o in
     (match lane with Some buf -> Span.begin_span buf "shard.run" | None -> ());
     (try
        Array.iter
          (fun (off, ev) ->
            Report.Collector.set_tag d.collector off;
            incr delivered;
            sink ev)
          stream
      with Budget.Stop s ->
        stop := Some (fst stream.(!delivered - 1), s);
        (match lane with
         | Some buf -> Span.instant buf "budget.stop"
         | None -> ()));
     (match lane with Some buf -> Span.end_span buf "shard.run" | None -> ()));
  (match lane with
   | Some buf -> Span.span buf "shard.finish" d.finish
   | None -> d.finish ());
  Option.iter Recorder.flush o.recorder;
  outcome ?stop:!stop ~degraded:!degraded ?recorder:o.recorder index d
    ~events:!delivered ~t0

let analyze ?(mode = Parallel) ?(batched = true) ?budget
    ?(clock = Dgrace_obs.Clock.ns) ?progress ?tracer
    ?(recorder_for = fun _ _ -> None) ~make
    ~shards ~granule events =
  let now_s () = float_of_int (clock ()) *. 1e-9 in
  let t0 = Unix.gettimeofday () in
  let main = Option.map Span.main tracer in
  (match main with Some b -> Span.begin_span b "par.split" | None -> ());
  let plan = Trace_shard.split ~shards ~granule events in
  (match main with
   | Some b ->
     Span.end_span b "par.split";
     if plan.Trace_shard.straddling > 0 then Span.instant b "par.weld"
   | None -> ());
  (* Shard lanes are registered here, on the calling domain, so lane
     order (and the exported timeline layout) is by shard index, not
     by whichever domain wins the registration race. *)
  let lanes =
    match tracer with
    | None -> Array.make shards None
    | Some t -> Array.init shards (fun i -> Some (Span.lane t (shard_lane i)))
  in
  let split_s = Unix.gettimeofday () -. t0 in
  let progress_hook =
    match progress with
    | None -> None
    | Some (every, f) ->
      (* one global heartbeat across all shards: count every delivered
         event atomically and let whichever domain crosses a multiple
         of [every] fire the callback (serialised by a mutex so lines
         do not interleave) *)
      let n = Atomic.make 0 in
      let m = Mutex.create () in
      Some
        (fun () ->
          let v = Atomic.fetch_and_add n 1 + 1 in
          if v mod every = 0 then begin
            Mutex.lock m;
            (try f v with e -> Mutex.unlock m; raise e);
            Mutex.unlock m
          end)
  in
  let run i =
    run_shard ~batched ~budget ~now_s ~progress:progress_hook
      ~lane:lanes.(i) ~recorder_for make plan.shards.(i) i
  in
  let outcomes =
    match mode with
    | Sequential -> Array.init shards run
    | Parallel ->
      let doms =
        Array.init (shards - 1) (fun i -> Domain.spawn (fun () -> run (i + 1)))
      in
      let first = run 0 in
      Array.append [| first |] (Array.map Domain.join doms)
  in
  (match main with Some b -> Span.instant b "par.join" | None -> ());
  result ~plan ~split_s ~t0 outcomes

(* ------------------------------------------------------------------ *)
(* Pipelined sharded replay of a v2 trace file on exactly [shards]
   domains (doc/parallel.md).  Routing a row before the rest of the
   file is planned is exact while no row straddles a line (every line
   is its own root), so the first pass plans as it goes and is
   abandoned at the first straddle; the whole file is then planned and
   the same loop routes again.  Either way routing, broadcast classes
   and row offsets are [split]'s. *)

exception Router_stopped
exception Replan

module Ring = Dgrace_trace.Batch_ring

(* the batch kernel, or the tagged per-event fallback (counted once) *)
let batch_consumer (d : Detector.t) =
  match Governed.kernel d Governed.unobserved with
  | Some pb -> pb
  | None ->
    Governed.note_fallback d;
    fun b ->
      for r = 0 to Batch.length b - 1 do
        Report.Collector.set_tag d.collector b.Batch.off.(r);
        d.on_event (Batch.event b r)
      done

(* one routing pass: outcomes and pipeline stats; [plan] makes it the
   speculative pass *)
let route_pass ~slots ~clock ~make ~k ~plan p path =
  let rings = Array.init (k - 1) (fun _ -> Ring.create ~slots ~clock ()) in
  let drain i ring () =
    let t0 = Unix.gettimeofday () and events = ref 0 in
    match
      let d : Detector.t = make i in
      let apply = batch_consumer d in
      let rec go () =
        match Ring.take ring with
        | None -> d.finish (); d
        | Some b ->
          apply b;
          events := !events + Batch.length b;
          Ring.recycle ring b;
          go ()
      in
      go ()
    with
    | d -> outcome i d ~events:!events ~t0
    | exception exn ->
      (* unblock the router, then let Domain.join surface this *)
      Ring.abort ring;
      raise exn
  in
  let doms = Array.mapi (fun i r -> Domain.spawn (drain (i + 1) r)) rings in
  (* every domain is joined before the first failure is re-raised *)
  let join_all () =
    Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) doms
    |> Array.map (function Ok o -> o | Error e -> raise e)
  in
  let run () =
    let t0 = Unix.gettimeofday () and c0 = clock () in
    let d0 : Detector.t = make 0 in
    let apply0 = batch_consumer d0 in
    let events0 = ref 0 and detect0_ns = ref 0 and blocks = ref 0 in
    let acquire s =
      match Ring.acquire rings.(s - 1) with
      | Some b -> b
      | None -> raise Router_stopped  (* that shard died; join says why *)
    in
    (* one staging batch per shard; shard 0's is applied here *)
    let staging =
      Array.init k (fun s -> if s = 0 then Batch.create () else acquire s)
    in
    let flush s =
      let b = staging.(s) in
      if s = 0 then begin
        let c = clock () in
        apply0 b;
        detect0_ns := !detect0_ns + (clock () - c);
        events0 := !events0 + Batch.length b;
        Batch.clear b
      end
      else begin
        Ring.publish rings.(s - 1) b;
        staging.(s) <- acquire s
      end
    in
    let stage s =
      if Batch.is_full staging.(s) then flush s;
      staging.(s)
    in
    let route () (b : Batch.t) =
      incr blocks;
      if plan then begin
        Trace_shard.plan_batch p b;
        if k > 1 && Trace_shard.straddling p > 0 then raise Replan
      end;
      for i = 0 to Batch.length b - 1 do
        if b.Batch.kind.(i) <= Batch.code_write then
          Batch.copy_row ~src:b i
            ~dst:(stage (Trace_shard.plan_shard p ~shards:k b.Batch.b.(i)))
        else
          (* sync / alloc / free: broadcast, as [Trace_shard.split] does *)
          for s = 0 to k - 1 do
            Batch.copy_row ~src:b i ~dst:(stage s)
          done
      done
    in
    Dgrace_trace.Trace_format_v2.fold_batches path route ();
    Array.iteri
      (fun i ring ->
        let b = staging.(i + 1) in
        if Batch.length b > 0 then Ring.publish ring b else Ring.restore ring b;
        Ring.close ring)
      rings;
    let route_ns = clock () - c0 - !detect0_ns in
    if Batch.length staging.(0) > 0 then flush 0;
    d0.finish ();
    (outcome 0 d0 ~events:!events0 ~t0, !blocks, route_ns)
  in
  match run () with
  | first, blocks, route_ns ->
    let outcomes = Array.append [| first |] (join_all ()) in
    let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rings in
    let decode_stall_ns = sum Ring.decode_stall_ns in
    ( outcomes,
      { Dgrace_trace.Trace_pipeline.blocks; decode_stall_ns;
        detect_stall_ns = sum Ring.detect_stall_ns;
        decode_ns = route_ns - decode_stall_ns } )
  | exception e ->
    (* seal every ring so the shard domains drain out; a dead shard's
       own failure is what [Router_stopped] stands for *)
    Array.iter (fun r -> Ring.close r) rings;
    (try ignore (join_all ())
     with x -> ( match e with Router_stopped -> raise x | _ -> ()));
    raise e

let analyze_pipelined ?(slots = Dgrace_trace.Trace_pipeline.default_slots)
    ?(clock = Dgrace_obs.Clock.ns) ~make ~shards:k ~granule path =
  if k < 1 then invalid_arg "Par.analyze_pipelined: shards must be >= 1";
  let t0 = Unix.gettimeofday () in
  let pass ~plan p = (p, route_pass ~slots ~clock ~make ~k ~plan p path) in
  let (p, (outcomes, pipe)), split_s, replans =
    match pass ~plan:true (Trace_shard.planner ~granule ()) with
    | r -> (r, 0., 0)
    | exception Replan ->
      let p = Trace_shard.planner ~granule () in
      Dgrace_trace.Trace_format_v2.fold_batches path
        (fun () b -> Trace_shard.plan_batch p b)
        ();
      (pass ~plan:false p, Unix.gettimeofday () -. t0, 1)
  in
  ( result ~replans ~plan:(Trace_shard.plan_stats p ~shards:k) ~split_s ~t0
      outcomes,
    pipe )

let merged_stop r =
  Array.fold_left
    (fun acc o ->
      match (acc, o.stop) with
      | None, s | s, None -> s
      | Some (a, _), Some (b, _) when a <= b -> acc
      | Some _, s -> s)
    None r.outcomes

let any_degraded r = Array.exists (fun o -> o.degraded) r.outcomes

let merged_races r =
  Array.to_list r.outcomes
  |> List.concat_map (fun o -> o.tagged_races)
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd
