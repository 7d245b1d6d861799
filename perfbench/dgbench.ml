(* dgrace benchmark harness.  See perfbench/README.md for the workloads,
   the metrics and the layer -> metric -> workload map.

   One invocation sets up a workload from its seed, measures for
   [--seconds] and prints, as its last stdout line, one JSON object:
   [{"correct", "attempted", "failed", "metrics"}].  [--trace 0] gives
   the end-to-end metrics, [--trace 1] the per-layer ones.  Every
   timed result is checked against the per-event [Engine.replay]
   reference computed during set-up.  Nothing here reaches inside the
   libraries: each layer is driven through its public functions. *)

module Engine = Dgrace_core.Engine
module Spec = Dgrace_core.Spec
module V2 = Dgrace_trace.Trace_format_v2
module Pipeline = Dgrace_trace.Trace_pipeline
module Shard = Dgrace_trace.Trace_shard
module Batch = Dgrace_events.Batch
module Report = Dgrace_events.Report
module Suppression = Dgrace_events.Suppression
module Budget = Dgrace_resilience.Budget
module Metrics = Dgrace_obs.Metrics
module Json = Dgrace_obs.Json
module Workload = Dgrace_workloads.Workload
module Registry = Dgrace_workloads.Registry
module Session = Dgrace_serve.Session
module Client = Dgrace_serve.Client

(* ------------------------------------------------------------------ *)
(* workloads *)

type stream = { program : string; scale : int }

type workload = {
  name : string;
  streams : stream array;  (** traces recorded from the seed *)
}

let workloads =
  [
    { name = "replay-facesim"; streams = [| { program = "facesim"; scale = 4 } |] };
    { name = "replay-dedup"; streams = [| { program = "dedup"; scale = 2 } |] };
  ]

(* two serve connections, each streaming the workload's first trace:
   [nproc] = 2, so the load never uses more than 2 connections *)
let conns = [ 0; 0 ]

(* share of a local/serve step pair given to local replay *)
let local_share = 0.6

let spec = Spec.dynamic

(* the [racedet replay] defaults *)
let suppression = Suppression.default_runtime

let progress_every = 100_000

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* child processes: the serve instance and the load generator *)

let children = Hashtbl.create 4

let children_lock = Mutex.create ()

let with_children f = Mutex.protect children_lock (fun () -> f children)

let spawn prog args ~stdin ~stdout ~stderr =
  with_children (fun h ->
      let pid = Unix.create_process prog args stdin stdout stderr in
      Hashtbl.replace h pid ();
      pid)

(* Reap [pid], escalating to SIGKILL when it has not exited within
   [grace] seconds. *)
let reap ?(grace = 10.) pid =
  let deadline = now () +. grace in
  let rec wait killed =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if (not killed) && now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        wait true
      end
      else begin
        Thread.delay 0.01;
        wait killed
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait killed
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait false;
  with_children (fun h -> Hashtbl.remove h pid)

let kill_children () =
  let pids = with_children (fun h -> Hashtbl.fold (fun p () l -> p :: l) h []) in
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) pids;
  List.iter (reap ~grace:1.) pids

type server = { pid : int; socket : string }

let start_server ~racedet ~dir =
  let socket = Filename.concat dir "s.sock" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let null_r, null_w = Unix.pipe ~cloexec:true () in
  let pid =
    spawn racedet [| racedet; "serve"; "--socket"; socket |] ~stdin:null_r ~stdout:log
      ~stderr:log
  in
  List.iter Unix.close [ log; null_r; null_w ];
  let deadline = now () +. 30. in
  let rec ready () =
    match Client.connect ~socket with
    | Ok c -> Client.close c
    | Error e ->
      if now () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
        failwith ("serve did not come up: " ^ Client.failure_to_string e);
      Thread.delay 0.005;
      ready ()
  in
  ready ();
  { pid; socket }

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap s.pid

type loadgen = { lpid : int; ic : in_channel; oc : out_channel }

let start_loadgen ~socket ~paths ~conns =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [ Sys.executable_name; "loadgen"; "--socket"; socket ]
    @ List.concat_map (fun p -> [ "--trace"; p ]) paths
    @ List.concat_map (fun c -> [ "--conn"; string_of_int c ]) conns
  in
  let lpid =
    spawn Sys.executable_name (Array.of_list args) ~stdin:in_r ~stdout:out_w
      ~stderr:Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let l = { lpid; ic = Unix.in_channel_of_descr out_r; oc = Unix.out_channel_of_descr in_w } in
  (match String.split_on_char ' ' (input_line l.ic) with
   | [ "ready"; _ ] -> ()
   | _ -> failwith "load generator did not start");
  l

let stop_loadgen l =
  close_out_noerr l.oc;
  reap l.lpid;
  close_in_noerr l.ic

(* ------------------------------------------------------------------ *)
(* set-up: traces and their per-event reference *)

let workload_of name =
  match Registry.find name with Some w -> w | None -> failwith ("no workload " ^ name)

(* [racedet record <program> -s <scale> --seed <seed> --sched-seed <seed>] *)
let record ~seed ~dir (s : stream) =
  let w = workload_of s.program in
  let params = Workload.with_params ~scale:s.scale ~seed w in
  let policy = Dgrace_sim.Scheduler.Chunked { seed; chunk = 64 } in
  let path = Filename.concat dir (s.program ^ ".v2") in
  let _sim, n =
    V2.to_file path (fun sink -> Workload.run ~policy ~params ~sink w)
  in
  (path, n)

type expected = {
  events : int;
  reports : Report.t list;  (** every race, in detection order *)
  races : int;
  partial : Budget.stop option;
  degraded : bool;
  serve_digest : string;  (** the same for a serve session (no suppressions) *)
  serve_races : int;
}

let race_lines (s : Engine.summary) = List.map Report.to_string s.races

let expected_of ~events (s : Engine.summary) ~serve =
  let (serve : Engine.summary) = match serve with Some v -> v | None -> s in
  {
    events;
    reports = s.races;
    races = s.race_count;
    partial = s.partial;
    degraded = s.degraded;
    serve_digest = Loadgen.digest (race_lines serve);
    serve_races = serve.race_count;
  }

let replay_file ?(suppression = suppression) path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  Engine.replay ~suppression ~vc_intern:true ~page_cluster:true ~spec (V2.read ~path ic)

(* The reference for serve sessions too: the server builds detectors
   without suppressions, which only matters when a rule fired. *)
let reference_of path events =
  let s = replay_file path in
  let serve = if s.suppressed > 0 then Some (replay_file ~suppression:Suppression.empty path) else None in
  expected_of ~events s ~serve

let matches e (s : Engine.summary) =
  s.race_count = e.races && s.partial = e.partial && s.degraded = e.degraded
  && s.races = e.reports

(* ------------------------------------------------------------------ *)
(* the timed plans: how [racedet replay] runs a v2 trace *)

let plan_seq path =
  Engine.replay_batches ~suppression ~vc_intern:true ~page_cluster:true ~spec (fun consume ->
      V2.fold_batches path (fun () b -> consume b) ())

let plan_pipe path =
  Engine.replay_pipelined ~suppression ~vc_intern:true ~page_cluster:true ~spec path

let plan_shard ~shards path =
  Engine.replay_sharded_pipelined ~suppression ~vc_intern:true ~page_cluster:true ~shards
    ~spec path

(* a governed run: an event budget it cannot reach plus a heartbeat *)
let plan_observed path =
  let beats = ref 0 in
  Engine.replay_pipelined ~suppression ~vc_intern:true ~page_cluster:true
    ~budget:(Budget.make ~max_events:max_int ())
    ~progress:(progress_every, fun _ -> incr beats)
    ~spec path

(* ------------------------------------------------------------------ *)
(* provenance *)

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic ->
    let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
    ignore (Unix.close_process_in ic);
    if n > 0 then n else Domain.recommended_domain_count ()
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The checked-out commit, read from .git when there is one. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
      try String.trim (read_file (Filename.concat ".git" r))
      with Sys_error _ ->
        let packed = read_file ".git/packed-refs" in
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ sha; name ] when name = r -> Some sha
            | _ -> None)
          (String.split_on_char '\n' packed)
        |> Option.value ~default:"unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

(* What the seed produced: one line naming each trace by its digest. *)
let print_traces wl paths events =
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ( "traces",
              Json.List
                (Array.to_list
                   (Array.mapi
                      (fun i path ->
                        Json.Obj
                          [
                            ("program", Json.String wl.streams.(i).program);
                            ("events", Json.Int events.(i));
                            ("md5", Json.String (Digest.to_hex (Digest.file path)));
                          ])
                      paths)) );
          ]))

(* the OCaml heap high-water mark of this process *)
let heap_mb () = float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* results *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** reverse order *)
}

let new_result () = { attempted = 0; failed = 0; metrics = [] }

let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics

let check r ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1;
  ok

let describe name unit (st : Stats.summary) =
  Printf.printf "  %-24s median %.6g %s  q1 %.6g  q3 %.6g  (n=%d)\n" name st.med unit st.q1
    st.q3 st.n

(* ------------------------------------------------------------------ *)
(* the serve phase, read back from the load generator *)

type serve_out = {
  frames : (float * int * float) list;  (** ack time, rows, round trip *)
  sessions : Loadgen.session list;
  shed : int;
}

let serve_phase l ~seconds ~passes =
  Printf.fprintf l.oc "go %.3f %d\n%!" seconds passes;
  let frames = ref [] and sessions = ref [] and shed = ref 0 in
  let rec loop () =
    match String.split_on_char ' ' (input_line l.ic) with
    | [ "done" ] -> ()
    | [ "f"; t; rows; lat ] ->
      frames := (float_of_string t, int_of_string rows, float_of_string lat) :: !frames;
      loop ()
    | [ "s"; trace; events; races; digest; race_lines; partial; t_open; t_end ] ->
      sessions :=
        Loadgen.Done
            {
              trace = int_of_string trace;
              events = int_of_string events;
              races = int_of_string races;
              digest;
              race_lines = int_of_string race_lines;
              partial = partial = "1";
              t_open = float_of_string t_open;
              t_end = float_of_string t_end;
            }
        :: !sessions;
      loop ()
    | "x" :: msg ->
      sessions := Loadgen.Failed (String.concat " " msg) :: !sessions;
      loop ()
    | [ "shed"; n ] ->
      shed := int_of_string n;
      loop ()
    | _ -> failwith "load generator: unexpected reply"
  in
  loop ();
  { frames = List.rev !frames; sessions = List.rev !sessions; shed = !shed }

let check_sessions r (expected : expected array) out =
  List.iter
    (fun s ->
      let ok =
        match s with
        | Loadgen.Done d ->
          let e = expected.(d.trace) in
          d.events = e.events && d.races = e.serve_races && d.race_lines = e.serve_races
          && d.digest = e.serve_digest && not d.partial
        | Loadgen.Failed msg ->
          Printf.printf "  serve failure: %s\n" msg;
          false
      in
      ignore (check r ok))
    out.sessions

(* ------------------------------------------------------------------ *)
(* end-to-end run ([--trace 0]) *)

type setup = {
  paths : string array;
  expected : expected array;
  server : server;
  loadgen : loadgen;
}

let setup ~wl ~seed ~dir ~racedet =
  let recorded = Array.map (record ~seed ~dir) wl.streams in
  let paths = Array.map fst recorded in
  let expected = Array.map (fun (p, n) -> reference_of p n) recorded in
  let server = start_server ~racedet ~dir in
  let loadgen =
    start_loadgen ~socket:server.socket ~paths:(Array.to_list paths) ~conns
  in
  { paths; expected; server; loadgen }

let teardown s =
  stop_loadgen s.loadgen;
  stop_server s.server

let setup_reps = 5

(* one local step and one serve step make a pair of about this length *)
let step_s = 1.5

(* Calibrated timing (see calib.ml).  Every timed step starts with a
   run of the calibration kernel, and one more closes the run, so step
   [k] is bracketed by kernel runs [k] and [k + 1].  A time measured in
   step [k] is scaled by [Calib.reference_s] over the mean of the two. *)
type calibration = { mutable runs : float list; mutable count : int }

let calibrate c =
  c.runs <- Calib.time () :: c.runs;
  c.count <- c.count + 1;
  c.count - 1

let scales c =
  let runs = Array.of_list (List.rev c.runs) in
  fun k -> Calib.reference_s /. ((runs.(k) +. runs.(k + 1)) /. 2.)

let end_to_end ~wl ~seed ~seconds ~dir ~racedet ~shards r =
  let cal = { runs = []; count = 0 } in
  let times = ref [] and current = ref None in
  for _ = 1 to setup_reps do
    Option.iter teardown !current;
    let k = calibrate cal in
    let t0 = now () in
    let s = setup ~wl ~seed ~dir ~racedet in
    times := (k, now () -. t0) :: !times;
    current := Some s
  done;
  let s = Option.get !current in
  Fun.protect ~finally:(fun () -> teardown s) @@ fun () ->
  print_traces wl s.paths (Array.map (fun e -> e.events) s.expected);
  let events = Array.fold_left (fun n e -> n + e.events) 0 s.expected in
  let plans =
    [|
      ("seq", plan_seq);
      ("pipe", plan_pipe);
      ("shard", plan_shard ~shards);
      ("observed", plan_observed);
    |]
  in
  (* per plan: (step, wall) of every checked rep *)
  let walls = Array.make (Array.length plans) [] in
  let peak = ref 0 in
  let round = ref 0 in
  (* one round runs every plan once over every trace; rounds alternate
     the plan order (ABBA), so drift hits every plan alike *)
  let local_round k =
    let order = Array.init (Array.length plans) Fun.id in
    if !round mod 2 = 1 then Array.sort (fun a b -> compare b a) order;
    Array.iter
      (fun i ->
        let name, run = plans.(i) in
        let ok = ref true and wall = ref 0. in
        Array.iteri
          (fun t path ->
            (* start every rep from a collected heap, as a fresh
               [racedet replay] process would *)
            Gc.full_major ();
            let t0 = now () in
            let res = try Some (run path) with _ -> None in
            wall := !wall +. (now () -. t0);
            match res with
            | Some sum ->
              if not (check r (matches s.expected.(t) sum)) then ok := false
              else if name = "pipe" && !round = 0 then peak := !peak + sum.mem.peak_bytes
            | None -> ok := check r false)
          s.paths;
        if !ok then walls.(i) <- (k, !wall) :: walls.(i))
      order;
    incr round
  in
  (* The run alternates local and serve steps, so the machine's drift
     reaches every metric alike. *)
  let outs = ref [] in
  let deadline = now () +. seconds in
  while !outs = [] || now () < deadline do
    let k = calibrate cal in
    let local_end = now () +. (step_s *. local_share) in
    local_round k;
    while now () < local_end do
      local_round k
    done;
    let k = calibrate cal in
    let out = serve_phase s.loadgen ~seconds:(step_s *. (1. -. local_share)) ~passes:0 in
    check_sessions r s.expected out;
    outs := (k, out) :: !outs
  done;
  ignore (calibrate cal);
  let scale = scales cal in
  let outs = List.rev !outs in
  Printf.printf "end-to-end (%d events per pass, %d local rounds, %d serve steps)\n" events
    !round (List.length outs);
  describe "calibration kernel" "s" (Stats.summarize cal.runs);
  Printf.printf "  times below are scaled to the kernel's %.3f s; raw medians in brackets\n"
    Calib.reference_s;
  let scaled samples = List.map (fun (k, v) -> v *. scale k) samples in
  let raw samples = Stats.median (List.map snd samples) in
  Array.iteri
    (fun i (name, _) ->
      match walls.(i) with
      | [] -> ()
      | ws ->
        let st = Stats.summarize (scaled ws) in
        describe (name ^ " wall") "s" st;
        Printf.printf "    [raw %.6g s]\n" (raw ws);
        metric r (name ^ "_events_per_s") "1/s" (float_of_int events /. st.med))
    plans;
  metric r "peak_shadow_bytes" "bytes" (float_of_int !peak);
  (* not a gated metric: GC pacing across domains moves it by up to a
     quarter between identical runs *)
  Printf.printf "  heap high-water          %.3f MB\n" (heap_mb ());
  (* events acked per second of each serve step, from its first open
     to its last summary *)
  let rates =
    List.filter_map
      (fun (k, out) ->
        let opens, ends =
          List.fold_left
            (fun (o, e) s ->
              match s with
              | Loadgen.Done d -> (Float.min o d.t_open, Float.max e d.t_end)
              | Loadgen.Failed _ -> (o, e))
            (infinity, neg_infinity) out.sessions
        in
        let rows = List.fold_left (fun n (_, rows, _) -> n + rows) 0 out.frames in
        if ends > opens then Some (k, float_of_int rows /. (ends -. opens)) else None)
      outs
  in
  let st = Stats.summarize (List.map (fun (k, v) -> v /. scale k) rates) in
  describe "serve events/s per step" "1/s" st;
  Printf.printf "    [raw %.6g 1/s]\n" (raw rates);
  metric r "serve_events_per_s" "1/s" st.med;
  (* every frame's round trip, scaled by its step, pooled over the run *)
  let lats =
    List.concat_map (fun (k, out) -> List.map (fun (_, _, l) -> (k, l *. 1e3)) out.frames) outs
  in
  let all = Stats.sorted (scaled lats) in
  let n = Array.length all in
  Printf.printf "  frame round trip: %d frames (%d beyond p99), raw p50 %.4f ms\n" n (n / 100)
    (raw lats);
  List.iter
    (fun p -> Printf.printf "    p%g %.4f ms\n" (p *. 100.) (Stats.quantile all p))
    [ 0.9; 0.95; 0.98; 0.99; 0.995 ];
  List.iter
    (fun (name, p) ->
      let v = Stats.quantile all p in
      Printf.printf "  %-24s %.6g ms\n" name v;
      metric r name "ms" v)
    [ ("frame_p50_ms", 0.5); ("frame_p99_ms", 0.99) ];
  let st = Stats.summarize (scaled !times) in
  describe "setup" "s" st;
  Printf.printf "    [raw %.6g s]\n" (raw !times);
  metric r "setup_s" "s" st.med

(* ------------------------------------------------------------------ *)
(* traced run ([--trace 1]): per-layer metrics *)

let counter (m : Metrics.t) name =
  match Metrics.find_counter m name with
  | Some v -> v
  | None -> Option.value ~default:0 (List.assoc_opt name (Metrics.gauges m))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let decode_into_memory path =
  List.rev
    (V2.fold_batches path
       (fun acc b ->
         let copy = Batch.create ~capacity:(max 1 (Batch.length b)) () in
         for i = 0 to Batch.length b - 1 do
           Batch.copy_row ~src:b i ~dst:copy
         done;
         copy :: acc)
       [])

let apply_session bodies =
  let t = Session.open_ ~vc_intern:true ~id:1 ~spec () in
  Array.iter (fun body -> ignore (Session.feed_batch_frame t body)) bodies;
  Session.finalize t

let traced ~wl ~seed ~seconds ~dir ~racedet ~shards r =
  let sp = Spans.create () in
  let n = Array.length wl.streams in
  (* per-trace samples of each timed step, summed over traces per rep *)
  let samples = Hashtbl.create 32 in
  let sample name v = Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name)) in
  let med name = Stats.median (Hashtbl.find samples name) in
  let last_seq = Array.make n None and last_shard = Array.make n None in
  let last_observed = Array.make n None in
  let pipe_walls = ref [] in
  let untraced_walls = ref [] in
  let events = ref 0 in
  let serve_out = ref None in
  let expected = Array.make n None in
  let paths = Array.make n "" in
  Spans.root sp (fun () ->
      (* set-up, split into its layers *)
      let record_s = ref 0. and encode_s = ref 0. and bytes = ref 0 in
      let batches =
        Array.mapi
          (fun i s ->
            let evs, t_sim =
              Spans.timed sp "sim" "record" (fun () ->
                  let acc = ref [] in
                  let w = workload_of s.program in
                  let params = Workload.with_params ~scale:s.scale ~seed w in
                  let policy = Dgrace_sim.Scheduler.Chunked { seed; chunk = 64 } in
                  ignore (Workload.run ~policy ~params ~sink:(fun e -> acc := e :: !acc) w);
                  Array.of_list (List.rev !acc))
            in
            record_s := !record_s +. t_sim;
            let (path, count), t_enc =
              Spans.timed sp "trace" "encode" (fun () ->
                  let path = Filename.concat dir (s.program ^ ".v2") in
                  let (), c = V2.to_file path (fun sink -> Array.iter sink evs) in
                  (path, c))
            in
            encode_s := !encode_s +. t_enc;
            bytes := !bytes + (Unix.stat path).st_size;
            events := !events + count;
            paths.(i) <- path;
            let ref_s, _ =
              Spans.timed sp "detectors" "per_event" (fun () ->
                  Engine.replay ~suppression ~vc_intern:true ~page_cluster:true ~spec
                    (Array.to_seq evs))
            in
            let serve =
              if ref_s.suppressed > 0 then
                Some (Spans.span sp "detectors" "per_event" (fun () -> replay_file ~suppression:Suppression.empty path))
              else None
            in
            expected.(i) <- Some (expected_of ~events:count ref_s ~serve);
            Spans.span sp "trace" "predecode" (fun () -> decode_into_memory path))
          wl.streams
      in
      let expected = Array.map Option.get expected in
      print_traces wl paths (Array.map (fun e -> e.events) expected);
      metric r "sim.record_s" "s" !record_s;
      metric r "sim.events" "count" (float_of_int !events);
      metric r "trace.encode_s" "s" !encode_s;
      metric r "trace.bytes_per_event" "bytes" (ratio !bytes !events);
      let frames =
        Array.map
          (fun path -> Spans.span sp "serve" "build_frames" (fun () -> Loadgen.build_frames path))
          paths
      in
      let server = Spans.span sp "serve" "start_server" (fun () -> start_server ~racedet ~dir) in
      Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
      let lg =
        Spans.span sp "serve" "start_loadgen" (fun () ->
            start_loadgen ~socket:server.socket ~paths:(Array.to_list paths) ~conns)
      in
      Fun.protect ~finally:(fun () -> stop_loadgen lg) @@ fun () ->
      let round = ref 0 in
      let budget_end = now () +. (seconds *. 0.8) in
      while !round < 3 || (now () < budget_end && !round < 50) do
        let acc = Hashtbl.create 16 in
        let add name v = Hashtbl.replace acc name (v +. Option.value ~default:0. (Hashtbl.find_opt acc name)) in
        let checked i (s : Engine.summary) = ignore (check r (matches expected.(i) s)) in
        Array.iteri
          (fun i path ->
            let (), t = Spans.timed sp "trace" "decode" (fun () -> V2.fold_batches path (fun () _ -> ()) ()) in
            add "trace.decode_s" t;
            let _, t = Spans.timed sp "trace" "feed" (fun () -> Pipeline.feed path (fun _ -> ())) in
            add "trace.feed_s" t;
            let s, t =
              Spans.timed sp "detectors" "batch" (fun () ->
                  Engine.replay_batches ~suppression ~vc_intern:true ~page_cluster:true ~spec
                    (fun consume -> List.iter consume batches.(i)))
            in
            checked i s;
            add "detectors.batch_s" t;
            if !round > 0 then begin
              (* the reference pass in set-up already gave one sample *)
              let s, t =
                Spans.timed sp "detectors" "per_event" (fun () ->
                    Engine.replay ~suppression ~vc_intern:true ~page_cluster:true ~spec
                      (List.to_seq batches.(i) |> Seq.concat_map (fun b ->
                           Seq.init (Batch.length b) (Batch.event b))))
              in
              checked i s;
              add "detectors.per_event_s" t
            end;
            let s, t = Spans.timed sp "core" "seq" (fun () -> plan_seq path) in
            checked i s;
            add "core.seq_s" t;
            last_seq.(i) <- Some s;
            let s, t = Spans.timed sp "core" "pipe" (fun () -> plan_pipe path) in
            checked i s;
            add "pipe" t;
            add "trace.decode_stall_s" (float_of_int (counter s.metrics "pipeline.decode_stall_us") /. 1e6);
            add "trace.detect_stall_s" (float_of_int (counter s.metrics "pipeline.detect_stall_us") /. 1e6);
            let _, t =
              Spans.timed sp "par" "plan" (fun () ->
                  let p = Shard.planner ~granule:Dgrace_detectors.Dynamic_granularity.share_granule () in
                  V2.fold_batches path (fun () b -> Shard.plan_batch p b) ();
                  Shard.plan_stats p ~shards)
            in
            add "par.plan_s" t;
            let s, _ = Spans.timed sp "par" "shard" (fun () -> plan_shard ~shards path) in
            checked i s;
            last_shard.(i) <- Some s;
            add "par.split_s" (float_of_int (counter s.metrics "par.split_us") /. 1e6);
            add "par.critical_path_s" (float_of_int (counter s.metrics "par.critical_path_us") /. 1e6);
            let s, _ = Spans.timed sp "core" "observed" (fun () -> plan_observed path) in
            checked i s;
            last_observed.(i) <- Some s)
          paths;
        (* serve-side work per connection, in process *)
        List.iter
          (fun i ->
            let bodies, t =
              Spans.timed sp "serve" "client_encode" (fun () ->
                  let enc = V2.block_encoder () in
                  Array.map (V2.encode_body enc) frames.(i))
            in
            add "serve.client_encode_s" t;
            let s, t = Spans.timed sp "serve" "session_apply" (fun () -> apply_session bodies) in
            (match s with
             | Ok s ->
               ignore
                 (check r
                    (s.race_count = expected.(i).serve_races
                    && Loadgen.digest (race_lines s) = expected.(i).serve_digest))
             | Error _ -> ignore (check r false));
            add "serve.session_apply_s" t)
          conns;
        Hashtbl.iter sample acc;
        pipe_walls := Hashtbl.find acc "pipe" :: !pipe_walls;
        incr round
      done;
      let out = Spans.span sp "serve" "pass" (fun () -> serve_phase lg ~seconds:0. ~passes:1) in
      check_sessions r expected out;
      serve_out := Some out);
  (* untraced comparison, outside the traced wall *)
  let rounds = List.length !pipe_walls in
  for _ = 1 to rounds do
    let t0 = now () in
    Array.iter (fun p -> ignore (plan_pipe p)) paths;
    untraced_walls := (now () -. t0) :: !untraced_walls
  done;
  let trace_path = Filename.concat dir "trace.json" in
  (match Spans.export sp trace_path with
   | Ok rep ->
     ignore (check r true);
     Printf.printf "chrome trace: %d events on %d lane(s), valid\n" rep.events rep.lanes
   | Error e ->
     ignore (check r false);
     Printf.printf "chrome trace invalid: %s\n" e);
  let events = !events in
  let sum_over arr f =
    Array.fold_left (fun acc s -> match s with Some s -> acc + f s | None -> acc) 0 arr
  in
  let cnt arr name = sum_over arr (fun (s : Engine.summary) -> counter s.metrics name) in
  let mem arr f = sum_over arr (fun (s : Engine.summary) -> f s.mem) in
  List.iter
    (fun (name, key) -> metric r name "s" (med key))
    [
      ("trace.decode_s", "trace.decode_s");
      ("trace.feed_s", "trace.feed_s");
      ("trace.decode_stall_s", "trace.decode_stall_s");
      ("trace.detect_stall_s", "trace.detect_stall_s");
      ("detectors.batch_s", "detectors.batch_s");
      ("detectors.per_event_s", "detectors.per_event_s");
    ];
  let accesses = sum_over last_seq (fun s -> s.stats.accesses) in
  let same_epoch = sum_over last_seq (fun s -> s.stats.same_epoch) in
  metric r "detectors.accesses" "count" (float_of_int accesses);
  metric r "detectors.same_epoch_ratio" "ratio" (ratio same_epoch accesses);
  metric r "detectors.sharing_decisions" "count" (float_of_int (cnt last_seq "sharing.decisions"));
  metric r "detectors.cells_split" "count" (float_of_int (cnt last_seq "cells.split"));
  metric r "detectors.epoch_compares" "count" (float_of_int (cnt last_seq "phase.epoch_compare"));
  metric r "detectors.cluster_rows_per_page" "ratio"
    (ratio (cnt last_seq "cluster.rows") (cnt last_seq "cluster.pages"));
  metric r "detectors.cluster_barriers" "count" (float_of_int (cnt last_seq "cluster.barriers"));
  let lookups = cnt last_seq "shadow.index_lookups" in
  metric r "shadow.index_lookups" "count" (float_of_int lookups);
  metric r "shadow.mru_hit_ratio" "ratio" (ratio (cnt last_seq "shadow.mru_hits") lookups);
  metric r "shadow.page_allocs" "count" (float_of_int (cnt last_seq "shadow.page_allocs"));
  metric r "shadow.page_recycles" "count" (float_of_int (cnt last_seq "shadow.page_recycles"));
  metric r "shadow.peak_hash_bytes" "bytes" (float_of_int (mem last_seq (fun m -> m.peak_hash_bytes)));
  metric r "vclock.peak_vc_bytes" "bytes" (float_of_int (mem last_seq (fun m -> m.peak_vc_bytes)));
  metric r "vclock.peak_vcs" "count" (float_of_int (mem last_seq (fun m -> m.peak_vcs)));
  let interns = cnt last_seq "vclock.interns" in
  metric r "vclock.interns" "count" (float_of_int interns);
  metric r "vclock.intern_hit_ratio" "ratio" (ratio (cnt last_seq "vclock.intern_hits") interns);
  metric r "core.batch_fallback" "count" (float_of_int (cnt last_observed "engine.batch_fallback"));
  let seq_s = med "core.seq_s" in
  metric r "core.seq_s" "s" seq_s;
  metric r "core.heap_peak_mb" "MB" (heap_mb ());
  metric r "core.unattributed_s" "s" (seq_s -. med "trace.decode_s" -. med "detectors.batch_s");
  metric r "par.plan_s" "s" (med "par.plan_s");
  metric r "par.split_s" "s" (med "par.split_s");
  metric r "par.critical_path_s" "s" (med "par.critical_path_s");
  let shard_events =
    List.init shards (fun k -> cnt last_shard (Printf.sprintf "par.shard%d.events" k))
  in
  let mean = float_of_int (List.fold_left ( + ) 0 shard_events) /. float_of_int shards in
  metric r "par.shard_skew" "ratio"
    (if mean = 0. then 0. else float_of_int (List.fold_left max 0 shard_events) /. mean);
  metric r "par.straddling" "count" (float_of_int (cnt last_shard "par.straddling"));
  let encode = med "serve.client_encode_s" and apply = med "serve.session_apply_s" in
  let out = Option.get !serve_out in
  let round_trip = List.fold_left (fun a (_, _, l) -> a +. l) 0. out.frames in
  let frames = List.length out.frames in
  metric r "serve.client_encode_s" "s" encode;
  metric r "serve.session_apply_s" "s" apply;
  metric r "serve.round_trip_s" "s" round_trip;
  metric r "serve.transport_s" "s" (round_trip -. encode -. apply);
  metric r "serve.frames" "count" (float_of_int frames);
  metric r "serve.retry_ratio" "ratio" (ratio out.shed frames);
  metric r "serve.race_lines" "count"
    (float_of_int
       (List.fold_left
          (fun a s -> match s with Loadgen.Done d -> a + d.race_lines | Loadgen.Failed _ -> a)
          0 out.sessions));
  let traced_eps = float_of_int events /. Stats.median !pipe_walls in
  let untraced_eps = float_of_int events /. Stats.median !untraced_walls in
  metric r "obs.traced_pipe_events_per_s" "1/s" traced_eps;
  metric r "obs.untraced_pipe_events_per_s" "1/s" untraced_eps;
  metric r "obs.trace_overhead" "ratio" (traced_eps /. untraced_eps);
  let layers = [ "sim"; "trace"; "detectors"; "core"; "par"; "serve"; Spans.unattributed ] in
  let total = List.fold_left (fun a l -> a +. Spans.self_s sp l) 0. layers in
  Printf.printf "per-layer self time (s), %d rounds:\n" rounds;
  List.iter
    (fun l ->
      let v = Spans.self_s sp l in
      Printf.printf "  %-14s %.4f\n" l v;
      metric r ("self." ^ l ^ "_s") "s" v)
    layers;
  Printf.printf "  %-14s %.4f (traced wall %.4f)\n" "sum" total (Spans.wall_s sp);
  metric r "traced.wall_s" "s" (Spans.wall_s sp)

(* ------------------------------------------------------------------ *)
(* entry point *)

let json_result r ~correct =
  let metrics =
    List.rev_map
      (fun (name, v, unit) ->
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      r.metrics
  in
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ("metrics", Json.Obj metrics);
       ])

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let usage =
  "dgbench --workload NAME --seed N --seconds S --trace 0|1 --racedet PATH [--scale K]"

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let racedet = ref "" and scale = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--racedet", Arg.Set_string racedet, "PATH racedet executable");
      ("--scale", Arg.Set_int scale, "K override every stream's scale");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("dgbench: unknown workload " ^ !workload ^ "; one of "
                     ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  if !racedet = "" || not (Sys.file_exists !racedet) then begin
    prerr_endline "dgbench: --racedet must name the racedet executable";
    exit 2
  end;
  let racedet =
    if Filename.is_relative !racedet then Filename.concat (Sys.getcwd ()) !racedet else !racedet
  in
  let wl =
    if !scale > 0 then { wl with streams = Array.map (fun s -> { s with scale = !scale }) wl.streams }
    else wl
  in
  let shards = nproc () in
  (* relative paths keep the socket name short whatever the checkout *)
  let dir = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
  Sys.mkdir dir 0o755;
  let abort why =
    prerr_endline ("dgbench: " ^ why);
    kill_children ();
    rm_rf dir;
    Stdlib.exit 3
  in
  (* never leave the server or the load generator behind *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> abort "interrupted")))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  (* a hard stop well inside the 180 s a run may take *)
  let hard_deadline = now () +. !seconds +. 120. in
  ignore
    (Thread.create
       (fun () ->
         while now () < hard_deadline do
           Thread.delay 0.5
         done;
         abort "run exceeded its time limit")
       ());
  Printf.printf "%s\n"
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ( "provenance",
              Json.Obj
                [
                  ("workload", Json.String wl.name);
                  ("nproc", Json.Int shards);
                  ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
                  ("ocaml", Json.String Sys.ocaml_version);
                  ( "streams",
                    Json.List
                      (Array.to_list
                         (Array.map
                            (fun s ->
                              Json.Obj [ ("program", Json.String s.program); ("scale", Json.Int s.scale) ])
                            wl.streams)) );
                  ("seed", Json.Int !seed);
                  ("seconds", Json.Float !seconds);
                  ("trace", Json.Int !trace);
                  ("setup_reps", Json.Int setup_reps);
                  ("detector", Json.String (Spec.name spec));
                  ("commit", Json.String (commit ()));
                ] );
          ]));
  let r = new_result () in
  let outcome =
    try
      if !trace = 0 then end_to_end ~wl ~seed:!seed ~seconds:!seconds ~dir ~racedet ~shards r
      else traced ~wl ~seed:!seed ~seconds:!seconds ~dir ~racedet ~shards r;
      Ok ()
    with e -> Error (Printexc.to_string e)
  in
  kill_children ();
  let trace_out = Filename.concat dir "trace.json" in
  if Sys.file_exists trace_out then
    Sys.rename trace_out (Filename.concat ".perfbench" (wl.name ^ ".trace.json"));
  rm_rf dir;
  match outcome with
  | Error e ->
    Printf.eprintf "dgbench: %s\n" e;
    exit 1
  | Ok () ->
    Printf.printf "attempted %d, failed %d, failed_ratio %.6g\n" r.attempted r.failed
      (ratio r.failed r.attempted);
    print_endline (json_result r ~correct:(r.failed = 0));
    exit 0

let () =
  match Array.to_list Sys.argv with
  | _ :: "loadgen" :: rest ->
    let socket = ref "" and traces = ref [] and conns = ref [] in
    let rec parse = function
      | "--socket" :: s :: tl -> socket := s; parse tl
      | "--trace" :: p :: tl -> traces := p :: !traces; parse tl
      | "--conn" :: c :: tl -> conns := int_of_string c :: !conns; parse tl
      | [] -> ()
      | a :: _ -> failwith ("loadgen: unexpected argument " ^ a)
    in
    parse rest;
    Loadgen.main ~socket:!socket ~traces:(List.rev !traces) ~conns:(List.rev !conns)
  | _ -> main ()
