(* The serve load generator.  It runs as its own process (the harness
   re-executes itself with [loadgen] as the first argument), so the
   prebuilt frames it holds never count toward the workload process's
   heap.

   Protocol with the harness, one line each way:
   - on start it builds every frame and prints [ready <frames>];
   - [go <seconds> <passes>] runs one serve phase: every connection is
     a closed loop that opens a session, sends its trace's frames one
     [Client.feed_batch] at a time, finishes, and starts the next
     session — until [seconds] have passed ([passes = 0]) or for
     exactly [passes] sessions.  The reply is one [f] line per frame,
     one [s] line per finished session, an [x] line per failed one,
     [shed <n>] (Overloaded answers during the phase) and [done];
   - end of input makes it exit. *)

module Batch = Dgrace_events.Batch
module Client = Dgrace_serve.Client
module Json = Dgrace_obs.Json
module V2 = Dgrace_trace.Trace_format_v2

let frame_rows = 512

(* Cut a v2 trace into [frame_rows]-row batches, once. *)
let build_frames path =
  let frames = ref [] in
  let cur = ref (Batch.create ~capacity:frame_rows ()) in
  V2.fold_batches path
    (fun () b ->
      for i = 0 to Batch.length b - 1 do
        if Batch.is_full !cur then begin
          frames := !cur :: !frames;
          cur := Batch.create ~capacity:frame_rows ()
        end;
        Batch.copy_row ~src:b i ~dst:!cur
      done)
    ();
  if Batch.length !cur > 0 then frames := !cur :: !frames;
  Array.of_list (List.rev !frames)

type frame_rec = { t_ack : float; rows : int; lat : float }

type session =
  | Done of {
      trace : int;
      events : int;
      races : int;
      digest : string;
      race_lines : int;
      partial : bool;
      t_open : float;
      t_end : float;
    }
  | Failed of string

let int_member path j =
  let rec go j = function
    | [] -> (match j with Json.Int n -> n | _ -> -1)
    | k :: rest -> (match Json.member k j with Some v -> go v rest | None -> -1)
  in
  go j path

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* One session over a fresh connection: the client's location intern
   table is per connection, so sessions never share one. *)
let session ~socket ~t0 ~trace frames (log : frame_rec list ref) =
  let now () = Unix.gettimeofday () -. t0 in
  let ( let* ) r f =
    match r with Ok v -> f v | Error e -> Failed (Client.failure_to_string e)
  in
  let* c = Client.connect ~socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t_open = now () in
  let* _id = Client.open_session ~spec:"dynamic" c in
  let rec feed i events =
    if i = Array.length frames then Ok events
    else begin
      let t = now () in
      match Client.feed_batch c frames.(i) with
      | Error e -> Error e
      | Ok _ack ->
        let t_ack = now () in
        let rows = Batch.length frames.(i) in
        log := { t_ack; rows; lat = t_ack -. t } :: !log;
        feed (i + 1) (events + rows)
    end
  in
  let* events = feed 0 0 in
  let* summary = Client.finish c in
  let t_end = now () in
  let lines = Client.races c in
  Done
    {
      trace;
      events;
      races = int_member [ "races" ] summary;
      digest = digest lines;
      race_lines = List.length lines;
      partial = Json.member "partial" summary = Some (Json.Bool true);
      t_open;
      t_end;
    }

let shed ~socket =
  match Client.connect ~socket with
  | Error _ -> -1
  | Ok c ->
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (match Client.status c with Ok j -> int_member [ "shed" ] j | Error _ -> -1)

let phase ~socket ~frames ~conns ~seconds ~passes =
  let shed0 = shed ~socket in
  let t0 = Unix.gettimeofday () in
  let results =
    Array.map (fun trace -> (trace, ref [], ref [])) (Array.of_list conns)
  in
  let conn_loop (trace, log, sessions) =
    let rec loop k =
      let more =
        if passes > 0 then k < passes
        else k = 0 || Unix.gettimeofday () -. t0 < seconds
      in
      if more then begin
        let s = session ~socket ~t0 ~trace frames.(trace) log in
        sessions := s :: !sessions;
        match s with Done _ -> loop (k + 1) | Failed _ -> ()
      end
    in
    loop 0
  in
  let threads = Array.map (Thread.create conn_loop) results in
  Array.iter Thread.join threads;
  Array.iter
    (fun (_, log, sessions) ->
      List.iter (fun f -> Printf.printf "f %.6f %d %.9f\n" f.t_ack f.rows f.lat) (List.rev !log);
      List.iter
        (function
          | Done s ->
            Printf.printf "s %d %d %d %s %d %d %.6f %.6f\n" s.trace s.events s.races s.digest
              s.race_lines
              (if s.partial then 1 else 0)
              s.t_open s.t_end
          | Failed msg -> Printf.printf "x %s\n" (String.map (function '\n' -> ' ' | c -> c) msg))
        (List.rev !sessions))
    results;
  Printf.printf "shed %d\ndone\n%!" (shed ~socket - shed0)

(* [main ~socket ~traces ~conns]: [traces] are v2 trace paths and
   [conns] the trace index each connection streams. *)
let main ~socket ~traces ~conns =
  let frames = Array.of_list (List.map build_frames traces) in
  Printf.printf "ready %d\n%!" (Array.fold_left (fun n f -> n + Array.length f) 0 frames);
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      (match String.split_on_char ' ' (String.trim line) with
       | [ "go"; seconds; passes ] ->
         phase ~socket ~frames ~conns ~seconds:(float_of_string seconds)
           ~passes:(int_of_string passes)
       | _ -> Printf.printf "x bad command %S\ndone\n%!" line);
      loop ()
  in
  loop ()
