module Json = Dgrace_obs.Json

type t = {
  max_shadow_bytes : int option;
  max_events : int option;
  deadline_s : float option;
}

let unlimited = { max_shadow_bytes = None; max_events = None; deadline_s = None }

let check_pos what = function
  | Some n when n <= 0 ->
    invalid_arg (Printf.sprintf "Budget.make: non-positive %s" what)
  | _ -> ()

let make ?max_shadow_bytes ?max_events ?deadline_s () =
  check_pos "max_shadow_bytes" max_shadow_bytes;
  check_pos "max_events" max_events;
  (match deadline_s with
   | Some d when d <= 0. -> invalid_arg "Budget.make: non-positive deadline_s"
   | _ -> ());
  { max_shadow_bytes; max_events; deadline_s }

let is_unlimited b =
  b.max_shadow_bytes = None && b.max_events = None && b.deadline_s = None

type stop =
  | Max_events of { limit : int }
  | Deadline of { limit_s : float; elapsed_s : float }
  | Shadow_bytes of { limit : int; bytes : int }

let stop_to_string = function
  | Max_events { limit } -> Printf.sprintf "event budget reached (%d events)" limit
  | Deadline { limit_s; elapsed_s } ->
    Printf.sprintf "deadline reached (%.1fs limit, %.1fs elapsed)" limit_s
      elapsed_s
  | Shadow_bytes { limit; bytes } ->
    Printf.sprintf
      "shadow budget exceeded (%dB limit, %dB live, degradation exhausted)"
      limit bytes

let stop_to_json = function
  | Max_events { limit } ->
    Json.Obj [ ("stop", Json.String "max_events"); ("limit", Json.Int limit) ]
  | Deadline { limit_s; elapsed_s } ->
    Json.Obj
      [
        ("stop", Json.String "deadline");
        ("limit_s", Json.Float limit_s);
        ("elapsed_s", Json.Float elapsed_s);
      ]
  | Shadow_bytes { limit; bytes } ->
    Json.Obj
      [
        ("stop", Json.String "shadow_bytes");
        ("limit", Json.Int limit);
        ("bytes", Json.Int bytes);
      ]

let stop_to_error = function
  | Max_events { limit } ->
    Error.Budget_exhausted { budget = "events"; limit; actual = limit }
  | Deadline { limit_s; elapsed_s } ->
    Error.Budget_exhausted
      {
        budget = "deadline_s";
        limit = int_of_float limit_s;
        actual = int_of_float (Float.ceil elapsed_s);
      }
  | Shadow_bytes { limit; bytes } ->
    Error.Budget_exhausted { budget = "shadow_bytes"; limit; actual = bytes }

exception Stop of stop

let guard ?(note = fun () -> ()) b ~live_bytes ~degrade ~degraded ~now_s ?t0 ()
    =
  if is_unlimited b then None
  else begin
    let t0 = match t0 with Some t -> t | None -> now_s () in
    let events = ref 0 in
    let rec shed limit =
      if live_bytes () > limit then
        if degrade () then begin
          degraded := true;
          note ();
          shed limit
        end
        else raise (Stop (Shadow_bytes { limit; bytes = live_bytes () }))
    in
    Some
      (fun () ->
        incr events;
        (match b.max_events with
         | Some limit when !events >= limit -> raise (Stop (Max_events { limit }))
         | Some _ | None -> ());
        (match b.max_shadow_bytes with Some limit -> shed limit | None -> ());
        match b.deadline_s with
        | Some limit_s when !events land 255 = 0 ->
          let elapsed_s = now_s () -. t0 in
          if elapsed_s > limit_s then raise (Stop (Deadline { limit_s; elapsed_s }))
        | Some _ | None -> ())
  end
