open Dgrace_events

(* Hot-loop guard (doc/shadow.md, "Hot-loop rules"): Stdlib's
   polymorphic [min]/[max]/[compare] are C calls, so this module only
   sees the int ones, which inline; any other use fails to type. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max
let[@warning "-32"] compare = Int.compare

type t = {
  shards : (int * Event.t) array array;
  events : int;
  granule : int;
  sync_ops : int;
  allocs : int;
  frees : int;
  super_granules : int;
  straddling : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let b = ref 0 and v = ref n in
  while !v > 1 do
    v := !v lsr 1;
    incr b
  done;
  !b

(* Union-find over granule ids, grown on demand.  Accesses that
   straddle a granule boundary weld the granules they touch into one
   super-granule, which then routes to a single shard; everything the
   detector can learn about an address stays inside its super-granule
   (the detector's own [share_granule] gate guarantees no sharing
   decision crosses a granule line).  With no weld at all — the common
   case — every granule is its own root and [find] hashes nothing. *)
let find (parent : (int, int) Hashtbl.t) g =
  if Hashtbl.length parent = 0 then g
  else begin
    let rec root g =
      match Hashtbl.find_opt parent g with None -> g | Some p -> root p
    in
    let r = root g in
    (* path compression *)
    let rec compress g =
      match Hashtbl.find_opt parent g with
      | None -> ()
      | Some p ->
        if p <> r then Hashtbl.replace parent g r;
        compress p
    in
    compress g;
    r
  end

let union (parent : (int, int) Hashtbl.t) a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then Hashtbl.replace parent (Int.max ra rb) (Int.min ra rb)

(* Pack one shard's [(offset, event)] stream into struct-of-arrays
   batches for the detectors' [process_batch] fast path; the stream
   offsets become the batch [off] column, so race attribution is
   unchanged.  O(n) and allocation-proportional to the stream. *)
let batches_of ?(capacity = Batch.default_capacity) stream =
  let n = Array.length stream in
  let nb = (n + capacity - 1) / capacity in
  Array.init nb (fun bi ->
      let lo = bi * capacity in
      let hi = Int.min n (lo + capacity) in
      let b = Batch.create ~capacity () in
      for i = lo to hi - 1 do
        let off, ev = stream.(i) in
        Batch.push b ~off ev
      done;
      b)

(* Streaming planner of the pipelined sharded replay.  [plan_batch]
   folds decoded batches (no event materialisation), welding
   straddle-linked granules and counting the broadcast classes;
   [plan_shard] answers the routing question, and [plan_stats] freezes
   the counts into a [t] (with empty per-shard streams — the pipelined
   path never materialises them) for the same merge bookkeeping
   [split] feeds. *)

type planner = {
  p_gshift : int;
  p_granule : int;
  p_parent : (int, int) Hashtbl.t;
  mutable p_events : int;
  mutable p_sync_ops : int;
  mutable p_allocs : int;
  mutable p_frees : int;
  mutable p_straddling : int;
}

let planner ~granule () =
  if not (is_pow2 granule) then
    invalid_arg "Trace_shard.planner: granule must be a power of two";
  {
    p_gshift = log2 granule;
    p_granule = granule;
    p_parent = Hashtbl.create 256;
    p_events = 0;
    p_sync_ops = 0;
    p_allocs = 0;
    p_frees = 0;
    p_straddling = 0;
  }

let plan_batch p (b : Batch.t) =
  let n = Batch.length b in
  p.p_events <- p.p_events + n;
  for i = 0 to n - 1 do
    let k = b.Batch.kind.(i) in
    if k <= Batch.code_write then begin
      let addr = b.Batch.b.(i) in
      let size = b.Batch.c.(i) in
      let g0 = addr lsr p.p_gshift in
      let g1 = (addr + Int.max size 1 - 1) lsr p.p_gshift in
      if g1 > g0 then begin
        p.p_straddling <- p.p_straddling + 1;
        for g = g0 to g1 - 1 do
          union p.p_parent g (g + 1)
        done
      end
    end
    else if k = Batch.code_alloc then p.p_allocs <- p.p_allocs + 1
    else if k = Batch.code_free then p.p_frees <- p.p_frees + 1
    else p.p_sync_ops <- p.p_sync_ops + 1
  done

let straddling p = p.p_straddling

let plan_shard p ~shards:k addr =
  if k = 1 then 0
  else Hashtbl.hash (find p.p_parent (addr lsr p.p_gshift)) mod k

let plan_stats p ~shards:k =
  let roots = Hashtbl.create 64 in
  Hashtbl.iter
    (fun g _ -> Hashtbl.replace roots (find p.p_parent g) ())
    p.p_parent;
  {
    shards = Array.make k [||];
    events = p.p_events;
    granule = p.p_granule;
    sync_ops = p.p_sync_ops;
    allocs = p.p_allocs;
    frees = p.p_frees;
    super_granules = Hashtbl.length roots;
    straddling = p.p_straddling;
  }

let split ~shards:k ~granule events =
  if k < 1 then invalid_arg "Trace_shard.split: shards must be >= 1";
  if not (is_pow2 granule) then
    invalid_arg "Trace_shard.split: granule must be a power of two";
  let gshift = log2 granule in
  let parent = Hashtbl.create 256 in
  let straddling = ref 0 in
  (* pass 1: weld granules linked by a straddling access *)
  Array.iter
    (fun ev ->
      match ev with
      | Event.Access { addr; size; _ } ->
        let g0 = addr lsr gshift in
        let g1 = (addr + Int.max size 1 - 1) lsr gshift in
        if g1 > g0 then begin
          incr straddling;
          for g = g0 to g1 - 1 do
            union parent g (g + 1)
          done
        end
      | Event.Acquire _ | Event.Release _ | Event.Fork _ | Event.Join _
      | Event.Alloc _ | Event.Free _ | Event.Thread_exit _ -> ())
    events;
  (* [Hashtbl.hash] on an int is deterministic across runs and
     processes, so the shard assignment — and therefore every
     downstream artifact — is reproducible. *)
  let shard_of_addr addr =
    if k = 1 then 0 else Hashtbl.hash (find parent (addr lsr gshift)) mod k
  in
  let bufs = Array.make k [] in
  let lens = Array.make k 0 in
  let push s cell =
    bufs.(s) <- cell :: bufs.(s);
    lens.(s) <- lens.(s) + 1
  in
  let broadcast cell =
    for s = 0 to k - 1 do
      push s cell
    done
  in
  let sync_ops = ref 0 and allocs = ref 0 and frees = ref 0 in
  (* pass 2: route.  Accesses go to the owner of their super-granule;
     sync events are broadcast so every shard's [Vc_env] replays the
     exact sequential clock history; alloc/free are broadcast too —
     dropping shadow state for a range the shard does not own is a
     no-op, and the event counts are small. *)
  Array.iteri
    (fun off ev ->
      let cell = (off, ev) in
      match ev with
      | Event.Access { addr; _ } -> push (shard_of_addr addr) cell
      | Event.Acquire _ | Event.Release _ | Event.Fork _ | Event.Join _
      | Event.Thread_exit _ ->
        incr sync_ops;
        broadcast cell
      | Event.Alloc _ ->
        incr allocs;
        broadcast cell
      | Event.Free _ ->
        incr frees;
        broadcast cell)
    events;
  let shards =
    Array.mapi
      (fun s cells ->
        let n = lens.(s) in
        match cells with
        | [] -> [||]
        | last :: _ ->
          let a = Array.make n last in
          let i = ref (n - 1) in
          List.iter
            (fun c ->
              a.(!i) <- c;
              decr i)
            cells;
          a)
      bufs
  in
  let roots = Hashtbl.create 64 in
  Hashtbl.iter (fun g _ -> Hashtbl.replace roots (find parent g) ()) parent;
  {
    shards;
    events = Array.length events;
    granule;
    sync_ops = !sync_ops;
    allocs = !allocs;
    frees = !frees;
    super_granules = Hashtbl.length roots;
    straddling = !straddling;
  }
