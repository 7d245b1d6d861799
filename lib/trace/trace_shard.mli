(** Single-pass-per-stage shard splitter for the offline parallel
    replay ({!Dgrace_par}).

    The address space is cut into aligned [granule]-byte lines and each
    line's accesses are routed to one shard by hashing the line id.  An
    access that straddles a line boundary welds the lines it touches
    into one {e super-granule} (union-find) so the whole group lands on
    a single shard.  Synchronisation events — acquire/release, fork,
    join, thread exit — are {e broadcast} to every shard: thread and
    lock vector clocks advance only on those events, so each shard
    replays the exact sequential clock history and analyses its
    accesses against bit-identical happens-before state.  Alloc/free
    are broadcast too (dropping shadow state for an unowned range is a
    no-op).

    Every routed event carries its offset in the original trace, which
    is what makes the merged race report order deterministic
    (doc/parallel.md). *)

open Dgrace_events

type t = {
  shards : (int * Event.t) array array;
      (** per-shard [(global_offset, event)] streams, trace order *)
  events : int;  (** events in the input *)
  granule : int;  (** line size the split used *)
  sync_ops : int;
      (** global sync-event count — per-shard counts would K-count the
          broadcasts, so the merged {!Dgrace_detectors.Run_stats.t}
          takes these instead *)
  allocs : int;
  frees : int;
  super_granules : int;  (** welded (multi-line) super-granules *)
  straddling : int;  (** accesses that straddled a line boundary *)
}

val batches_of : ?capacity:int -> (int * Event.t) array -> Batch.t array
(** Pack one shard's stream into {!Batch.t} struct-of-arrays buffers
    (capacity {!Batch.default_capacity} each) for the detectors'
    [process_batch] fast path; stream offsets become the batch [off]
    column, so race attribution is unchanged. *)

(** {1 Streaming planner} — the router of the pipelined sharded
    replay ([Dgrace_par.Par.analyze_pipelined]): fold decoded batches
    to learn the straddle welds and broadcast counts, and route rows
    with {!plan_shard}.  Once every batch was planned, routing agrees
    exactly with {!split} on the same stream (same union-find, same
    [Hashtbl.hash]).  Before that, it agrees as long as no row of the
    stream straddles: every line is then its own root. *)

type planner

val planner : granule:int -> unit -> planner
(** @raise Invalid_argument if [granule] is not a power of two. *)

val plan_batch : planner -> Batch.t -> unit
(** Fold one decoded batch: weld straddle-linked granule lines, count
    sync/alloc/free rows. *)

val straddling : planner -> int
(** Rows planned so far that straddled a line boundary.  The first
    one may move lines routed earlier, so a router that plans as it
    goes must restart once this is non-zero. *)

val plan_shard : planner -> shards:int -> int -> int
(** [plan_shard p ~shards addr] — the owning shard of [addr] under the
    welds planned so far.  Deterministic. *)

val plan_stats : planner -> shards:int -> t
(** Freeze the planner into a {!t} carrying the counts the merge
    needs; the per-shard streams are left empty (the pipelined replay
    never materialises them). *)

val split : shards:int -> granule:int -> Event.t array -> t
(** [split ~shards:k ~granule events] routes every event as above.
    Deterministic: the same input always yields the same shards
    ([Hashtbl.hash] on line ids is stable across runs and processes).
    With [k = 1] shard 0 is exactly the input stream.
    @raise Invalid_argument if [k < 1] or [granule] is not a power of
    two. *)
