(* The calibration kernel.

   The reference box is a 2-vCPU VM whose host runs other tenants on
   the same cores.  Their load changes the speed of memory-bound code
   by 15-30% within seconds (a pure arithmetic loop moves by 3%), so a
   raw wall time says as much about the neighbours as about dgrace.
   The harness therefore runs this fixed kernel between its timed
   steps and scales every time to the speed the kernel saw around it.

   The kernel is plain Stdlib code that never changes with the
   program under test: it sorts tuples with polymorphic compare and
   fills a hash table, which allocates, chases pointers and branches
   the way the detectors do.  One run takes about 0.08 s on the
   reference box. *)

let sort_kernel () =
  let a = Array.init 60_000 (fun i -> ((i * 7919) land 0xffff, string_of_int i)) in
  Array.sort compare a;
  fst a.(0)

let table_kernel () =
  let h = Hashtbl.create 16 in
  let x = ref 7 in
  for i = 1 to 120_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace h (!x land 0xfffff) i
  done;
  Hashtbl.length h

(* The kernel's time on the reference box when its neighbours are
   quiet.  Scaled times read as if measured at that speed. *)
let reference_s = 0.08

(* One timed run of the kernel, from a collected heap. *)
let time () =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (sort_kernel ()));
  ignore (Sys.opaque_identity (table_kernel ()));
  Unix.gettimeofday () -. t0
