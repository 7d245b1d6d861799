(* Shadow memory: the Fig. 4 indexing structure, the same-epoch
   bitmaps, and the accounting that feeds Tables 2 and 3. *)

open Dgrace_shadow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Shadow_table, fixed mode *)

let test_fixed_set_get () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Alcotest.(check (option int)) "absent" None (Shadow_table.get t 0x1000);
  Shadow_table.set t 0x1001 7;
  (* slot covers the whole word *)
  Alcotest.(check (option int)) "same slot" (Some 7) (Shadow_table.get t 0x1003);
  Alcotest.(check (option int)) "next slot" None (Shadow_table.get t 0x1004);
  Alcotest.(check (pair int int)) "slot bounds" (0x1000, 0x1004)
    (Shadow_table.slot_bounds t 0x1002)

let test_set_range_remove_range () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1000 ~hi:0x1100 1;
  check_int "entries span blocks" 2 (Shadow_table.entry_count t);
  Alcotest.(check (option int)) "covered" (Some 1) (Shadow_table.get t 0x10fc);
  Shadow_table.remove_range t ~lo:0x1000 ~hi:0x1100;
  Alcotest.(check (option int)) "removed" None (Shadow_table.get t 0x1050);
  check_int "empty entries dropped" 0 (Shadow_table.entry_count t)

let test_partial_remove_keeps_entry () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1000 ~hi:0x1080 1;
  Shadow_table.remove_range t ~lo:0x1000 ~hi:0x1040;
  check_int "entry kept" 1 (Shadow_table.entry_count t);
  Alcotest.(check (option int)) "tail kept" (Some 1) (Shadow_table.get t 0x1060)

(* ------------------------------------------------------------------ *)
(* Adaptive mode: m/4 -> m expansion *)

let test_adaptive_expansion () =
  let a = Accounting.create () in
  let t = Shadow_table.create ~mode:Shadow_table.Adaptive ~account:a () in
  Shadow_table.set t 0x1000 1;
  Alcotest.(check (pair int int)) "word slots initially" (0x1000, 0x1004)
    (Shadow_table.slot_bounds t 0x1001);
  let before = Shadow_table.bytes t in
  (* a sub-word access expands the entry to byte slots *)
  Shadow_table.ensure_granularity t ~addr:0x1001 ~size:1;
  Alcotest.(check (pair int int)) "byte slots after" (0x1001, 0x1002)
    (Shadow_table.slot_bounds t 0x1001);
  check_bool "index grew" true (Shadow_table.bytes t > before);
  (* the old word's pointer is inherited by each of its bytes *)
  Alcotest.(check (option int)) "byte 0" (Some 1) (Shadow_table.get t 0x1000);
  Alcotest.(check (option int)) "byte 3" (Some 1) (Shadow_table.get t 0x1003);
  Alcotest.(check (option int)) "byte 4" None (Shadow_table.get t 0x1004)

let test_adaptive_word_access_no_expansion () =
  let t = Shadow_table.create ~mode:Shadow_table.Adaptive () in
  Shadow_table.set t 0x2000 1;
  Shadow_table.ensure_granularity t ~addr:0x2000 ~size:4;
  Alcotest.(check (pair int int)) "still word slots" (0x2000, 0x2004)
    (Shadow_table.slot_bounds t 0x2000);
  Shadow_table.ensure_granularity t ~addr:0x2008 ~size:8;
  Alcotest.(check (pair int int)) "8-byte aligned access stays word" (0x2008, 0x200c)
    (Shadow_table.slot_bounds t 0x2008)

let test_adaptive_precreates_byte_entry () =
  let t = Shadow_table.create ~mode:Shadow_table.Adaptive () in
  Shadow_table.ensure_granularity t ~addr:0x3001 ~size:1;
  Alcotest.(check (pair int int)) "fresh entry at byte slots" (0x3001, 0x3002)
    (Shadow_table.slot_bounds t 0x3001)

(* Regression for the x264-style packed-field scenario at offset 2:
   even but not word-aligned.  The old default-granularity predicate
   keyed on [addr land 1], so a byte access at base+2 reaching [set]
   without a prior [ensure_granularity] landed in a word slot and was
   masked into its neighbours.  The predicate is now the same
   [addr land 3] test everywhere. *)
let test_offset2_set_without_ensure () =
  let t = Shadow_table.create ~mode:Shadow_table.Adaptive () in
  Alcotest.(check (pair int int)) "fresh offset-2 slot is byte-wide"
    (0x5002, 0x5003)
    (Shadow_table.slot_bounds t 0x5002);
  Shadow_table.set t 0x5002 7;
  Alcotest.(check (pair int int)) "slot stays byte-wide" (0x5002, 0x5003)
    (Shadow_table.slot_bounds t 0x5002);
  Alcotest.(check (option int)) "word base not claimed" None
    (Shadow_table.get t 0x5000);
  Alcotest.(check (option int)) "neighbouring byte not claimed" None
    (Shadow_table.get t 0x5003);
  Alcotest.(check (option int)) "value stored" (Some 7)
    (Shadow_table.get t 0x5002);
  (* same access against an existing word page expands it in place *)
  Shadow_table.set t 0x5100 1;
  Shadow_table.set t 0x5102 9;
  Alcotest.(check (pair int int)) "existing page refined" (0x5102, 0x5103)
    (Shadow_table.slot_bounds t 0x5102);
  Alcotest.(check (option int)) "word value inherited" (Some 1)
    (Shadow_table.get t 0x5101);
  Alcotest.(check (option int)) "offset-2 byte overwritten" (Some 9)
    (Shadow_table.get t 0x5102)

(* ------------------------------------------------------------------ *)
(* Neighbours and group *)

let test_neighbors () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x1000 1;
  Shadow_table.set t 0x1008 2;
  (match Shadow_table.prev_neighbor t 0x1008 with
   | Some (lo, hi, v) ->
     check_int "prev lo" 0x1000 lo;
     check_int "prev hi" 0x1004 hi;
     check_int "prev v" 1 v
   | None -> Alcotest.fail "expected prev neighbor");
  (match Shadow_table.next_neighbor t 0x1000 with
   | Some (lo, _, v) ->
     check_int "next lo" 0x1008 lo;
     check_int "next v" 2 v
   | None -> Alcotest.fail "expected next neighbor");
  check_bool "no prev of first" true (Shadow_table.prev_neighbor t 0x1000 = None)

let test_neighbor_scan_is_bounded () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x1000 1;
  (* a value far away is beyond the bounded neighbourhood *)
  check_bool "too far" true (Shadow_table.prev_neighbor t 0x1060 = None)

let test_neighbor_crosses_block () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x107c 5;
  (* 0x1080 is the next 128-byte block *)
  match Shadow_table.prev_neighbor t 0x1080 with
  | Some (lo, _, v) ->
    check_int "lo" 0x107c lo;
    check_int "v" 5 v
  | None -> Alcotest.fail "expected neighbor across block boundary"

(* The documented radius is exactly [scan_limit = 4] slots, crossing
   block boundaries: a value 4 slots away is found, 5 slots away is
   not, regardless of where the block boundary falls. *)
let test_neighbor_exact_radius () =
  let probe = 0x1084 in
  let within = [ 0x1080; 0x107c; 0x1078; 0x1074 ] in
  List.iter
    (fun a ->
      let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
      Shadow_table.set t a 1;
      match Shadow_table.prev_neighbor t probe with
      | Some (lo, _, _) ->
        check_int (Printf.sprintf "found at 0x%x" a) a lo
      | None -> Alcotest.fail (Printf.sprintf "0x%x is within the radius" a))
    within;
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x1070 1;
  check_bool "5 slots back is out of radius" true
    (Shadow_table.prev_neighbor t probe = None);
  (* and forward, 4 slots into the next block *)
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x108c 2;
  (match Shadow_table.next_neighbor t 0x107c with
   | Some (lo, _, _) -> check_int "4 slots forward across block" 0x108c lo
   | None -> Alcotest.fail "4th slot forward is within the radius");
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x1090 2;
  check_bool "5 slots forward is out of radius" true
    (Shadow_table.next_neighbor t 0x107c = None)

(* A fully-released neighbouring block must answer exactly like a
   never-touched one — sharing decisions in the dynamic detector
   would otherwise depend on allocation history. *)
let test_dropped_equals_untouched () =
  let mk populate =
    let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
    Shadow_table.set t 0x2000 1;
    Shadow_table.set t 0x207c 3;
    if populate then begin
      Shadow_table.set_range t ~lo:0x2080 ~hi:0x2100 2;
      Shadow_table.remove_range t ~lo:0x2080 ~hi:0x2100
    end;
    t
  in
  let dropped = mk true and untouched = mk false in
  check_int "released block is gone"
    (Shadow_table.entry_count untouched)
    (Shadow_table.entry_count dropped);
  List.iter
    (fun probe ->
      check_bool
        (Printf.sprintf "prev at 0x%x" probe)
        true
        (Shadow_table.prev_neighbor dropped probe
        = Shadow_table.prev_neighbor untouched probe);
      check_bool
        (Printf.sprintf "next at 0x%x" probe)
        true
        (Shadow_table.next_neighbor dropped probe
        = Shadow_table.next_neighbor untouched probe))
    [ 0x2000; 0x2004; 0x2078; 0x2084; 0x2090; 0x2100; 0x2104 ]

let test_group () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1000 ~hi:0x1010 1;
  Shadow_table.set_range t ~lo:0x1010 ~hi:0x1018 2;
  let glo, ghi, v = Shadow_table.group t 0x1004 ~hi:0x1020 in
  check_int "group lo" 0x1004 glo;
  check_int "group hi stops at other cell" 0x1010 ghi;
  check_bool "value" true (v = Some 1);
  let glo, ghi, v = Shadow_table.group t 0x1018 ~hi:0x1030 in
  check_int "empty group lo" 0x1018 glo;
  check_int "empty group extends" 0x1030 ghi;
  check_bool "empty value" true (v = None)

let test_group_clips_to_slot_boundary () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1000 ~hi:0x1040 9;
  let glo, ghi, _ = Shadow_table.group t 0x1006 ~hi:0x1007 in
  check_int "lo aligned" 0x1004 glo;
  check_int "hi rounded up to slot" 0x1008 ghi

let test_group_crosses_blocks () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1000 ~hi:0x1200 3;
  let _, ghi, v = Shadow_table.group t 0x1000 ~hi:0x1200 in
  check_int "crosses two blocks" 0x1200 ghi;
  check_bool "same value" true (v = Some 3)

(* ------------------------------------------------------------------ *)
(* Range-boundary contracts (documented in shadow_table.mli) *)

(* Fixed mode: the slot is the atomic unit, boundaries widen outward. *)
let test_fixed_range_boundaries_widen () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1002 ~hi:0x1006 1;
  Alcotest.(check (option int)) "lo widened to slot" (Some 1)
    (Shadow_table.get t 0x1000);
  Alcotest.(check (option int)) "hi widened to slot" (Some 1)
    (Shadow_table.get t 0x1007);
  Alcotest.(check (option int)) "next slot untouched" None
    (Shadow_table.get t 0x1008);
  Shadow_table.remove_range t ~lo:0x1002 ~hi:0x1006;
  Alcotest.(check (option int)) "remove widens too" None
    (Shadow_table.get t 0x1000);
  check_int "no entries left" 0 (Shadow_table.entry_count t)

(* Adaptive mode: ranges are byte-exact in both directions. *)
let test_adaptive_range_boundaries_exact () =
  let t = Shadow_table.create ~mode:Shadow_table.Adaptive () in
  (* unaligned lo: the stamp starts exactly at lo *)
  Shadow_table.set_range t ~lo:0x6002 ~hi:0x6010 1;
  Alcotest.(check (option int)) "byte below lo untouched" None
    (Shadow_table.get t 0x6001);
  Alcotest.(check (option int)) "lo stamped" (Some 1) (Shadow_table.get t 0x6002);
  (* unaligned hi: the stamp ends exactly at hi *)
  Shadow_table.set_range t ~lo:0x6010 ~hi:0x6016 2;
  Alcotest.(check (option int)) "hi-1 stamped" (Some 2) (Shadow_table.get t 0x6015);
  Alcotest.(check (option int)) "hi untouched" None (Shadow_table.get t 0x6016);
  (* removal cuts an occupied word slot exactly, in both directions *)
  let t2 = Shadow_table.create ~mode:Shadow_table.Adaptive () in
  Shadow_table.set_range t2 ~lo:0x7000 ~hi:0x7010 9;
  Shadow_table.remove_range t2 ~lo:0x7000 ~hi:0x7006;
  Alcotest.(check (option int)) "cleared below unaligned hi" None
    (Shadow_table.get t2 0x7005);
  Alcotest.(check (option int)) "kept at unaligned hi" (Some 9)
    (Shadow_table.get t2 0x7006);
  Shadow_table.remove_range t2 ~lo:0x700a ~hi:0x7010;
  Alcotest.(check (option int)) "kept below unaligned lo" (Some 9)
    (Shadow_table.get t2 0x7009);
  Alcotest.(check (option int)) "cleared at unaligned lo" None
    (Shadow_table.get t2 0x700a);
  (* full removal still releases the page *)
  Shadow_table.remove_range t2 ~lo:0x7006 ~hi:0x700a;
  check_int "page released after exact clears" 0
    (Shadow_table.entry_count t2)

let test_iter_range () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x1000 1;
  Shadow_table.set t 0x1004 2;
  Shadow_table.set t 0x1010 3;
  let acc = ref [] in
  Shadow_table.iter_range (fun lo _ v -> acc := (lo, v) :: !acc) t ~lo:0x1000 ~hi:0x1008;
  Alcotest.(check (list (pair int int))) "only intersecting slots"
    [ (0x1000, 1); (0x1004, 2) ] (List.rev !acc)

(* model-based: adaptive table vs a plain per-byte Hashtbl *)
let model_test =
  let open QCheck in
  Test.make ~name:"shadow table agrees with per-byte model" ~count:200
    (small_list
       (triple (int_bound 2) (int_bound 512) (int_bound 3)))
    (fun ops ->
      let t = Shadow_table.create ~mode:Shadow_table.Adaptive () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let base = 0x4000 in
      List.iter
        (fun (op, off, szi) ->
          let addr = base + off in
          let size = [| 1; 2; 4; 8 |].(szi) in
          match op with
          | 0 ->
            Shadow_table.ensure_granularity t ~addr ~size;
            let lo, hi = Shadow_table.slot_bounds t addr in
            let lo2, hi2 = (min lo addr, max hi (addr + size)) in
            Shadow_table.set_range t ~lo:lo2 ~hi:hi2 off;
            for a = lo2 to hi2 - 1 do Hashtbl.replace model a off done
          | 1 ->
            (* adaptive removal is byte-exact: the model drops exactly
               the requested bytes *)
            Shadow_table.remove_range t ~lo:addr ~hi:(addr + size);
            for a = addr to addr + size - 1 do Hashtbl.remove model a done
          | _ ->
            let got = Shadow_table.get t addr in
            let expect = Hashtbl.find_opt model addr in
            if got <> expect then
              Test.fail_reportf "get 0x%x: got %s, expected %s" addr
                (match got with Some v -> string_of_int v | None -> "-")
                (match expect with Some v -> string_of_int v | None -> "-"))
        ops;
      true)

(* Differential property: the Adaptive table against a [Fixed_bytes 1]
   reference driven through the same access/free sequence must make
   identical per-byte observations — same [get], compatible [group]
   claims, and the adaptive index never outgrows the byte index. *)
let differential_test =
  let open QCheck in
  Test.make ~name:"adaptive agrees with Fixed_bytes 1 reference" ~count:200
    (small_list (triple (int_bound 4) (int_bound 700) (int_bound 3)))
    (fun ops ->
      let adaptive = Shadow_table.create ~mode:Shadow_table.Adaptive () in
      let byte = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 1) () in
      let base = 0x8000 in
      let limit = base + 704 + 8 in
      List.iter
        (fun (op, off, szi) ->
          let addr = base + off in
          let size = [| 1; 2; 4; 8 |].(szi) in
          (match op with
          | 0 ->
            (* detector protocol: refine, then stamp the exact range *)
            Shadow_table.ensure_granularity adaptive ~addr ~size;
            Shadow_table.set_range adaptive ~lo:addr ~hi:(addr + size) off;
            Shadow_table.set_range byte ~lo:addr ~hi:(addr + size) off
          | 1 ->
            (* range op without a prior ensure: self-refining *)
            Shadow_table.set_range adaptive ~lo:addr ~hi:(addr + size) off;
            Shadow_table.set_range byte ~lo:addr ~hi:(addr + size) off
          | 2 ->
            Shadow_table.remove_range adaptive ~lo:addr ~hi:(addr + size);
            Shadow_table.remove_range byte ~lo:addr ~hi:(addr + size)
          | 3 ->
            (* point set: mirror the slot the adaptive table stamps *)
            Shadow_table.set adaptive addr off;
            let slo, shi = Shadow_table.slot_bounds adaptive addr in
            Shadow_table.set_range byte ~lo:slo ~hi:shi off
          | _ ->
            let got = Shadow_table.get adaptive addr in
            let expect = Shadow_table.get byte addr in
            if got <> expect then
              Test.fail_reportf "get 0x%x: adaptive %s, reference %s" addr
                (match got with Some v -> string_of_int v | None -> "-")
                (match expect with Some v -> string_of_int v | None -> "-"));
          (* group's claim must hold byte-for-byte in the reference *)
          let glo, ghi, v = Shadow_table.group adaptive addr ~hi:limit in
          if not (glo <= addr && addr < ghi) then
            Test.fail_reportf "group 0x%x: [0x%x,0x%x) misses the address"
              addr glo ghi;
          for a = glo to min ghi limit - 1 do
            if Shadow_table.get byte a <> v then
              Test.fail_reportf
                "group 0x%x claims [0x%x,0x%x)=%s but reference differs at \
                 0x%x"
                addr glo ghi
                (match v with Some v -> string_of_int v | None -> "-")
                a
          done;
          (* index accounting: non-negative and never above per-byte *)
          if Shadow_table.bytes adaptive < 0 then
            Test.fail_reportf "negative adaptive bytes";
          if Shadow_table.bytes adaptive > Shadow_table.bytes byte then
            Test.fail_reportf "adaptive index (%d B) outgrew byte index (%d B)"
              (Shadow_table.bytes adaptive)
              (Shadow_table.bytes byte))
        ops;
      (* full teardown converges both to the empty table *)
      Shadow_table.remove_range adaptive ~lo:base ~hi:limit;
      Shadow_table.remove_range byte ~lo:base ~hi:limit;
      Shadow_table.entry_count adaptive = 0
      && Shadow_table.bytes adaptive = 0
      && Shadow_table.entry_count byte = 0)

(* ------------------------------------------------------------------ *)
(* Epoch bitmap *)

let test_bitmap_planes () =
  let b = Epoch_bitmap.create () in
  Epoch_bitmap.mark b ~write:false ~lo:100 ~hi:104;
  check_bool "read marked" true (Epoch_bitmap.test b ~write:false 102);
  check_bool "write plane untouched" false (Epoch_bitmap.test b ~write:true 102);
  check_bool "outside" false (Epoch_bitmap.test b ~write:false 104);
  Epoch_bitmap.mark b ~write:true ~lo:102 ~hi:103;
  check_bool "write marked" true (Epoch_bitmap.test b ~write:true 102);
  check_bool "read still marked" true (Epoch_bitmap.test b ~write:false 102);
  Epoch_bitmap.reset b;
  check_bool "reset clears" false (Epoch_bitmap.test b ~write:false 102);
  check_int "reset releases storage" 0 (Epoch_bitmap.bytes b)

(* The epoch cadence reuses chunk storage through the pool instead of
   re-allocating: directory and chunks persist across resets. *)
let test_bitmap_reset_recycles () =
  let b = Epoch_bitmap.create () in
  Epoch_bitmap.mark b ~write:true ~lo:100 ~hi:2100;
  let first = Epoch_bitmap.bytes b in
  check_bool "chunks allocated" true (first > 0);
  Epoch_bitmap.reset b;
  check_int "footprint zero after reset" 0 (Epoch_bitmap.bytes b);
  Epoch_bitmap.mark b ~write:true ~lo:100 ~hi:2100;
  check_int "same footprint next epoch" first (Epoch_bitmap.bytes b);
  check_bool "second epoch marks visible" true
    (Epoch_bitmap.test b ~write:true 1500);
  let s = Epoch_bitmap.stats b in
  check_bool "chunks were recycled, not re-allocated" true
    (s.Epoch_bitmap.chunk_recycles > 0);
  check_int "no extra allocations for the second epoch"
    s.Epoch_bitmap.chunks_live s.Epoch_bitmap.chunk_recycles

let bitmap_model =
  let open QCheck in
  Test.make ~name:"bitmap mark/test agrees with model" ~count:200
    (small_list (triple bool (int_bound 5000) (int_bound 600)))
    (fun ranges ->
      let b = Epoch_bitmap.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (write, lo, len) ->
          Epoch_bitmap.mark b ~write ~lo ~hi:(lo + len);
          for a = lo to lo + len - 1 do Hashtbl.replace model (write, a) () done)
        ranges;
      let ok = ref true in
      for a = 0 to 5700 do
        List.iter
          (fun write ->
            if Epoch_bitmap.test b ~write a <> Hashtbl.mem model (write, a) then
              ok := false)
          [ true; false ]
      done;
      !ok)

(* [mark] ORs a chunk's bytes: per address for the head and tail that
   do not fill a byte, a whole byte (4 addresses) for the body.
   Against a per-address reference: marks start and end at any residue
   mod 4 and mod 32, cross chunk boundaries (small blocks make those
   frequent), often span more than 32 addresses, and may first fill
   the whole window of the other plane, which must survive untouched.
   [test_range] probes the endpoints of the range, so it is checked
   against the reference at both ends. *)
let marking_law =
  let open QCheck in
  let gen =
    let open Gen in
    let* block = oneofl [ 16; 64; 256; 1024 ] in
    let window = 8 * block in
    let gen_mark =
      let* write = bool in
      let* lo =
        oneof
          [
            int_bound (4 * block);
            (* just around a chunk boundary *)
            map2
              (fun c d -> Int.max 0 ((c * block) + d))
              (int_range 1 4) (int_range (-40) 40);
          ]
      in
      let* len =
        oneof [ int_bound 8; int_range 9 40; int_range 33 (3 * block) ]
      in
      return (write, lo, Int.min window (lo + len))
    in
    let* preset = opt bool in
    let* marks = list_size (int_range 1 12) gen_mark in
    return (block, preset, marks)
  in
  let print (block, preset, marks) =
    Printf.sprintf "block %d, preset %s, marks [%s]" block
      (match preset with
       | None -> "none"
       | Some w -> if w then "write" else "read")
      (String.concat "; "
         (List.map
            (fun (w, lo, hi) ->
              Printf.sprintf "%s [%d, %d)" (if w then "w" else "r") lo hi)
            marks))
  in
  Test.make ~name:"bitmap marking = per-address marking" ~count:300
    (make ~print gen) (fun (block, preset, marks) ->
      let window = 8 * block in
      let b = Epoch_bitmap.create ~block () in
      let reference = [| Array.make window false; Array.make window false |] in
      let plane write = reference.(if write then 1 else 0) in
      let mark write lo hi =
        Epoch_bitmap.mark b ~write ~lo ~hi;
        Array.fill (plane write) lo (hi - lo) true
      in
      Option.iter (fun write -> mark write 0 window) preset;
      List.iter (fun (write, lo, hi) -> mark write lo hi) marks;
      let ok = ref true in
      List.iter
        (fun write ->
          let r = plane write in
          for a = 0 to window - 1 do
            if Epoch_bitmap.test b ~write a <> r.(a) then ok := false;
            List.iter
              (fun d ->
                let hi = a + d in
                if hi < window then begin
                  let expect = r.(a) && r.(hi) in
                  if Epoch_bitmap.test_range b ~write ~lo:a ~hi <> expect then
                    ok := false
                end)
              [ 0; 1; 3; 7; 31; 33 ]
          done)
        [ false; true ];
      !ok)

(* ------------------------------------------------------------------ *)
(* Accounting *)

let test_accounting_peaks () =
  let a = Accounting.create () in
  Accounting.add_vc a 100;
  Accounting.add_hash a 50;
  Accounting.add_vc a (-80);
  check_int "current" 70 (Accounting.current_bytes a);
  check_int "peak" 150 (Accounting.peak_bytes a);
  check_int "peak vc" 100 (Accounting.peak_vc_bytes a);
  Accounting.vc_created a;
  Accounting.vc_created a;
  Accounting.vc_freed a;
  check_int "live" 1 (Accounting.live_vcs a);
  check_int "peak vcs" 2 (Accounting.peak_vcs a);
  Accounting.bind_locations a 10;
  Alcotest.(check (float 0.001)) "avg sharing" 5.0 (Accounting.avg_sharing a);
  Accounting.reset a;
  check_int "reset" 0 (Accounting.peak_bytes a)

let suites : unit Alcotest.test list =
    [
      ( "shadow.fixed",
        [
          Alcotest.test_case "set/get" `Quick test_fixed_set_get;
          Alcotest.test_case "set_range/remove_range" `Quick test_set_range_remove_range;
          Alcotest.test_case "partial remove" `Quick test_partial_remove_keeps_entry;
        ] );
      ( "shadow.adaptive",
        [
          Alcotest.test_case "sub-word access expands" `Quick test_adaptive_expansion;
          Alcotest.test_case "word access stays" `Quick test_adaptive_word_access_no_expansion;
          Alcotest.test_case "pre-creates byte entry" `Quick test_adaptive_precreates_byte_entry;
          Alcotest.test_case "offset-2 set without ensure" `Quick test_offset2_set_without_ensure;
        ] );
      ( "shadow.ranges",
        [
          Alcotest.test_case "fixed boundaries widen" `Quick test_fixed_range_boundaries_widen;
          Alcotest.test_case "adaptive boundaries exact" `Quick test_adaptive_range_boundaries_exact;
        ] );
      ( "shadow.navigation",
        [
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "bounded scan" `Quick test_neighbor_scan_is_bounded;
          Alcotest.test_case "cross-block neighbor" `Quick test_neighbor_crosses_block;
          Alcotest.test_case "exact scan radius" `Quick test_neighbor_exact_radius;
          Alcotest.test_case "dropped equals untouched" `Quick test_dropped_equals_untouched;
          Alcotest.test_case "group runs" `Quick test_group;
          Alcotest.test_case "group slot clipping" `Quick test_group_clips_to_slot_boundary;
          Alcotest.test_case "group across blocks" `Quick test_group_crosses_blocks;
          Alcotest.test_case "iter_range" `Quick test_iter_range;
          QCheck_alcotest.to_alcotest model_test;
          QCheck_alcotest.to_alcotest differential_test;
        ] );
      ( "shadow.bitmap",
        [
          Alcotest.test_case "planes and reset" `Quick test_bitmap_planes;
          Alcotest.test_case "reset recycles chunks" `Quick test_bitmap_reset_recycles;
          QCheck_alcotest.to_alcotest bitmap_model;
          QCheck_alcotest.to_alcotest marking_law;
        ] );
      ( "shadow.accounting",
        [ Alcotest.test_case "peaks and sharing" `Quick test_accounting_peaks ] );
    ]
