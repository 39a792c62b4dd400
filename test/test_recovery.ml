open Helpers
module Fault = Lld_disk.Fault
module Recovery = Lld_core.Recovery

(* Crash the device, then mount again. *)
let test_recover_freshly_formatted () =
  let disk, lld = fresh_lld () in
  ignore lld;
  Disk.crash disk;
  let lld2, report = Lld.recover disk in
  Alcotest.(check int) "nothing allocated" 0 (Lld.allocated_blocks lld2);
  Alcotest.(check int) "no ARUs committed" 0 report.Recovery.arus_committed

let test_recover_unformatted_disk_rejected () =
  let disk = fresh_disk () in
  Alcotest.check_raises "unformatted"
    (Errors.Corrupt "no valid checkpoint: disk not formatted") (fun () ->
      ignore (Lld.recover disk))

let test_flushed_data_survives () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let blocks =
    List.init 10 (fun i ->
        let b = append_block lld l in
        Lld.write lld b (block_data i);
        b)
  in
  Lld.flush lld;
  Disk.crash disk;
  let lld2, _ = Lld.recover disk in
  Alcotest.(check bool) "list survives" true (Lld.list_exists lld2 l);
  Alcotest.(check int) "all blocks on list" 10
    (List.length (Lld.list_blocks lld2 l));
  List.iteri
    (fun i b ->
      check_data (Printf.sprintf "block %d data" i) (block_data i)
        (Lld.read lld2 b))
    blocks

let test_unflushed_data_lost () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let b = append_block lld l in
  Lld.write lld b (block_data 1);
  Lld.flush lld;
  Lld.write lld b (block_data 2) (* committed but never flushed *);
  Disk.crash disk;
  let lld2, _ = Lld.recover disk in
  check_data "recovers the persistent version" (block_data 1) (Lld.read lld2 b)

let test_committed_aru_survives_crash () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let a = Lld.begin_aru lld in
  let b = Lld.new_block lld ~aru:a ~list:l ~pred:Summary.Head () in
  Lld.write lld ~aru:a b (block_data 42);
  Lld.end_aru lld a;
  Lld.flush lld;
  Disk.crash disk;
  let lld2, report = Lld.recover disk in
  Alcotest.(check bool) "ARU replayed" true (report.Recovery.arus_committed >= 1);
  Alcotest.check block_ids "list intact" [ b ] (Lld.list_blocks lld2 l);
  check_data "ARU data recovered" (block_data 42) (Lld.read lld2 b)

let test_uncommitted_aru_all_or_nothing () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let b0 = append_block lld l in
  Lld.write lld b0 (block_data 0);
  Lld.flush lld;
  (* an ARU that writes, inserts and deletes, then the system crashes
     before EndARU *)
  let a = Lld.begin_aru lld in
  Lld.write lld ~aru:a b0 (block_data 99);
  let b1 = Lld.new_block lld ~aru:a ~list:l ~pred:(Summary.After b0) () in
  Lld.write lld ~aru:a b1 (block_data 98);
  Lld.flush lld (* even a flush must not commit the ARU *);
  Disk.crash disk;
  let lld2, report = Lld.recover disk in
  check_data "write undone" (block_data 0) (Lld.read lld2 b0);
  Alcotest.check block_ids "insertion undone" [ b0 ] (Lld.list_blocks lld2 l);
  (* the block allocation was scavenged (paper §3.3) *)
  Alcotest.(check bool) "orphan allocation freed" false
    (Lld.block_allocated lld2 b1);
  Alcotest.(check bool) "scavenge counted" true
    (report.Recovery.blocks_scavenged >= 1)

let test_commit_record_not_flushed_discards_aru () =
  (* EndARU ran, but the crash hits before the commit record reaches the
     disk: recovery must discard the whole ARU *)
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let b0 = append_block lld l in
  Lld.write lld b0 (block_data 0);
  Lld.flush lld;
  let a = Lld.begin_aru lld in
  Lld.write lld ~aru:a b0 (block_data 5);
  Lld.end_aru lld a;
  (* no flush: the commit record sits in the open segment *)
  Disk.crash disk;
  let lld2, report = Lld.recover disk in
  check_data "ARU discarded wholesale" (block_data 0) (Lld.read lld2 b0);
  ignore report

let test_torn_segment_write () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let b = append_block lld l in
  Lld.write lld b (block_data 1);
  Lld.flush lld;
  let b2 = append_block lld l in
  Lld.write lld b2 (block_data 2);
  (* the next segment write is torn after 1000 bytes *)
  Fault.schedule_crash (Disk.fault disk)
    (Fault.During_write { write_index = 0; keep_bytes = 1000 });
  (try Lld.flush lld with Fault.Crashed -> ());
  let lld2, report = Lld.recover disk in
  Alcotest.(check bool) "torn segment detected" true
    (report.Recovery.invalid_segments >= 1);
  check_data "earlier state intact" (block_data 1) (Lld.read lld2 b);
  Alcotest.check block_ids "list reflects flushed prefix only" [ b ]
    (Lld.list_blocks lld2 l)

let test_multiple_crash_recover_cycles () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let lld = ref lld in
  let expected = ref [] in
  for round = 1 to 4 do
    let b = append_block !lld l in
    Lld.write !lld b (block_data round);
    Lld.flush !lld;
    expected := !expected @ [ (b, round) ];
    Disk.crash disk;
    let recovered, _ = Lld.recover disk in
    lld := recovered;
    List.iter
      (fun (b, tag) ->
        check_data
          (Printf.sprintf "round %d: block %d" round tag)
          (block_data tag)
          (Lld.read !lld b))
      !expected
  done

let test_sequential_mode_crash_semantics () =
  let config = Config.old_lld in
  let disk, lld = fresh_lld ~config () in
  let l = new_list lld in
  let b = append_block lld l in
  Lld.write lld b (block_data 1);
  Lld.flush lld;
  (* an uncommitted sequential ARU: its ops reached the log but no
     commit record did *)
  let a = Lld.begin_aru lld in
  Lld.write lld ~aru:a b (block_data 7);
  Lld.flush lld;
  ignore a;
  Disk.crash disk;
  let lld2, _ = Lld.recover ~config disk in
  check_data "uncommitted seq ARU undone" (block_data 1) (Lld.read lld2 b)

let test_sequential_mode_committed_aru_survives () =
  let config = Config.old_lld in
  let disk, lld = fresh_lld ~config () in
  let l = new_list lld in
  let a = Lld.begin_aru lld in
  let b = Lld.new_block lld ~aru:a ~list:l ~pred:Summary.Head () in
  Lld.write lld ~aru:a b (block_data 3);
  Lld.end_aru lld a;
  Lld.flush lld;
  Disk.crash disk;
  let lld2, _ = Lld.recover ~config disk in
  check_data "committed seq ARU survives" (block_data 3) (Lld.read lld2 b);
  Alcotest.check block_ids "list intact" [ b ] (Lld.list_blocks lld2 l)

let test_checkpoint_bounds_replay () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let b = append_block lld l in
  Lld.write lld b (block_data 1);
  Lld.checkpoint lld;
  let b2 = append_block lld l in
  Lld.write lld b2 (block_data 2);
  Lld.flush lld;
  Disk.crash disk;
  let lld2, report = Lld.recover disk in
  Alcotest.(check bool) "replay bounded by checkpoint" true
    (report.Recovery.covered_seq > 0);
  check_data "pre-checkpoint data" (block_data 1) (Lld.read lld2 b);
  check_data "post-checkpoint data" (block_data 2) (Lld.read lld2 b2)

let test_checkpoint_mid_aru_preserves_atomicity () =
  (* a checkpoint while an ARU is active must neither commit nor lose
     it: the pending entries travel with the checkpoint *)
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let b0 = append_block lld l in
  Lld.write lld b0 (block_data 0);
  let a = Lld.begin_aru lld in
  Lld.write lld ~aru:a b0 (block_data 50);
  Lld.checkpoint lld;
  (* crash before commit: ARU discarded *)
  Disk.crash disk;
  let lld2, _ = Lld.recover disk in
  check_data "mid-ARU checkpoint kept atomicity" (block_data 0)
    (Lld.read lld2 b0)

let test_auto_checkpoint_interval () =
  (* periodic checkpoints bound replay without any explicit call *)
  let config = { Config.default with Config.checkpoint_interval_segments = 2 } in
  let disk, lld = fresh_lld ~config () in
  let l = new_list lld in
  let ckpt0 = (Lld.counters lld).Lld_core.Counters.checkpoints in
  let blocks =
    List.init 400 (fun i ->
        let b = append_block lld l in
        Lld.write lld b (block_data i);
        b)
  in
  Lld.flush lld;
  Alcotest.(check bool) "auto checkpoints happened" true
    ((Lld.counters lld).Lld_core.Counters.checkpoints > ckpt0);
  Disk.crash disk;
  let lld2, report = Lld.recover ~config disk in
  Alcotest.(check bool) "replay bounded" true
    (report.Recovery.segments_replayed <= 3);
  List.iteri
    (fun i b -> check_data (Printf.sprintf "block %d" i) (block_data i)
        (Lld.read lld2 b))
    blocks

let test_auto_clean_keeps_disk_usable () =
  (* rewrite far more data than the partition holds: the cleaner must
     keep reclaiming dead segments automatically *)
  let geom = Geometry.v ~num_segments:16 () in
  let _, lld = fresh_lld ~geom () in
  let l = new_list lld in
  let cleaned0 = (Lld.counters lld).Lld_core.Counters.segments_cleaned in
  (* 600 live blocks rewritten repeatedly: each round dirties ~5 log
     segments of a 10-segment log, so reclamation is unavoidable *)
  let blocks = Array.init 600 (fun _ -> append_block lld l) in
  for round = 0 to 7 do
    Array.iter (fun b -> Lld.write lld b (block_data round)) blocks
  done;
  Lld.flush lld;
  Alcotest.(check bool) "cleaner ran" true
    ((Lld.counters lld).Lld_core.Counters.segments_cleaned > cleaned0);
  check_data "latest data intact" (block_data 7) (Lld.read lld blocks.(0));
  Alcotest.(check int) "list intact" 600 (List.length (Lld.list_blocks lld l))

let test_cleaner_preserves_data () =
  (* fill, delete most, force cleaning, verify remaining data *)
  let geom = Geometry.v ~num_segments:16 () in
  let config = { Config.default with Config.auto_clean = false } in
  let disk, lld = fresh_lld ~config ~geom () in
  ignore disk;
  let l = new_list lld in
  let keep = ref [] in
  List.iteri
    (fun i b ->
      Lld.write lld b (block_data i);
      if i mod 10 = 0 then keep := (b, i) :: !keep
      else Lld.delete_block lld b)
    (List.init 300 (fun _ -> append_block lld l));
  Lld.flush lld;
  let free_before = Lld.free_segments lld in
  Lld.clean lld ~target_free:(free_before + 1);
  Alcotest.(check bool) "segments reclaimed" true
    (Lld.free_segments lld > free_before);
  List.iter
    (fun (b, i) ->
      check_data (Printf.sprintf "survivor %d" i) (block_data i)
        (Lld.read lld b))
    !keep

let test_cleaner_then_crash_recovers () =
  let geom = Geometry.v ~num_segments:16 () in
  let config = { Config.default with Config.auto_clean = false } in
  let disk, lld = fresh_lld ~config ~geom () in
  let l = new_list lld in
  let keep = ref [] in
  List.iteri
    (fun i b ->
      Lld.write lld b (block_data i);
      if i mod 7 = 0 then keep := (b, i) :: !keep
      else Lld.delete_block lld b)
    (List.init 300 (fun _ -> append_block lld l));
  Lld.flush lld;
  Lld.clean lld ~target_free:(Lld.free_segments lld + 1);
  Disk.crash disk;
  let lld2, _ = Lld.recover ~config disk in
  List.iter
    (fun (b, i) ->
      check_data
        (Printf.sprintf "survivor %d after crash" i)
        (block_data i) (Lld.read lld2 b))
    !keep

(* A cleaning batch frees several segments at once; the log must reuse
   them in the order the cleaner's checkpoint recorded, or recovery
   stops its tail walk early and drops flushed data written there. *)
let test_multi_victim_clean_then_crash () =
  let geom = Geometry.v ~num_segments:20 () in
  let config = { Config.default with Config.auto_clean = false } in
  let disk, lld = fresh_lld ~config ~geom () in
  let l = new_list lld in
  List.iteri
    (fun i b -> if i mod 10 <> 0 then Lld.delete_block lld b)
    (List.init 600 (fun i ->
         let b = Lld.new_block lld ~list:l ~pred:Summary.Head () in
         Lld.write lld b (block_data i);
         b));
  Lld.flush lld;
  let free_before = Lld.free_segments lld in
  Lld.clean lld ~target_free:(free_before + 3);
  Alcotest.(check bool) "several segments reclaimed" true
    (Lld.free_segments lld >= free_before + 3);
  (* fill all but one free segment without another checkpoint *)
  let l2 = new_list lld in
  let written = (Lld.free_segments lld - 1) * 120 in
  for i = 1 to written do
    let b = Lld.new_block lld ~list:l2 ~pred:Summary.Head () in
    Lld.write lld b (block_data i)
  done;
  Lld.flush lld;
  Disk.crash disk;
  let lld2, _ = Lld.recover ~config disk in
  Alcotest.(check int) "every flushed block survives" written
    (List.length (Lld.list_blocks lld2 l2))

let test_media_error_on_checkpoint_region_falls_back () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let b = append_block lld l in
  Lld.write lld b (block_data 8);
  Lld.checkpoint lld (* region 0 holds the newest checkpoint *);
  Disk.crash disk;
  (* region written last becomes unreadable; recovery must fall back *)
  Fault.mark_bad (Disk.fault disk) ~offset:0 ~length:4096;
  let lld2, _ = Lld.recover disk in
  check_data "fell back to surviving checkpoint + replay" (block_data 8)
    (Lld.read lld2 b)

(* --- the segment log's recovery-side paths ---------------------------- *)

(* Formatting over a disk that still holds a log must start the new log
   above every old segment's sequence number, or recovery would replay
   the previous incarnation's segments. *)
let test_mkfs_over_used_disk () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  for i = 0 to 499 do
    let b = Lld.new_block lld ~list:l ~pred:Summary.Head () in
    Lld.write lld b (block_data i)
  done;
  Lld.flush lld;
  let _fresh = Lld.create disk in
  Disk.crash disk;
  let lld2, _ = Lld.recover disk in
  Alcotest.(check int) "nothing allocated" 0 (Lld.allocated_blocks lld2);
  Alcotest.(check int) "no list" 0 (List.length (Lld.lists lld2))

(* A checkpoint written while the free queue is empty carries an empty
   free order; recovery then finds the tail by scanning every log
   segment. *)
let test_empty_free_order_checkpoint () =
  let geom = Geometry.v ~num_segments:12 () in
  let config = { Config.default with Config.auto_clean = false } in
  let disk, lld = fresh_lld ~config ~geom () in
  let l = new_list lld in
  (try
     for i = 0 to max_int - 1 do
       let b = Lld.new_block lld ~list:l ~pred:Summary.Head () in
       Lld.write lld b (block_data i)
     done
   with Errors.Disk_full -> ());
  Alcotest.(check int) "free queue exhausted" 0 (Lld.free_segments lld);
  Lld.checkpoint lld;
  let allocated = Lld.allocated_blocks lld in
  Disk.crash disk;
  let lld2, _ = Lld.recover ~config disk in
  Alcotest.(check int) "allocations survive" allocated
    (Lld.allocated_blocks lld2)

(* A log segment that fails with a media error ends the tail and counts
   as one invalid segment, not two. *)
let test_tail_media_error_counted_once () =
  (* checkpoint, then three sealed tail segments *)
  let build () =
    let disk, lld = fresh_lld () in
    Lld.checkpoint lld;
    let l = new_list lld in
    let last = ref None in
    for i = 0 to 299 do
      let b = Lld.new_block lld ~list:l ~pred:Summary.Head () in
      Lld.write lld b (block_data i);
      last := Some b
    done;
    Lld.flush lld;
    match Option.bind !last (Lld.block_phys lld) with
    | Some p -> (disk, l, p)
    | None -> Alcotest.fail "last block has no location"
  in
  let disk, _, _ = build () in
  Disk.crash disk;
  let _, clean = Lld.recover disk in
  Alcotest.(check (pair int int)) "replayed, invalid without a fault" (3, 1)
    (clean.Recovery.segments_replayed, clean.Recovery.invalid_segments);
  let disk, l, (seg, slot) = build () in
  Disk.crash disk;
  Fault.mark_bad (Disk.fault disk)
    ~offset:(Geometry.segment_offset small_geom seg + (slot * block_bytes))
    ~length:block_bytes;
  let lld, report = Lld.recover disk in
  Alcotest.(check (pair int int)) "replayed, invalid with a bad slot" (2, 1)
    (report.Recovery.segments_replayed, report.Recovery.invalid_segments);
  Alcotest.(check bool) "list survives" true (Lld.list_exists lld l)

(* --- early open: reads served before the post-recovery checkpoint -- *)

module Op = Lld_core.Op
module Ops = Op.Make (Lld)

let early_config = { Config.default with Config.recovery_early_open = true }

(* A crash image with several independent lists, one committed ARU and
   one uncommitted ARU whose allocation the sweep must scavenge. *)
let build_crash_state () =
  let disk, lld = fresh_lld () in
  let mk tag =
    let l = new_list lld in
    let bs =
      List.init 6 (fun i ->
          let b = append_block lld l in
          Lld.write lld b (block_data (tag + i));
          b)
    in
    (l, bs, tag)
  in
  let groups = List.init 4 (fun g -> mk (100 * (g + 1))) in
  let l_aru = new_list lld in
  let a = Lld.begin_aru lld in
  let b_aru = Lld.new_block lld ~aru:a ~list:l_aru ~pred:Summary.Head () in
  Lld.write lld ~aru:a b_aru (block_data 7);
  Lld.end_aru lld a;
  let a2 = Lld.begin_aru lld in
  let b_orphan =
    Lld.new_block lld ~aru:a2 ~list:l_aru ~pred:(Summary.After b_aru) ()
  in
  Lld.write lld ~aru:a2 b_orphan (block_data 9);
  ignore a2 (* never committed *);
  Lld.flush lld;
  Disk.crash disk;
  (disk, groups, (l_aru, b_aru), b_orphan)

let test_early_open_serves_reads_on_demand () =
  let disk, groups, (l_aru, b_aru), b_orphan = build_crash_state () in
  let lld2, _ = Lld.recover ~config:early_config disk in
  (* reads before recovery completes *)
  List.iter
    (fun (l, bs, tag) ->
      List.iteri
        (fun i b ->
          check_data
            (Printf.sprintf "on-demand read %d" (tag + i))
            (block_data (tag + i))
            (Lld.read lld2 b))
        bs;
      Alcotest.check block_ids "on-demand list walk" bs
        (Lld.list_blocks lld2 l))
    groups;
  check_data "committed ARU served on demand" (block_data 7)
    (Lld.read lld2 b_aru);
  Alcotest.check block_ids "ARU list on demand" [ b_aru ]
    (Lld.list_blocks lld2 l_aru);
  (* the uncommitted ARU's allocation is already swept *)
  Alcotest.(check bool) "orphan swept" false
    (Lld.block_allocated lld2 b_orphan);
  (match Lld.complete_recovery lld2 with
  | None -> Alcotest.fail "recovery should still have been pending"
  | Some report ->
    Alcotest.(check bool) "orphan counted by the sweep" true
      (report.Recovery.blocks_scavenged >= 1));
  Alcotest.(check bool) "second completion is a no-op" true
    (Lld.complete_recovery lld2 = None)

let test_early_open_matches_eager_recovery () =
  let disk, groups, (l_aru, b_aru), b_orphan = build_crash_state () in
  let geom = Disk.geometry disk in
  let image = Disk.snapshot disk in
  let load () = Disk.load ~clock:(Clock.create ()) geom (Bytes.copy image) in
  let eager_lld, eager_report = Lld.recover (load ()) in
  let lazy_lld, _ = Lld.recover ~config:early_config (load ()) in
  (* queries through the op hook before recovery completes *)
  let same op =
    Alcotest.(check bool)
      (Format.asprintf "op %a agrees before completion" Op.pp op)
      true
      (Op.equal_result (Ops.apply lazy_lld op) (Ops.apply eager_lld op))
  in
  List.iter
    (fun (l, bs, _) ->
      same (Op.Read { aru = None; block = List.hd bs });
      same (Op.Block_member { aru = None; block = List.hd bs });
      same (Op.List_blocks { aru = None; list = l }))
    groups;
  same (Op.Read { aru = None; block = b_aru });
  same (Op.List_blocks { aru = None; list = l_aru });
  same (Op.Block_allocated { aru = None; block = b_orphan });
  match Lld.complete_recovery lazy_lld with
  | None -> Alcotest.fail "expected a pending recovery"
  | Some report ->
    Alcotest.(check bool) "final report equals the eager report" true
      (report = eager_report);
    List.iter
      (fun (l, bs, tag) ->
        List.iteri
          (fun i b ->
            check_data
              (Printf.sprintf "completed read %d" (tag + i))
              (Lld.read eager_lld b) (Lld.read lazy_lld b))
          bs;
        Alcotest.check block_ids "completed list"
          (Lld.list_blocks eager_lld l)
          (Lld.list_blocks lazy_lld l))
      groups;
    Alcotest.(check bool) "same list universe" true
      (Lld.lists lazy_lld = Lld.lists eager_lld)

let test_early_open_first_mutation_completes () =
  let disk, groups, _, _ = build_crash_state () in
  let lld2, _ = Lld.recover ~config:early_config disk in
  let _, bs, _ = List.hd groups in
  Lld.write lld2 (List.hd bs) (block_data 777);
  Alcotest.(check bool) "explicit completion is then a no-op" true
    (Lld.complete_recovery lld2 = None);
  check_data "mutation applied on the recovered state" (block_data 777)
    (Lld.read lld2 (List.hd bs))

(* What early open promises, whatever serves it: reads and walks of
   single identifiers write nothing and take no checkpoint, and a dead
   ARU's block already reads unallocated; the first mutation writes the
   post-recovery checkpoint, after which recovery is complete. *)
let test_early_open_defers_writes () =
  let disk, groups, (l_aru, b_aru), b_orphan = build_crash_state () in
  let lld2, _ = Lld.recover ~config:early_config disk in
  let writes () = (Disk.counters disk).Disk.writes in
  let checkpoints () = (Lld.counters lld2).Lld_core.Counters.checkpoints in
  let writes0 = writes () and checkpoints0 = checkpoints () in
  let member = Alcotest.(option (testable Types.List_id.pp ( = ))) in
  List.iter
    (fun (l, bs, tag) ->
      Alcotest.(check bool) "list exists" true (Lld.list_exists lld2 l);
      Alcotest.check block_ids "list walk" bs (Lld.list_blocks lld2 l);
      List.iteri
        (fun i b ->
          check_data (Printf.sprintf "read %d" (tag + i)) (block_data (tag + i))
            (Lld.read lld2 b);
          Alcotest.(check bool) "allocated" true (Lld.block_allocated lld2 b);
          Alcotest.check member "member" (Some l) (Lld.block_member lld2 b))
        bs)
    groups;
  check_data "committed ARU's block" (block_data 7) (Lld.read lld2 b_aru);
  Alcotest.check block_ids "committed ARU's list" [ b_aru ]
    (Lld.list_blocks lld2 l_aru);
  Alcotest.(check bool) "dead ARU's block reads unallocated" false
    (Lld.block_allocated lld2 b_orphan);
  Alcotest.(check int) "reads write nothing" writes0 (writes ());
  Alcotest.(check int) "reads take no checkpoint" checkpoints0 (checkpoints ());
  let _, bs, _ = List.hd groups in
  Lld.write lld2 (List.hd bs) (block_data 777);
  Alcotest.(check int) "first mutation takes the post-recovery checkpoint"
    (checkpoints0 + 1) (checkpoints ());
  Alcotest.(check bool) "and writes it" true (writes () > writes0);
  Alcotest.(check bool) "recovery then complete" true
    (Lld.complete_recovery lld2 = None)

(* Lists and members written before a checkpoint, so their membership
   and owner edges reach recovery only through the checkpoint. *)
let checkpointed_lists lld ~lists ~members =
  let ls =
    List.init lists (fun g ->
        let l = new_list lld in
        let bs =
          List.init members (fun i ->
              let b = append_block lld l in
              Lld.write lld b (block_data ((100 * g) + i));
              b)
        in
        (l, bs))
  in
  Lld.checkpoint lld;
  ls

(* The tail deletes one list and one member of another; every other
   member of those lists is named by no tail entry, and the deletion
   reaches it only through its checkpointed membership.  Early open
   must serve such a member as deleted (or still linked), exactly as an
   eager recovery does. *)
let test_early_open_unnamed_members () =
  let disk, lld = fresh_lld () in
  let ls = checkpointed_lists lld ~lists:3 ~members:4 in
  let (l_deleted, deleted_members), (l_shrunk, shrunk_members), _ =
    match ls with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  Lld.delete_list lld l_deleted;
  Lld.delete_block lld (List.hd shrunk_members);
  Lld.flush lld;
  Disk.crash disk;
  let geom = Disk.geometry disk in
  let image = Disk.snapshot disk in
  let load () = Disk.load ~clock:(Clock.create ()) geom (Bytes.copy image) in
  let eager_lld, eager_report = Lld.recover (load ()) in
  let lazy_lld, _ = Lld.recover ~config:early_config (load ()) in
  let same op =
    Alcotest.(check bool)
      (Format.asprintf "op %a agrees before completion" Op.pp op)
      true
      (Op.equal_result (Ops.apply lazy_lld op) (Ops.apply eager_lld op))
  in
  (* members before their lists *)
  List.iter
    (fun b ->
      same (Op.Block_allocated { aru = None; block = b });
      same (Op.Block_member { aru = None; block = b });
      same (Op.Read { aru = None; block = b }))
    (deleted_members @ List.tl shrunk_members);
  same (Op.List_blocks { aru = None; list = l_deleted });
  same (Op.List_blocks { aru = None; list = l_shrunk });
  match Lld.complete_recovery lazy_lld with
  | None -> Alcotest.fail "expected a pending recovery"
  | Some report ->
    Alcotest.(check bool) "final report equals the eager report" true
      (report = eager_report)

let test_recovery_report_counts () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  for i = 1 to 5 do
    let a = Lld.begin_aru lld in
    let b = Lld.new_block lld ~aru:a ~list:l ~pred:Summary.Head () in
    Lld.write lld ~aru:a b (block_data i);
    Lld.end_aru lld a
  done;
  Lld.flush lld;
  Disk.crash disk;
  let _, report = Lld.recover disk in
  Alcotest.(check int) "five ARUs committed" 5 report.Recovery.arus_committed;
  Alcotest.(check int) "none discarded" 0 report.Recovery.arus_discarded

(* An ARU that dies holding a new list and a new block leaves one of
   each for the sweep; the printed report counts them apart. *)
let test_report_prints_scavenged_apart () =
  let disk, lld = fresh_lld () in
  let a = Lld.begin_aru lld in
  let l = Lld.new_list lld ~aru:a () in
  ignore (Lld.new_block lld ~aru:a ~list:l ~pred:Summary.Head ());
  Lld.flush lld;
  Disk.crash disk;
  let _, report = Lld.recover disk in
  Alcotest.(check (pair int int)) "one block, one list" (1, 1)
    (report.Recovery.blocks_scavenged, report.Recovery.lists_scavenged);
  let lines =
    String.split_on_char '\n' (Format.asprintf "%a" Recovery.pp_report report)
  in
  Alcotest.(check string) "printed" "scavenged: 1 blocks, 1 lists"
    (List.nth lines (List.length lines - 1))

let () =
  Alcotest.run "lld_recovery"
    [
      ( "basics",
        [
          Alcotest.test_case "recover freshly formatted" `Quick
            test_recover_freshly_formatted;
          Alcotest.test_case "unformatted disk rejected" `Quick
            test_recover_unformatted_disk_rejected;
          Alcotest.test_case "flushed data survives" `Quick
            test_flushed_data_survives;
          Alcotest.test_case "unflushed data lost" `Quick
            test_unflushed_data_lost;
          Alcotest.test_case "multiple crash/recover cycles" `Quick
            test_multiple_crash_recover_cycles;
        ] );
      ( "aru-atomicity",
        [
          Alcotest.test_case "committed ARU survives" `Quick
            test_committed_aru_survives_crash;
          Alcotest.test_case "uncommitted ARU all-or-nothing" `Quick
            test_uncommitted_aru_all_or_nothing;
          Alcotest.test_case "unflushed commit record discards ARU" `Quick
            test_commit_record_not_flushed_discards_aru;
          Alcotest.test_case "sequential mode crash semantics" `Quick
            test_sequential_mode_crash_semantics;
          Alcotest.test_case "sequential committed ARU survives" `Quick
            test_sequential_mode_committed_aru_survives;
          Alcotest.test_case "report counts" `Quick test_recovery_report_counts;
          Alcotest.test_case "report prints scavenged apart" `Quick
            test_report_prints_scavenged_apart;
        ] );
      ( "torn-writes",
        [ Alcotest.test_case "torn segment write" `Quick test_torn_segment_write ]
      );
      ( "checkpoints",
        [
          Alcotest.test_case "checkpoint bounds replay" `Quick
            test_checkpoint_bounds_replay;
          Alcotest.test_case "mid-ARU checkpoint atomicity" `Quick
            test_checkpoint_mid_aru_preserves_atomicity;
          Alcotest.test_case "media error fallback" `Quick
            test_media_error_on_checkpoint_region_falls_back;
        ] );
      ( "segment-log",
        [
          Alcotest.test_case "mkfs over a used disk" `Quick
            test_mkfs_over_used_disk;
          Alcotest.test_case "empty free order" `Quick
            test_empty_free_order_checkpoint;
          Alcotest.test_case "tail media error counted once" `Quick
            test_tail_media_error_counted_once;
        ] );
      ( "early-open",
        [
          Alcotest.test_case "reads served on demand" `Quick
            test_early_open_serves_reads_on_demand;
          Alcotest.test_case "matches eager recovery" `Quick
            test_early_open_matches_eager_recovery;
          Alcotest.test_case "first mutation completes replay" `Quick
            test_early_open_first_mutation_completes;
          Alcotest.test_case "unnamed members of checkpointed lists" `Quick
            test_early_open_unnamed_members;
          Alcotest.test_case "reads defer every write" `Quick
            test_early_open_defers_writes;
        ] );
      ( "cleaner",
        [
          Alcotest.test_case "auto checkpoint interval" `Quick
            test_auto_checkpoint_interval;
          Alcotest.test_case "auto clean keeps disk usable" `Quick
            test_auto_clean_keeps_disk_usable;
          Alcotest.test_case "cleaner preserves data" `Quick
            test_cleaner_preserves_data;
          Alcotest.test_case "clean then crash recovers" `Quick
            test_cleaner_then_crash_recovers;
          Alcotest.test_case "multi-victim clean then crash" `Quick
            test_multi_victim_clean_then_crash;
        ] );
    ]
