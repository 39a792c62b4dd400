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

(* [recovery_early_open] and [recovery_parallel] are declared only
   because the frozen benchmark sets them: flipping either must leave
   recovery's disk image, counters, device counters, virtual clock and
   report as under the default config.  The crash image holds a
   committed ARU, an ARU left open across an explicit checkpoint, and a
   tail written after that checkpoint. *)
let test_pinned_fields_change_nothing () =
  let disk, lld = fresh_lld () in
  let l = new_list lld in
  let a = Lld.begin_aru lld in
  let b = Lld.new_block lld ~aru:a ~list:l ~pred:Summary.Head () in
  Lld.write lld ~aru:a b (block_data 1);
  Lld.end_aru lld a;
  let left_open = Lld.begin_aru lld in
  let orphan =
    Lld.new_block lld ~aru:left_open ~list:l ~pred:(Summary.After b) ()
  in
  Lld.write lld ~aru:left_open orphan (block_data 2);
  Lld.checkpoint lld;
  Lld.write lld (append_block lld l) (block_data 3);
  Lld.flush lld;
  Disk.crash disk;
  let geom = Disk.geometry disk in
  let image = Disk.snapshot disk in
  let recover config =
    let disk = Disk.load ~clock:(Clock.create ()) geom (Bytes.copy image) in
    let lld, report = Lld.recover ~config disk in
    (Setup.fingerprint disk (Lld.counters lld), report)
  in
  let fp, report = recover Config.default in
  let d = Config.default in
  List.iter
    (fun (field, config) ->
      let fp', report' = recover config in
      Alcotest.(check (list string))
        (field ^ " flipped: same fingerprint")
        [] (Setup.fingerprint_diff fp fp');
      Alcotest.(check bool) (field ^ " flipped: same report") true
        (report' = report))
    [
      ( "recovery_early_open",
        { d with recovery_early_open = not d.recovery_early_open } );
      ( "recovery_parallel",
        { d with recovery_parallel = not d.recovery_parallel } );
    ]

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

(* Lld and Jld write commit records only on the [Simple] stream.  One
   found among an ARU's buffered entries is counted as a replay skip
   when that ARU commits, and is not applied: the ARU it names stays
   uncommitted and its buffered allocation never happens. *)
let test_buffered_commit_record_skipped () =
  let blocks = Lld_core.Block_map.create ~capacity:16 in
  let lists = Lld_core.List_table.create ~max_lists:4 in
  let allocs = ref 0 in
  let st =
    Recovery.replay
      (Lld_core.Versions.anchor_ctx blocks lists)
      {
        Recovery.on_alloc = (fun _ -> incr allocs);
        on_write = (fun _ ~slot:_ () -> ());
        on_free = ignore;
      }
  in
  let aru = Types.Aru_id.of_int and blk = Types.Block_id.of_int in
  let entry stream op = Recovery.replay_entry st () { Summary.stream; op } in
  entry (Summary.In_aru (aru 2))
    (Summary.Alloc { block = blk 3; list = Types.List_id.of_int 0; stamp = 1 });
  entry (Summary.In_aru (aru 1)) (Summary.Commit { aru = aru 2 });
  entry Summary.Simple (Summary.Commit { aru = aru 1 });
  Alcotest.(check (pair int int))
    "ARU 1's commit applied, its buffered Commit skipped" (1, 1)
    (Recovery.outcomes st);
  Alcotest.(check int) "ARU 2's allocation not applied" 0 !allocs;
  Alcotest.(check bool) "block 3 still free" false
    (Lld_core.Block_map.anchor blocks (blk 3)).Lld_core.Record.alloc

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
          Alcotest.test_case "buffered commit record skipped" `Quick
            test_buffered_commit_record_skipped;
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
      ( "config",
        [
          Alcotest.test_case "pinned fields change nothing" `Quick
            test_pinned_fields_change_nothing;
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
