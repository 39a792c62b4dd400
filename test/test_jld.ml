(* The journaling, update-in-place Logical Disk (lib/jld): same client
   interface and ARU semantics as LLD, different storage organisation
   (paper §5.4's "other implementations of the Logical Disk"). *)

module Clock = Lld_sim.Clock
module Geometry = Lld_disk.Geometry
module Fault = Lld_disk.Fault
module Disk = Lld_disk.Disk
module Types = Lld_core.Types
module Errors = Lld_core.Errors
module Summary = Lld_core.Summary
module Jld = Lld_jld.Jld

(* Both implementations satisfy the Logical Disk signature — the
   interchangeability of paper §2, checked by the compiler. *)
module _ : Lld_core.Ld_intf.S = Lld_core.Lld
module _ : Lld_core.Ld_intf.S = Lld_jld.Jld

(* ...so the Minix file system runs on JLD unchanged. *)
module Minix_on_jld = Lld_minixfs.Fs_generic.Make (Lld_jld.Jld)

let block_bytes = 4096

let fresh ?(geom = Geometry.small) () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock geom in
  (disk, Jld.create disk)

let block_data tag =
  let b = Bytes.make block_bytes '\000' in
  Bytes.blit_string (Printf.sprintf "payload-%d-" tag) 0 b 0 10;
  Bytes.set b 12 (Char.chr (tag land 0xff));
  b

let tag_of b = Char.code (Bytes.get b 12)

let append lld list =
  let pred =
    match List.rev (Jld.list_blocks lld list) with
    | [] -> Summary.Head
    | last :: _ -> Summary.After last
  in
  Jld.new_block lld ~list ~pred ()

let test_basic_ops () =
  let _, lld = fresh () in
  let l = Jld.new_list lld () in
  let b1 = append lld l in
  let b2 = append lld l in
  Jld.write lld b1 (block_data 1);
  Jld.write lld b2 (block_data 2);
  Alcotest.(check int) "b1" 1 (tag_of (Jld.read lld b1));
  Alcotest.(check int) "b2" 2 (tag_of (Jld.read lld b2));
  Alcotest.(check int) "list" 2 (List.length (Jld.list_blocks lld l));
  Jld.delete_block lld b1;
  Alcotest.(check int) "after delete" 1 (List.length (Jld.list_blocks lld l));
  Alcotest.(check bool) "deallocated" false (Jld.block_allocated lld b1)

let test_aru_isolation_and_commit () =
  let _, lld = fresh () in
  let l = Jld.new_list lld () in
  let b = append lld l in
  Jld.write lld b (block_data 1);
  let a = Jld.begin_aru lld in
  Jld.write lld ~aru:a b (block_data 2);
  Alcotest.(check int) "shadow" 2 (tag_of (Jld.read lld ~aru:a b));
  Alcotest.(check int) "committed" 1 (tag_of (Jld.read lld b));
  Jld.end_aru lld a;
  Alcotest.(check int) "merged" 2 (tag_of (Jld.read lld b))

let test_aru_abort () =
  let _, lld = fresh () in
  let l = Jld.new_list lld () in
  let b = append lld l in
  Jld.write lld b (block_data 1);
  let a = Jld.begin_aru lld in
  Jld.write lld ~aru:a b (block_data 9);
  let b2 = Jld.new_block lld ~aru:a ~list:l ~pred:(Summary.After b) () in
  Jld.abort_aru lld a;
  Alcotest.(check int) "write discarded" 1 (tag_of (Jld.read lld b));
  Alcotest.(check bool) "allocation survives abort" true
    (Jld.block_allocated lld b2);
  Alcotest.(check bool) "scavenged" true (Jld.scavenge lld >= 1)

let test_committed_aru_survives_crash () =
  let disk, lld = fresh () in
  let l = Jld.new_list lld () in
  let a = Jld.begin_aru lld in
  let b = Jld.new_block lld ~aru:a ~list:l ~pred:Summary.Head () in
  Jld.write lld ~aru:a b (block_data 42);
  Jld.end_aru lld a;
  Jld.flush lld;
  Disk.crash disk;
  let lld2, chunks = Jld.recover disk in
  Alcotest.(check bool) "journal replayed" true (chunks >= 1);
  Alcotest.(check int) "data recovered" 42 (tag_of (Jld.read lld2 b));
  Alcotest.(check int) "list intact" 1 (List.length (Jld.list_blocks lld2 l))

let test_uncommitted_aru_discarded () =
  let disk, lld = fresh () in
  let l = Jld.new_list lld () in
  let b0 = append lld l in
  Jld.write lld b0 (block_data 1);
  Jld.flush lld;
  let a = Jld.begin_aru lld in
  Jld.write lld ~aru:a b0 (block_data 9);
  let b1 = Jld.new_block lld ~aru:a ~list:l ~pred:(Summary.After b0) () in
  Jld.write lld ~aru:a b1 (block_data 8);
  Jld.flush lld (* flush must not commit the ARU *);
  Disk.crash disk;
  let lld2, _ = Jld.recover disk in
  Alcotest.(check int) "write undone" 1 (tag_of (Jld.read lld2 b0));
  Alcotest.(check int) "insertion undone" 1
    (List.length (Jld.list_blocks lld2 l));
  Alcotest.(check bool) "orphan allocation swept" false
    (Jld.block_allocated lld2 b1)

let test_unflushed_lost () =
  let disk, lld = fresh () in
  let l = Jld.new_list lld () in
  let b = append lld l in
  Jld.write lld b (block_data 1);
  Jld.flush lld;
  Jld.write lld b (block_data 2) (* committed, never flushed *);
  Disk.crash disk;
  let lld2, _ = Jld.recover disk in
  Alcotest.(check int) "persistent version" 1 (tag_of (Jld.read lld2 b))

let test_checkpoint_and_in_place_data () =
  let disk, lld = fresh () in
  let l = Jld.new_list lld () in
  let blocks = List.init 20 (fun _ -> append lld l) in
  List.iteri (fun i b -> Jld.write lld b (block_data i)) blocks;
  Jld.checkpoint lld;
  (* after the checkpoint the data lives at its fixed in-place address *)
  Disk.crash disk;
  let lld2, chunks = Jld.recover disk in
  Alcotest.(check int) "nothing left to replay" 0 chunks;
  List.iteri
    (fun i b ->
      Alcotest.(check int) (Printf.sprintf "block %d home" i) i
        (tag_of (Jld.read lld2 b)))
    blocks

let test_journal_fills_and_recycles () =
  (* write more journaled data than the journal holds: automatic
     checkpoints must recycle it *)
  let geom = Geometry.v ~num_segments:24 () in
  let _, lld = fresh ~geom () in
  let l = Jld.new_list lld () in
  let b = append lld l in
  let checkpoints0 = (Jld.counters lld).Lld_core.Counters.checkpoints in
  for i = 0 to 2000 do
    Jld.write lld b (block_data (i land 0xff))
  done;
  Jld.flush lld;
  Alcotest.(check bool) "journal recycled via checkpoints" true
    ((Jld.counters lld).Lld_core.Counters.checkpoints > checkpoints0);
  Alcotest.(check int) "latest data" (2000 land 0xff) (tag_of (Jld.read lld b))

(* A freed block identifier handed out again reads zeros until its
   first write, whichever path freed it and across recovery: the old
   incarnation's data still sits in the cache and at the home location
   after a checkpoint. *)
let reissued_reads_zeros free () =
  let disk, lld = fresh () in
  let l = Jld.new_list lld () in
  let b = append lld l in
  Jld.write lld b (Bytes.make block_bytes 'X');
  Jld.checkpoint lld;
  let lld, b2 = free disk lld l b in
  Alcotest.(check int) "identifier reissued" (Types.Block_id.to_int b)
    (Types.Block_id.to_int b2);
  Alcotest.(check bool) "reads zeros" true
    (Bytes.equal (Jld.read lld b2) (Bytes.make block_bytes '\000'))

let test_reissue_after_delete =
  reissued_reads_zeros (fun _ lld l b ->
      Jld.delete_block lld b;
      (lld, append lld l))

let test_reissue_after_aru_delete =
  reissued_reads_zeros (fun _ lld l b ->
      let a = Jld.begin_aru lld in
      Jld.delete_block lld ~aru:a b;
      Jld.end_aru lld a;
      (lld, append lld l))

let test_reissue_after_delete_list =
  reissued_reads_zeros (fun _ lld l _ ->
      Jld.delete_list lld l;
      let l2 = Jld.new_list lld () in
      (lld, append lld l2))

let test_reissue_across_recovery =
  reissued_reads_zeros (fun disk lld l b ->
      Jld.delete_block lld b;
      let b2 = append lld l in
      Jld.flush lld;
      Disk.crash disk;
      (fst (Jld.recover disk), b2))

let test_torn_journal_chunk () =
  let disk, lld = fresh () in
  let l = Jld.new_list lld () in
  let b = append lld l in
  Jld.write lld b (block_data 1);
  Jld.flush lld;
  Jld.write lld b (block_data 2);
  Fault.schedule_crash (Disk.fault disk)
    (Fault.During_write { write_index = 0; keep_bytes = 100 });
  (try Jld.flush lld with Fault.Crashed -> ());
  let lld2, _ = Jld.recover disk in
  Alcotest.(check int) "torn chunk ignored" 1 (tag_of (Jld.read lld2 b))

let test_torn_table_write_falls_back () =
  let disk, lld = fresh () in
  let l = Jld.new_list lld () in
  let b = append lld l in
  Jld.write lld b (block_data 5);
  Jld.checkpoint lld;
  Jld.write lld b (block_data 6);
  Jld.flush lld;
  (* the next checkpoint's table write is torn: the chunk flush is write
     1, the in-place data write 2, the table write 3 *)
  Fault.schedule_crash (Disk.fault disk)
    (Fault.During_write { write_index = 1; keep_bytes = 64 });
  (try Jld.checkpoint lld with Fault.Crashed -> ());
  let lld2, _ = Jld.recover disk in
  Alcotest.(check int) "journal carries the day" 6 (tag_of (Jld.read lld2 b))

let test_recover_unformatted_rejected () =
  let clock = Clock.create () in
  let disk = Disk.create ~clock Geometry.small in
  Alcotest.check_raises "no superblock" (Errors.Corrupt "no JLD superblock")
    (fun () -> ignore (Jld.recover disk))

let test_multiple_crash_cycles () =
  let disk, lld = fresh () in
  let l = Jld.new_list lld () in
  let lld = ref lld in
  let blocks = ref [] in
  for round = 1 to 4 do
    let module J = Jld in
    let pred =
      match List.rev (J.list_blocks !lld l) with
      | [] -> Summary.Head
      | last :: _ -> Summary.After last
    in
    let b = J.new_block !lld ~list:l ~pred () in
    J.write !lld b (block_data round);
    J.flush !lld;
    blocks := !blocks @ [ (b, round) ];
    Disk.crash disk;
    let recovered, _ = J.recover disk in
    lld := recovered;
    List.iter
      (fun (b, tag) ->
        Alcotest.(check int)
          (Printf.sprintf "round %d block %d" round tag)
          tag
          (tag_of (J.read !lld b)))
      !blocks
  done

(* An aborted ARU's list that a later simple operation gave a member
   survives recovery like any committed list: the sweep drops the dead
   ARU's owner mark, so the restarted disk, which hands out that ARU's
   id again, does not hide the list behind it. *)
let test_dead_owner_mark_swept () =
  let disk, lld = fresh () in
  let a = Jld.begin_aru lld in
  let l = Jld.new_list lld ~aru:a () in
  Jld.abort_aru lld a;
  let b0 = Jld.new_block lld ~list:l ~pred:Summary.Head () in
  Jld.flush lld;
  Disk.crash disk;
  let lld2, _ = Jld.recover disk in
  let a2 = Jld.begin_aru lld2 in
  Alcotest.(check int) "ARU id reissued" (Types.Aru_id.to_int a)
    (Types.Aru_id.to_int a2);
  Alcotest.(check bool) "list exists" true (Jld.list_exists lld2 l);
  Alcotest.(check (list int)) "members" [ Types.Block_id.to_int b0 ]
    (List.map Types.Block_id.to_int (Jld.list_blocks lld2 l));
  let b1 = Jld.new_block lld2 ~list:l ~pred:(Summary.After b0) () in
  Alcotest.(check bool) "linkable" true (Jld.block_allocated lld2 b1)

let test_minix_fs_on_jld () =
  let module Fs = Minix_on_jld.Fs_impl in
  let module Fsck = Minix_on_jld.Fsck_impl in
  let _, lld = fresh () in
  let fs = Fs.mkfs ~inode_count:512 lld in
  Fs.mkdir fs "/d";
  Fs.create fs "/d/a";
  Fs.write_file fs "/d/a" ~off:0 (Bytes.make 9000 'j');
  Fs.link fs "/d/a" "/d/b";
  Fs.rename fs "/d/a" "/d/c";
  Alcotest.(check int) "size via other name" 9000 (Fs.stat fs "/d/b").Fs.size;
  Fs.unlink fs "/d/b";
  Alcotest.(check (list string)) "tree" [ "c" ] (Fs.readdir fs "/d");
  let report = Fsck.run fs in
  Alcotest.(check bool)
    (Format.asprintf "fsck clean: %a" Fsck.pp_report report)
    true (Fsck.ok report)

let test_minix_fs_on_jld_crash_consistent () =
  let module Fs = Minix_on_jld.Fs_impl in
  let module Fsck = Minix_on_jld.Fsck_impl in
  List.iter
    (fun crash_after ->
      let clock = Clock.create () in
      let disk = Disk.create ~clock Geometry.small in
      let lld = Jld.create disk in
      let fs = Fs.mkfs ~inode_count:512 lld in
      Fs.flush fs;
      Fault.schedule_crash (Disk.fault disk) (Fault.After_writes crash_after);
      (try
         for i = 0 to 199 do
           Fs.mkdir fs (Printf.sprintf "/d%03d" i);
           Fs.create fs (Printf.sprintf "/d%03d/file" i)
         done;
         Fs.flush fs
       with Fault.Crashed -> ());
      Fault.reset_after_recovery (Disk.fault disk);
      let lld2, _ = Jld.recover disk in
      let fs2 = Fs.mount lld2 in
      let report = Fsck.run fs2 in
      Alcotest.(check bool)
        (Format.asprintf "crash@%d: %a" crash_after Fsck.pp_report report)
        true (Fsck.ok report))
    [ 0; 1; 2; 3; 5 ]

let test_random_workload_crash_sweep () =
  (* the JLD analogue of the LLD torture runs: randomized FS workloads
     cut at many crash points must always recover consistent *)
  let module Fs = Minix_on_jld.Fs_impl in
  let module Fsck = Minix_on_jld.Fsck_impl in
  let module Rng = Lld_sim.Rng in
  List.iter
    (fun crash_after ->
      let clock = Clock.create () in
      let disk = Disk.create ~clock Geometry.small in
      let lld = Jld.create disk in
      let fs = Fs.mkfs ~inode_count:512 lld in
      Fs.flush fs;
      Fault.schedule_crash (Disk.fault disk) (Fault.After_writes crash_after);
      let rng = Rng.create ~seed:(77 + crash_after) in
      let dir d = Printf.sprintf "/d%d" (d mod 6) in
      let file d f = Printf.sprintf "%s/f%d" (dir d) (f mod 8) in
      (try
         for d = 0 to 5 do
           Fs.mkdir fs (dir d)
         done;
         for _ = 1 to 250 do
           let d = Rng.int rng 6 in
           let f = Rng.int rng 8 in
           let ig op =
             try op () with
             | Fs.Not_found_path _ | Fs.Already_exists _ | Fs.Is_a_directory _
             | Fs.Not_a_directory _ | Fs.Directory_not_empty _
             | Fs.Invalid_name _ | Fs.Out_of_inodes ->
               ()
           in
           match Rng.int rng 8 with
           | 0 | 1 | 2 -> ig (fun () -> Fs.create fs (file d f))
           | 3 | 4 ->
             let n = 256 + Rng.int rng 6000 in
             ig (fun () -> Fs.write_file fs (file d f) ~off:0 (Bytes.make n 'j'))
           | 5 -> ig (fun () -> Fs.unlink fs (file d f))
           | 6 ->
             let d2 = Rng.int rng 6 in
             let f2 = Rng.int rng 8 in
             ig (fun () -> Fs.rename fs (file d f) (file d2 f2))
           | _ ->
             ig (fun () -> ignore (Fs.read_file fs (file d f) ~off:0 ~len:512))
         done;
         Fs.flush fs;
         Disk.crash disk
       with Fault.Crashed -> ());
      let lld2, _ = Jld.recover disk in
      let fs2 = Fs.mount lld2 in
      let report = Fsck.run fs2 in
      Alcotest.(check bool)
        (Format.asprintf "crash@%d: %a" crash_after Fsck.pp_report report)
        true (Fsck.ok report))
    (List.init 12 (fun i -> i))

let test_reads_stay_fast_after_random_writes () =
  (* the structural difference from LLD: in-place addresses never
     fragment, so a sequential read after random rewrites is as fast as
     after sequential writes *)
  let geom = Geometry.v ~num_segments:64 () in
  let clock = Clock.create () in
  let disk = Disk.create ~clock geom in
  let lld = Jld.create disk in
  let l = Jld.new_list lld () in
  let n = 512 in
  let blocks = Array.init n (fun _ -> append lld l) in
  let rng = Lld_sim.Rng.create ~seed:5 in
  let order = Array.init n Fun.id in
  Lld_sim.Rng.shuffle rng order;
  Array.iter (fun i -> Jld.write lld blocks.(i) (block_data i)) order;
  Jld.checkpoint lld;
  (* sequential logical read *)
  let t0 = Clock.now_ns clock in
  Array.iter (fun b -> ignore (Jld.read lld b)) blocks;
  let seq_read_ns = Clock.now_ns clock - t0 in
  let mbps =
    float_of_int (n * 4096) /. 1024. /. 1024.
    /. (float_of_int seq_read_ns /. 1e9)
  in
  Alcotest.(check bool)
    (Printf.sprintf "sequential read after random writes fast (%.2f MB/s)" mbps)
    true (mbps > 1.0)

let () =
  Alcotest.run "lld_jld"
    [
      ( "ld-interface",
        [
          Alcotest.test_case "basic operations" `Quick test_basic_ops;
          Alcotest.test_case "ARU isolation and commit" `Quick
            test_aru_isolation_and_commit;
          Alcotest.test_case "ARU abort" `Quick test_aru_abort;
        ] );
      ( "reissued-ids",
        [
          Alcotest.test_case "after delete" `Quick test_reissue_after_delete;
          Alcotest.test_case "after in-ARU delete" `Quick
            test_reissue_after_aru_delete;
          Alcotest.test_case "after list delete" `Quick
            test_reissue_after_delete_list;
          Alcotest.test_case "across recovery" `Quick
            test_reissue_across_recovery;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "committed ARU survives" `Quick
            test_committed_aru_survives_crash;
          Alcotest.test_case "uncommitted ARU discarded" `Quick
            test_uncommitted_aru_discarded;
          Alcotest.test_case "unflushed lost" `Quick test_unflushed_lost;
          Alcotest.test_case "checkpoint writes data home" `Quick
            test_checkpoint_and_in_place_data;
          Alcotest.test_case "journal recycles" `Quick
            test_journal_fills_and_recycles;
          Alcotest.test_case "torn chunk ignored" `Quick test_torn_journal_chunk;
          Alcotest.test_case "torn table write falls back" `Quick
            test_torn_table_write_falls_back;
          Alcotest.test_case "unformatted rejected" `Quick
            test_recover_unformatted_rejected;
          Alcotest.test_case "multiple crash cycles" `Quick
            test_multiple_crash_cycles;
          Alcotest.test_case "dead ARU's owner mark swept" `Quick
            test_dead_owner_mark_swept;
        ] );
      ( "minix-on-jld",
        [
          Alcotest.test_case "file system runs unchanged" `Quick
            test_minix_fs_on_jld;
          Alcotest.test_case "crash-consistent with ARUs" `Slow
            test_minix_fs_on_jld_crash_consistent;
          Alcotest.test_case "random workload crash sweep" `Slow
            test_random_workload_crash_sweep;
        ] );
      ( "structure",
        [
          Alcotest.test_case "reads don't fragment" `Quick
            test_reads_stay_fast_after_random_writes;
        ] );
    ]
