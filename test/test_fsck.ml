open Helpers
module Fs = Lld_minixfs.Fs
module Fsck = Lld_minixfs.Fsck
module Fault = Lld_disk.Fault
module Crashcheck = Lld_crashcheck.Crashcheck

(* The paper's central claim (§5.1): with create/delete bracketed in
   ARUs, the file system is consistent after any crash — no fsck
   needed.  Without ARUs (the "old" configuration), a crash can leave
   half-created files behind. *)

let payload n = Bytes.init n (fun i -> Char.chr ((i * 13) land 0xff))

(* Run a workload that crashes the disk at the [k]-th segment write
   (counting from the start of the workload), then recover and mount.
   Returns None if the workload finished without hitting the crash. *)
let crash_during_workload ?geom ~fs_config ~lld_config ~crash_after_writes
    workload =
  let disk, lld = fresh_lld ~config:lld_config ?geom () in
  let fs = Fs.mkfs ~config:fs_config ~inode_count:1024 lld in
  Fs.flush fs;
  Fault.schedule_crash (Disk.fault disk) (Fault.After_writes crash_after_writes);
  let crashed =
    match workload fs with
    | () ->
      (* never hit the crash point: force it now *)
      Disk.crash disk;
      true
    | exception Fault.Crashed -> true
  in
  assert crashed;
  let lld2, _report = Lld.recover ~config:lld_config disk in
  Fs.mount ~config:fs_config lld2

(* 32 KB segments: a seal (the crash granularity) happens every few
   operations, so crash points land inside operations, not only between
   them *)
let tiny_segments =
  Geometry.v ~segment_bytes:(32 * 1024) ~num_segments:256 ()

let create_files fs =
  for i = 0 to 199 do
    let path = Printf.sprintf "/f%03d" i in
    Fs.create fs path;
    Fs.write_file fs path ~off:0 (payload 1024)
  done;
  Fs.flush fs

(* Sweep over crash points: with ARUs the recovered file system must be
   consistent at every single one. *)
let test_aru_crash_sweep_always_consistent () =
  List.iter
    (fun crash_after_writes ->
      let fs =
        crash_during_workload ~geom:tiny_segments ~fs_config:Fs.config_new
          ~lld_config:Config.default ~crash_after_writes create_files
      in
      let report = Fsck.run fs in
      Alcotest.(check bool)
        (Format.asprintf "crash@%d: %a" crash_after_writes Fsck.pp_report
           report)
        true (Fsck.ok report);
      (* every surviving file is well-formed: creation was atomic, and
         if the (non-atomic, paper §5.1) data write's size update became
         persistent then so did the data before it *)
      List.iter
        (fun name ->
          let path = "/" ^ name in
          let st = Fs.stat fs path in
          Alcotest.(check bool)
            (path ^ " size is 0 or 1024")
            true
            (st.Fs.size = 0 || st.Fs.size = 1024);
          if st.Fs.size = 1024 then
            Alcotest.(check bytes) (path ^ " content") (payload 1024)
              (Fs.read_file fs path ~off:0 ~len:1024))
        (Fs.readdir fs "/"))
    [ 0; 1; 2; 3; 5; 8; 13; 21; 34; 55 ]

let test_aru_crash_mid_delete_consistent () =
  let workload fs =
    for i = 0 to 99 do
      Fs.create fs (Printf.sprintf "/f%03d" i);
      Fs.write_file fs (Printf.sprintf "/f%03d" i) ~off:0 (payload 4096)
    done;
    Fs.flush fs;
    for i = 0 to 99 do
      Fs.unlink fs (Printf.sprintf "/f%03d" i)
    done;
    Fs.flush fs
  in
  List.iter
    (fun crash_after_writes ->
      let fs =
        crash_during_workload ~geom:tiny_segments
          ~fs_config:Fs.config_new_delete ~lld_config:Config.default
          ~crash_after_writes workload
      in
      let report = Fsck.run fs in
      Alcotest.(check bool)
        (Format.asprintf "crash@%d: %a" crash_after_writes Fsck.pp_report
           report)
        true (Fsck.ok report))
    [ 5; 17; 40; 80; 120 ]

(* A surgical mid-operation crash for the no-ARU configuration: crash
   between the two meta-data writes of one create.  We find such a point
   by sweeping crash positions until fsck reports a problem. *)
let test_no_arus_can_corrupt_and_fsck_repairs () =
  let found = ref None in
  let crash_points = List.init 40 (fun i -> i) in
  List.iter
    (fun k ->
      if !found = None then begin
        let fs =
          crash_during_workload ~geom:tiny_segments ~fs_config:Fs.config_old
            ~lld_config:Config.old_lld ~crash_after_writes:k
            (fun fs ->
              (* one file per fresh directory: the directory entry needs
                 a brand-new block, so segments fill *inside* creates —
                 a crash there separates the file's inode from its
                 directory entry *)
              for i = 0 to 99 do
                Fs.mkdir fs (Printf.sprintf "/d%03d" i);
                Fs.create fs (Printf.sprintf "/d%03d/file" i)
              done;
              Fs.flush fs)
        in
        let report = Fsck.run fs in
        if not (Fsck.ok report) then found := Some (fs, report)
      end)
    crash_points;
  match !found with
  | None ->
    (* The sweep can miss the window; that is not a correctness failure
       of the system under test, but the demonstration is expected to
       find one. *)
    Alcotest.fail "no crash point produced an inconsistency without ARUs"
  | Some (fs, report) ->
    Alcotest.(check bool) "problems found without ARUs" false (Fsck.ok report);
    (* fsck with repair restores consistency *)
    let repaired = Fsck.run ~repair:true fs in
    Alcotest.(check bool) "repair acted" true (repaired.Fsck.repaired > 0);
    let clean = Fsck.run fs in
    Alcotest.(check bool)
      (Format.asprintf "clean after repair: %a" Fsck.pp_report clean)
      true (Fsck.ok clean)

let test_fsck_detects_planted_corruption () =
  (* plant a dangling dirent by hand and check detection + repair *)
  let disk, lld = fresh_lld () in
  ignore disk;
  let fs = Fs.mkfs ~inode_count:512 lld in
  Fs.create fs "/real";
  (* write a dirent pointing at a free inode straight into the root
     directory file *)
  let root_ino = Lld_minixfs.Layout.root_ino in
  ignore root_ino;
  Fs.create fs "/victim";
  let victim_ino = (Fs.stat fs "/victim").Fs.ino in
  (* free the inode behind fsck's back (simulating lost meta-data) *)
  Fs.repair_free_inode fs victim_ino;
  let report = Fsck.run fs in
  Alcotest.(check bool) "dangling dirent detected" true
    (List.exists
       (function
         | Fsck.Dangling_dirent { ino; _ } -> ino = victim_ino
         | Fsck.Inode_without_list _ | Fsck.Shared_list _
         | Fsck.Size_mismatch _ | Fsck.Unreachable_inode _
         | Fsck.Bad_nlinks _ | Fsck.Orphan_list _ | Fsck.Orphan_block _ ->
           false)
       report.Fsck.problems);
  ignore (Fsck.run ~repair:true fs);
  Alcotest.(check bool) "clean after repair" true (Fsck.ok (Fsck.run fs))

(* The exhaustive version of the sweeps above, on the crash-point
   checker: the torture workload (creates, writes, unlinks, renames,
   links and truncates) is recorded once per seed, and 40 of its crash
   points are recovered and judged by fsck, the sweep-leak probe and
   idempotent re-recovery.  Sampling prefers complete points, so with
   21-26 writes per trace every complete point is checked, plus torn
   variants. *)
let torture ?variant seed =
  Crashcheck.run ~budget:40
    (Crashcheck.record (Crashcheck.torture_spec ?variant ~seed ()))

let test_torture_with_arus () =
  List.iter
    (fun seed ->
      let r = torture seed in
      Alcotest.(check bool)
        (Format.asprintf "seed %d: %a" seed Crashcheck.pp_result r)
        true (Crashcheck.ok r))
    [ 3; 10; 27 ]

(* The paper's contrast: without ARU bracketing the same workload
   leaves crash points that need fsck. *)
let test_torture_without_arus () =
  let r = torture ~variant:Lld_workload.Setup.Old 3 in
  Alcotest.(check bool)
    (Format.asprintf "old configuration: %a" Crashcheck.pp_result r)
    false (Crashcheck.ok r)

let test_recovery_then_continued_use () =
  (* after a crash and recovery, the file system keeps working *)
  let disk, lld = fresh_lld () in
  let fs = Fs.mkfs ~inode_count:1024 lld in
  Fs.mkdir fs "/d";
  Fs.create fs "/d/a";
  Fs.write_file fs "/d/a" ~off:0 (payload 2048);
  Fs.flush fs;
  Disk.crash disk;
  let lld2, _ = Lld.recover disk in
  let fs2 = Fs.mount lld2 in
  Alcotest.(check bytes) "old data" (payload 2048)
    (Fs.read_file fs2 "/d/a" ~off:0 ~len:2048);
  Fs.create fs2 "/d/b";
  Fs.write_file fs2 "/d/b" ~off:0 (payload 512);
  Fs.unlink fs2 "/d/a";
  Alcotest.(check (list string)) "directory evolved" [ "b" ]
    (Fs.readdir fs2 "/d");
  Alcotest.(check bool) "still consistent" true (Fsck.ok (Fsck.run fs2))

let () =
  Alcotest.run "lld_fsck"
    [
      ( "aru-consistency",
        [
          Alcotest.test_case "crash sweep: always consistent with ARUs" `Slow
            test_aru_crash_sweep_always_consistent;
          Alcotest.test_case "crash mid-delete consistent" `Slow
            test_aru_crash_mid_delete_consistent;
        ] );
      ( "no-aru-corruption",
        [
          Alcotest.test_case "no ARUs: corruption found and repaired" `Slow
            test_no_arus_can_corrupt_and_fsck_repairs;
        ] );
      ( "torture",
        [
          Alcotest.test_case "randomized workloads consistent at every crash"
            `Slow test_torture_with_arus;
          Alcotest.test_case "old configuration leaves crash points inconsistent"
            `Slow test_torture_without_arus;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "detects planted corruption" `Quick
            test_fsck_detects_planted_corruption;
          Alcotest.test_case "recovery then continued use" `Quick
            test_recovery_then_continued_use;
        ] );
    ]
