(* The storage-backend stack of PR 4: mem/file equivalence, real
   persistence across close/reopen, torn writes on a file image, and the
   error paths that must surface as Invalid_argument / Errors.Corrupt
   rather than raw Unix errors. *)

module Clock = Lld_sim.Clock
module Geometry = Lld_disk.Geometry
module Backend = Lld_disk.Backend
module Fault = Lld_disk.Fault
module Disk = Lld_disk.Disk
module Config = Lld_core.Config
module Lld = Lld_core.Lld
module Errors = Lld_core.Errors
module Fs = Lld_minixfs.Fs
module Setup = Lld_workload.Setup
module Mixed = Lld_workload.Mixed

let geom = Geometry.small
let size = Geometry.total_bytes geom

let temp_image () =
  let path = Filename.temp_file "lld_test" ".img" in
  Sys.remove path;
  path

(* ------------------------------------------------------------------ *)
(* Differential: the same seeded mixed workload on mem and on file     *)

let mixed_params = { Mixed.dirs = 3; files_per_dir = 4; file_bytes = 2048; seed = 7 }

let run_mixed backend =
  let inst = Setup.make ~geom ~backend Setup.New in
  ignore (Mixed.run inst mixed_params);
  let fp = Setup.fingerprint inst.Setup.disk (Lld.counters inst.Setup.lld) in
  Disk.close inst.Setup.disk;
  fp

let test_differential_mixed () =
  Alcotest.(check (list string))
    "image, counters, device counters and clock identical" []
    (Setup.fingerprint_diff
       (run_mixed (Backend.mem ~size))
       (run_mixed (Backend.temp_file ~size ())))

(* The model checker's fresh disks: an overlay over zero pages must be
   indistinguishable from a zero-filled mem store. *)
let test_overlay_mixed () =
  Alcotest.(check (list string))
    "image, counters, device counters and clock identical" []
    (Setup.fingerprint_diff
       (run_mixed (Backend.mem ~size))
       (run_mixed
          (Backend.overlay ~size (fun _ page -> Backend.Blk.fill page '\000'))))

(* ------------------------------------------------------------------ *)
(* Real persistence: mkfs, close, reopen in a fresh device, recover    *)

let test_file_persistence () =
  let path = temp_image () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let body = Bytes.make 4096 'p' in
      (* first "process": format, write, checkpoint, close *)
      let () =
        let clock = Clock.create () in
        let backend = Backend.file ~create:true ~size path in
        let disk = Disk.create ~backend ~clock geom in
        let lld = Lld.create disk in
        let fs = Fs.mkfs lld in
        Fs.create fs "/persisted";
        Fs.write_file fs "/persisted" ~off:0 body;
        Fs.flush fs;
        Lld.checkpoint lld;
        Disk.close disk
      in
      (* second "process": a brand-new device over the same image *)
      let clock = Clock.create () in
      let backend = Backend.file ~size path in
      let disk = Disk.create ~backend ~clock geom in
      let lld, _report = Lld.recover disk in
      let fs = Fs.mount lld in
      Alcotest.(check bool) "file survives reopen" true (Fs.exists fs "/persisted");
      let got = Fs.read_file fs "/persisted" ~off:0 ~len:(Bytes.length body) in
      Alcotest.(check bool) "contents survive reopen" true (Bytes.equal got body);
      Disk.close disk)

let test_close_is_idempotent_and_final () =
  let backend = Backend.temp_file ~size () in
  let clock = Clock.create () in
  let disk = Disk.create ~backend ~clock geom in
  Disk.write disk ~offset:0 (Bytes.make 512 'x');
  Disk.close disk;
  Disk.close disk;
  (match Disk.read disk ~offset:0 ~length:512 with
  | _ -> Alcotest.fail "read succeeded on a closed backend"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Torn writes: a file image persists exactly the same prefix as mem   *)

let torn_run backend =
  let clock = Clock.create () in
  let disk = Disk.create ~backend ~clock geom in
  Disk.write disk ~offset:0 (Bytes.make 4096 'a');
  Fault.schedule_crash (Disk.fault disk)
    (Fault.During_write { write_index = 0; keep_bytes = 1000 });
  (match Disk.write disk ~offset:8192 (Bytes.make 4096 'b') with
  | () -> Alcotest.fail "torn write did not crash"
  | exception Fault.Crashed -> ());
  let image = Disk.snapshot disk in
  Disk.close disk;
  image

let test_torn_write_on_file () =
  let mem = torn_run (Backend.mem ~size) in
  let file = torn_run (Backend.temp_file ~size ()) in
  Alcotest.(check bool)
    "torn images identical across backends" true (Bytes.equal mem file);
  Alcotest.(check char) "prefix persisted" 'b' (Bytes.get file 8192);
  Alcotest.(check char) "prefix boundary honoured" 'b' (Bytes.get file (8192 + 999));
  Alcotest.(check char) "tail not persisted" '\000' (Bytes.get file (8192 + 1000))

(* ------------------------------------------------------------------ *)
(* Error paths                                                         *)

let check_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_file_errors () =
  let missing = temp_image () in
  check_invalid "missing image" (fun () -> Backend.file ~size missing);
  let short = temp_image () in
  let oc = open_out short in
  output_string oc "too short";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> Sys.remove short)
    (fun () ->
      check_invalid "short image" (fun () -> Backend.file ~size short));
  (* a directory path fails on open/resize, not with a raw Unix_error *)
  check_invalid "directory as image" (fun () ->
      Backend.file ~create:true ~size (Filename.get_temp_dir_name ()))

let test_size_mismatches () =
  let clock = Clock.create () in
  check_invalid "backend/geometry mismatch" (fun () ->
      Disk.create ~backend:(Backend.mem ~size:(size / 2)) ~clock geom);
  check_invalid "Disk.load mismatch" (fun () ->
      Disk.load ~clock geom (Bytes.create 123))

let test_unformatted_image_is_corrupt () =
  let path = temp_image () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* create:true zero-fills: a valid-size but unformatted image *)
      let backend = Backend.file ~create:true ~size path in
      let clock = Clock.create () in
      let disk = Disk.create ~backend ~clock geom in
      (match Lld.recover disk with
      | _ -> Alcotest.fail "recovery succeeded on an unformatted image"
      | exception Errors.Corrupt _ -> ());
      Disk.close disk)

(* ------------------------------------------------------------------ *)
(* Environment selection                                               *)

let test_of_env () =
  let old = Sys.getenv_opt "LLD_BACKEND" in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "LLD_BACKEND" (Option.value old ~default:""))
    (fun () ->
      Unix.putenv "LLD_BACKEND" "file";
      (match Backend.of_env ~size () with
      | None -> Alcotest.fail "LLD_BACKEND=file selected no backend"
      | Some b ->
        Alcotest.(check bool)
          "env backend is a file" true
          (String.length b.Backend.label >= 4
          && String.equal (String.sub b.Backend.label 0 4) "file");
        Alcotest.(check int) "env backend sized to geometry" size b.Backend.size;
        b.Backend.close ());
      Unix.putenv "LLD_BACKEND" "";
      match Backend.of_env ~size () with
      | None -> ()
      | Some b ->
        b.Backend.close ();
        Alcotest.fail "unset LLD_BACKEND still selected a backend")

(* ------------------------------------------------------------------ *)
(* Barriers reach the backend exactly at the commit points             *)

let test_barrier_counted () =
  let barriers = ref 0 in
  let inner = Backend.mem ~size in
  let backend =
    {
      inner with
      Backend.barrier =
        (fun () ->
          incr barriers;
          inner.Backend.barrier ());
    }
  in
  let clock = Clock.create () in
  let disk = Disk.create ~backend ~clock geom in
  let lld = Lld.create disk in
  let list = Lld.new_list lld () in
  let b = Lld.new_block lld ~list ~pred:Lld_core.Summary.Head () in
  Lld.write lld b (Bytes.make (Lld.block_bytes lld) 'q');
  let before = !barriers in
  Lld.flush lld;
  Alcotest.(check bool)
    (Printf.sprintf "flush reaches the barrier (%d -> %d)" before !barriers)
    true (!barriers > before);
  let at_flush = !barriers in
  Lld.checkpoint lld;
  Alcotest.(check bool)
    (Printf.sprintf "checkpoint reaches the barrier (%d -> %d)" at_flush
       !barriers)
    true
    (!barriers > at_flush);
  Alcotest.(check int)
    "barrier charges nothing to the virtual clock after reset"
    (let c2 = Clock.create () in
     let d2 = Disk.create ~clock:c2 geom in
     let n0 = Clock.now_ns c2 in
     Disk.barrier d2;
     Clock.now_ns c2 - n0)
    0

let () =
  Alcotest.run "backend"
    [
      ( "equivalence",
        [
          Alcotest.test_case "mixed workload mem vs file" `Quick
            test_differential_mixed;
          Alcotest.test_case "torn write persists same prefix" `Quick
            test_torn_write_on_file;
          Alcotest.test_case "mixed workload mem vs zero overlay" `Quick
            test_overlay_mixed;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "image survives close/reopen" `Quick
            test_file_persistence;
          Alcotest.test_case "close is idempotent and final" `Quick
            test_close_is_idempotent_and_final;
        ] );
      ( "errors",
        [
          Alcotest.test_case "missing/short/directory images" `Quick
            test_file_errors;
          Alcotest.test_case "size mismatches" `Quick test_size_mismatches;
          Alcotest.test_case "unformatted image is Corrupt" `Quick
            test_unformatted_image_is_corrupt;
        ] );
      ( "selection",
        [
          Alcotest.test_case "LLD_BACKEND env" `Quick test_of_env;
          Alcotest.test_case "barrier at commit points, zero cost" `Quick
            test_barrier_counted;
        ] );
    ]
