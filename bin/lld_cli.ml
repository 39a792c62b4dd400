(* Command-line driver for the ARU/LLD reproduction. *)

module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Backend = Lld_disk.Backend
module Errors = Lld_core.Errors
module Disk_layout = Lld_core.Disk_layout
module Clock = Lld_sim.Clock
module Config = Lld_core.Config
module Lld = Lld_core.Lld
module Recovery = Lld_core.Recovery
module Counters = Lld_core.Counters
module Fs = Lld_minixfs.Fs
module Fsck = Lld_minixfs.Fsck
module Setup = Lld_workload.Setup
module Smallfile = Lld_workload.Smallfile
module Largefile = Lld_workload.Largefile
module Aru_churn = Lld_workload.Aru_churn
module Experiment = Lld_harness.Experiment
module Crashcheck = Lld_crashcheck.Crashcheck
module Model = Lld_model.Model
module Differ = Lld_model.Differ
module Op = Lld_core.Op
module Engine = Lld_core.Engine
module Summary = Lld_core.Summary
module Forensics = Lld_obs.Forensics
module Obs = Lld_obs.Obs
module Trace = Lld_obs.Trace
module Metrics = Lld_obs.Metrics
module Histogram = Lld_sim.Stats.Histogram

open Cmdliner

let variant_conv =
  let parse = function
    | "old" -> Ok Setup.Old
    | "new" -> Ok Setup.New
    | "new-delete" -> Ok Setup.New_delete
    | s -> Error (`Msg (Printf.sprintf "unknown variant %S" s))
  in
  let print ppf v = Format.fprintf ppf "%s" (Setup.variant_label v) in
  Arg.conv (parse, print)

let variant_arg =
  Arg.(
    value
    & opt variant_conv Setup.New
    & info [ "variant" ] ~docv:"VARIANT"
        ~doc:"LLD variant: $(b,old), $(b,new), or $(b,new-delete) (paper Table 1).")

let segments_arg =
  Arg.(
    value
    & opt int 200
    & info [ "segments" ] ~docv:"N"
        ~doc:"Partition size in 0.5 MB segments (paper: 800 = 400 MB).")

let fail_invalid msg =
  Printf.eprintf "%s\n" msg;
  exit 2

let positive name n =
  if n < 1 then fail_invalid (Printf.sprintf "%s must be positive (got %d)" name n)

let default_segment_bytes = (Geometry.v ~num_segments:1 ()).Geometry.segment_bytes

(* The smallest partition, in default-size segments, that holds the
   superblock, both checkpoint regions and a log. *)
let min_segments =
  let fits n =
    match Disk_layout.log_count (Geometry.v ~num_segments:n ()) with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  let rec first n = if fits n then n else first (n + 1) in
  first 1

(* Every geometry the CLI builds or infers comes from here, before any
   file is created. *)
let checked_geom what segments =
  if segments < min_segments then
    fail_invalid
      (Printf.sprintf
         "%s: %d segment(s) is too small for a log; the minimum is %d \
          segments of %d KB"
         what segments min_segments (default_segment_bytes / 1024));
  Geometry.v ~num_segments:segments ()

let geom_of = checked_geom "--segments"

(* ------------------------------------------------- persistent images *)

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"PATH"
        ~doc:"Back the partition with a real on-disk image instead of memory.")

(* Deterministic seed-file contents, shared by mkfs (writer) and mount
   (verifier) so the round-trip check needs no side channel. *)
let seed_file_path i = Printf.sprintf "/f%05d" i

let seed_file_body i =
  Bytes.init 1024 (fun j -> Char.chr (33 + (((i * 31) + j) mod 94)))

(* Open an existing image, inferring the segment count from its size
   (segment size is the default 0.5 MB). *)
let open_image path =
  let size =
    match (Unix.stat path).Unix.st_size with
    | size -> size
    | exception Unix.Unix_error (e, _, _) ->
      fail_invalid
        (Printf.sprintf "cannot open image %s: %s" path (Unix.error_message e))
  in
  if size <= 0 || size mod default_segment_bytes <> 0 then
    fail_invalid
      (Printf.sprintf
         "%s is not an LLD image: %d bytes is not a whole number of %d KB \
          segments"
         path size (default_segment_bytes / 1024));
  let geom = checked_geom path (size / default_segment_bytes) in
  match Backend.file ~size path with
  | backend -> (geom, backend)
  | exception Invalid_argument msg -> fail_invalid msg

let mkfs_run file segments variant files =
  let geom = geom_of segments in
  let backend =
    match Backend.file ~create:true ~size:(Geometry.total_bytes geom) file with
    | backend -> backend
    | exception Invalid_argument msg -> fail_invalid msg
  in
  let clock = Clock.create () in
  let disk = Disk.create ~backend ~clock geom in
  let lld = Lld.create ~config:(Setup.lld_config variant) disk in
  let fs = Fs.mkfs ~config:(Setup.fs_config variant) lld in
  for i = 0 to files - 1 do
    Fs.create fs (seed_file_path i);
    Fs.write_file fs (seed_file_path i) ~off:0 (seed_file_body i)
  done;
  Fs.flush fs;
  Lld.checkpoint lld;
  Disk.barrier disk;
  Printf.printf
    "formatted %s: %d segments x %d KB (%d MB), variant %s, %d seed file(s)\n"
    file geom.Geometry.num_segments
    (geom.Geometry.segment_bytes / 1024)
    (Geometry.total_bytes geom / 1024 / 1024)
    (Setup.variant_label variant) files;
  Disk.close disk

let mkfs_cmd =
  let file =
    Arg.(
      required
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH" ~doc:"Image file to create (required).")
  in
  let files =
    Arg.(
      value & opt int 10
      & info [ "files" ] ~docv:"N"
          ~doc:"Deterministic seed files to write (verified by $(b,mount)).")
  in
  Cmd.v
    (Cmd.info "mkfs"
       ~doc:
         "Format a persistent on-disk image: create it, build the Minix file \
          system on the logical disk, write deterministic seed files, \
          checkpoint, and fsync.  A separate process can then $(b,lld mount \
          --file) the same image.")
    Term.(const mkfs_run $ file $ segments_arg $ variant_arg $ files)

let mount_run file variant scrub =
  let geom, backend = open_image file in
  let clock = Clock.create () in
  let disk = Disk.create ~backend ~clock geom in
  let config =
    let c = Setup.lld_config variant in
    if scrub then { c with Config.scrub_on_mount = true } else c
  in
  match Lld.recover ~config disk with
  | exception Errors.Corrupt msg ->
    Printf.eprintf "mount failed: corrupt or unformatted image %s (%s)\n" file
      msg;
    Disk.close disk;
    exit 1
  | exception Errors.Corruption c ->
    Format.eprintf "mount failed: %s: %a@." file Errors.pp_corruption c;
    Disk.close disk;
    exit 1
  | lld, report -> (
    Format.printf "recovery: %a@." Recovery.pp_report report;
    match Fs.mount ~config:(Setup.fs_config variant) lld with
    | exception Errors.Corrupt msg ->
      Printf.eprintf "mount failed: no valid file system on %s (%s)\n" file msg;
      Disk.close disk;
      exit 1
    | fs ->
      let check = Fsck.run fs in
      Format.printf "fsck: %a@." Fsck.pp_report check;
      let entries = Fs.readdir fs "/" in
      let verified = ref 0 and corrupt = ref 0 in
      List.iter
        (fun name ->
          if String.length name = 6 && name.[0] = 'f' then
            match int_of_string_opt (String.sub name 1 5) with
            | None -> ()
            | Some i ->
              let expect = seed_file_body i in
              let got =
                Fs.read_file fs ("/" ^ name) ~off:0 ~len:(Bytes.length expect)
              in
              if Bytes.equal got expect then incr verified else incr corrupt)
        entries;
      Printf.printf "mounted %s: %d entries in /, %d seed file(s) verified%s\n"
        file (List.length entries) !verified
        (if !corrupt > 0 then Printf.sprintf ", %d CORRUPT" !corrupt else "");
      Disk.close disk;
      if (not (Fsck.ok check)) || !corrupt > 0 then exit 1)

let mount_cmd =
  let file =
    Arg.(
      required
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH" ~doc:"Image file to mount (required).")
  in
  let scrub =
    Arg.(
      value & flag
      & info [ "scrub" ]
          ~doc:
            "Scrub the image as part of recovery: verify every checksum \
             guarding live data and repair what redundancy allows before \
             serving reads (also: LLD_SCRUB_ON_MOUNT=1).")
  in
  Cmd.v
    (Cmd.info "mount"
       ~doc:
         "Mount a persistent image written by $(b,lld mkfs --file): recover \
          the logical disk, mount the file system, run fsck, and verify the \
          deterministic seed files.  Exits non-zero on any inconsistency.")
    Term.(const mount_run $ file $ variant_arg $ scrub)

(* ------------------------------------------------------------- scrub *)

let scrub_run file variant =
  let geom, backend = open_image file in
  let clock = Clock.create () in
  let disk = Disk.create ~backend ~clock geom in
  match Lld.recover ~config:(Setup.lld_config variant) disk with
  | exception Errors.Corrupt msg ->
    Printf.eprintf "scrub failed: corrupt or unformatted image %s (%s)\n" file
      msg;
    Disk.close disk;
    exit 1
  | exception Errors.Corruption c ->
    Format.eprintf "scrub failed: %s: %a@." file Errors.pp_corruption c;
    Disk.close disk;
    exit 1
  | lld, report ->
    Format.printf "recovery: %a@." Recovery.pp_report report;
    let r = Lld.scrub lld in
    Format.printf "scrub: %a@." Lld.pp_scrub_report r;
    Disk.barrier disk;
    Disk.close disk;
    if r.Lld.scrub_lost > 0 then begin
      Printf.eprintf "%d block(s) unrepairable — restore from backup\n"
        r.Lld.scrub_lost;
      exit 1
    end

let scrub_cmd =
  let file =
    Arg.(
      required
      & opt (some string) None
      & info [ "file" ] ~docv:"PATH" ~doc:"Image file to scrub (required).")
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Verify every checksum guarding live data on a persistent image — \
          per-slot CRCs of sealed segments and the generational superblock — \
          and repair what redundancy allows (cached copies, salvageable \
          slots, the surviving superblock generation).  Unrepairable damage \
          is reported and exits non-zero.")
    Term.(const scrub_run $ file $ variant_arg)

(* ------------------------------------------------------------- repro *)

let repro full scale =
  let s =
    match (full, scale) with
    | true, _ -> Experiment.full
    | false, None -> Experiment.quick
    | false, Some f when f > 0. -> Experiment.scaled f
    | false, Some _ -> fail_invalid "--scale must be positive"
  in
  let checks, _json = Experiment.run Format.std_formatter s Experiment.all in
  exit (Experiment.exit_status checks)

let repro_cmd =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Paper-sized workloads.")
  in
  let scale =
    Arg.(
      value
      & opt (some float) None
      & info [ "scale" ] ~docv:"F" ~doc:"Workload multiplier (default quick).")
  in
  Cmd.v
    (Cmd.info "repro" ~doc:"Reproduce every table and figure of the paper.")
    Term.(const repro $ full $ scale)

(* --------------------------------------------------------- smallfile *)

let smallfile variant segments files bytes =
  positive "--files" files;
  let inst = Setup.make ~geom:(geom_of segments) variant in
  let r =
    Smallfile.run inst { Smallfile.file_count = files; file_bytes = bytes; dirs = 1 }
  in
  Printf.printf "variant: %s, %d files x %d bytes\n"
    (Setup.variant_label variant) files bytes;
  let phase name (p : Smallfile.phase) =
    Printf.printf "  %-14s %10.1f files/s  (%.3f s virtual)\n" name
      p.Smallfile.files_per_sec
      (float_of_int p.Smallfile.elapsed_ns /. 1e9)
  in
  phase "create+write" r.Smallfile.create_write;
  phase "read" r.Smallfile.read;
  phase "delete" r.Smallfile.delete

let smallfile_cmd =
  let files =
    Arg.(value & opt int 1000 & info [ "files" ] ~docv:"N" ~doc:"File count.")
  in
  let bytes =
    Arg.(value & opt int 1024 & info [ "bytes" ] ~docv:"N" ~doc:"File size.")
  in
  Cmd.v
    (Cmd.info "smallfile" ~doc:"Run the small-file benchmark (Figure 5).")
    Term.(const smallfile $ variant_arg $ segments_arg $ files $ bytes)

(* --------------------------------------------------------- largefile *)

let largefile variant segments mbytes =
  positive "--mbytes" mbytes;
  let inst = Setup.make ~geom:(geom_of segments) variant in
  let r =
    Largefile.run inst
      { Largefile.paper with Largefile.file_bytes = mbytes * 1024 * 1024 }
  in
  Printf.printf "variant: %s, %d MB file\n" (Setup.variant_label variant) mbytes;
  List.iter
    (fun (p : Largefile.phase) ->
      Printf.printf "  %-8s %8.2f MB/s\n" p.Largefile.label p.Largefile.mb_per_sec)
    (Largefile.phases r)

let largefile_cmd =
  let mbytes =
    Arg.(value & opt int 16 & info [ "mbytes" ] ~docv:"N" ~doc:"File size in MB.")
  in
  Cmd.v
    (Cmd.info "largefile" ~doc:"Run the large-file benchmark (Figure 6).")
    Term.(const largefile $ variant_arg $ segments_arg $ mbytes)

(* --------------------------------------------------------- aru-bench *)

let aru_bench variant segments count =
  positive "--count" count;
  let _, lld = Setup.make_raw ~geom:(geom_of segments) variant in
  let r = Aru_churn.run lld { Aru_churn.count } in
  Printf.printf
    "%d ARUs on %s LLD: %.2f us/ARU, %d segments written\n" r.Aru_churn.count
    (Setup.variant_label variant) r.Aru_churn.latency_us
    r.Aru_churn.segments_written

let aru_bench_cmd =
  let count =
    Arg.(
      value & opt int 100_000
      & info [ "count" ] ~docv:"N" ~doc:"Begin/End pairs (paper: 500000).")
  in
  Cmd.v
    (Cmd.info "aru-bench" ~doc:"Measure Begin/End ARU latency (paper 5.3).")
    Term.(const aru_bench $ variant_arg $ segments_arg $ count)

(* -------------------------------------------------------- crashcheck *)

let point_conv =
  let parse s =
    let fail () =
      Error (`Msg (Printf.sprintf "expected INDEX or INDEX:KEEP, got %S" s))
    in
    match String.split_on_char ':' s with
    | [ i ] -> (
      match int_of_string_opt i with
      | Some i -> Ok { Crashcheck.pt_index = i; pt_keep = None }
      | None -> fail ())
    | [ i; k ] -> (
      match (int_of_string_opt i, int_of_string_opt k) with
      | Some i, Some k -> Ok { Crashcheck.pt_index = i; pt_keep = Some k }
      | _ -> fail ())
    | _ -> fail ()
  in
  Arg.conv (parse, Crashcheck.pp_point)

let crashcheck workload shards budget granularity seed at broken_sweep
    trace_dir differential during_recovery inner_budget corruption =
  let usage fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        exit 2)
      fmt
  in
  (* bad points and granularities are usage errors *)
  let usage_checked f = try f () with Invalid_argument msg -> usage "%s" msg in
  (* one mode per run, and a flag the mode would ignore is refused
     rather than silently dropped *)
  let enumeration = "crash-point enumeration" in
  let mode =
    match
      List.filter snd
        [
          ("--at", at <> None);
          ("--differential", differential);
          ("--corruption", corruption);
          ("--during-recovery", during_recovery);
        ]
    with
    | [] -> enumeration
    | [ (m, _) ] -> m
    | (a, _) :: (b, _) :: _ -> usage "%s and %s cannot be combined" a b
  in
  let applies_to modes flag given =
    if given && not (List.mem mode modes) then
      usage "%s is ignored by %s" flag mode
  in
  applies_to [ enumeration ] "--test-broken-sweep" broken_sweep;
  applies_to [ enumeration; "--during-recovery" ] "--budget" (budget <> None);
  applies_to [ enumeration; "--during-recovery" ] "--trace-dir"
    (trace_dir <> None);
  applies_to [ "--during-recovery" ] "--inner-budget" (inner_budget <> None);
  let cross_shard = workload = Some "cross-shard" in
  if cross_shard && (differential || corruption || during_recovery) then
    usage
      "--workload cross-shard does not support --differential, --corruption \
       or --during-recovery";
  if cross_shard && shards < 2 then
    usage "--shards must be at least 2 for cross-shard ARUs";
  (* the one-disk specs: every mode but cross-shard's *)
  let selected =
    match workload with
    | None -> Crashcheck.specs
    | Some "cross-shard" -> []
    | Some name -> (
      match List.assoc_opt name Crashcheck.specs with
      | Some mk -> [ (name, mk) ]
      | None ->
        usage "unknown workload %S (known: %s, cross-shard)" name
          (String.concat ", " (List.map fst Crashcheck.specs)))
  in
  (* each workload's recorder and the config its recovery runs with *)
  let recorders =
    if cross_shard then
      let spec = Crashcheck.cross_shard_spec ~shards () in
      [
        ( spec.Crashcheck.ss_name,
          (fun () -> Crashcheck.record_sharded spec),
          spec.Crashcheck.ss_config );
      ]
    else
      List.map
        (fun (name, mk) ->
          let spec = mk () in
          (name, (fun () -> Crashcheck.record spec), spec.Crashcheck.sc_config))
        selected
  in
  let recover_config config =
    if broken_sweep then Some { config with Config.recovery_sweep = false }
    else None
  in
  if differential then begin
    let failed = ref false in
    List.iter
      (fun (name, mk) ->
        let spec = mk () in
        Printf.printf "differential %s: mem vs file backend...\n%!" name;
        let d = Crashcheck.differential spec in
        Format.printf "%a@." Crashcheck.pp_differential d;
        if not (Crashcheck.differential_ok d) then failed := true)
      selected;
    if !failed then exit 1
  end
  else if corruption then begin
    let failed = ref false in
    List.iter
      (fun (name, mk) ->
        let spec = mk () in
        Printf.printf "corruption %s: injecting rot, scrubbing...\n%!" name;
        let r = Crashcheck.corruption_check spec in
        Format.printf "%a@." Crashcheck.pp_corruption_result r;
        if not (Crashcheck.corruption_ok r) then failed := true)
      selected;
    if !failed then exit 1
  end
  else if during_recovery then begin
    let failed = ref false in
    List.iter
      (fun (name, record, config) ->
        Printf.printf "recording %s trace...\n%!" name;
        let trace = record () in
        let progress ~outer ~total =
          Printf.printf "  %s: recovery crashed from %d/%d workload points\n%!"
            name outer total
        in
        let r =
          usage_checked (fun () ->
              Crashcheck.run_during_recovery ~granularity ?budget ?inner_budget
                ~seed ?recover_config:(recover_config config) ?trace_dir
                ~progress trace)
        in
        Format.printf "%a@." Crashcheck.pp_recovery_result r;
        if not (Crashcheck.recovery_ok r) then failed := true)
      recorders;
    if !failed then exit 1
  end
  else
    match at with
    | Some point ->
      let name, record, config =
        match recorders with
        | [ one ] -> one
        | _ -> usage "--at requires --workload"
      in
      let trace = record () in
      Printf.printf "workload %s: %d disk writes recorded\n" name
        (Crashcheck.trace_writes trace);
      let problems =
        usage_checked (fun () ->
            Crashcheck.check_point ?recover_config:(recover_config config)
              trace point)
      in
      if problems = [] then
        Format.printf "crash %a: consistent@." Crashcheck.pp_point point
      else begin
        Format.printf "crash %a: %d violation(s)@." Crashcheck.pp_point point
          (List.length problems);
        List.iter (fun p -> Printf.printf "  %s\n" p) problems;
        exit 1
      end
    | None ->
      let caught_broken = ref false in
      let failed = ref false in
      List.iter
        (fun (name, record, config) ->
          Printf.printf "recording %s trace...\n%!" name;
          let trace = record () in
          let progress ~checked ~selected =
            if checked mod 200 = 0 || checked = selected then
              Printf.printf "  %s: %d/%d crash points checked\n%!" name checked
                selected
          in
          let r =
            usage_checked (fun () ->
                Crashcheck.run ~granularity ?budget ~seed
                  ?recover_config:(recover_config config) ?trace_dir ~progress
                  trace)
          in
          Format.printf "%a@." Crashcheck.pp_result r;
          if Crashcheck.ok r then () else failed := true;
          if broken_sweep && not (Crashcheck.ok r) then caught_broken := true)
        recorders;
      if broken_sweep then
        if !caught_broken then
          print_endline
            "broken recovery (sweep disabled) detected, as intended: the \
             checker works"
        else begin
          print_endline
            "ERROR: recovery sweep was disabled but no violation was detected";
          exit 1
        end
      else if !failed then exit 1

let crashcheck_cmd =
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Workload to check: $(b,smallfile), $(b,aru-churn), \
             $(b,cleaning), $(b,group-commit) or $(b,torture) (paper 5.1's \
             file-system workload) (default: all five), or \
             $(b,cross-shard) — the sharded facade's two-phase-commit \
             workload, enumerated over the interleaved multi-disk write \
             trace (see $(b,--shards)); it takes every mode but \
             $(b,--differential), $(b,--corruption) and \
             $(b,--during-recovery).")
  in
  let shards =
    Arg.(
      value & opt int 3
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "With $(b,--workload cross-shard): number of independent \
             segment logs behind the facade (default 3).")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Check at most N crash points per workload, sampled \
             deterministically (default: exhaustive).  The first and last \
             point are always checked, so N below 2 still checks 2.")
  in
  let granularity =
    Arg.(
      value & opt int 512
      & info [ "granularity" ] ~docv:"BYTES"
          ~doc:"Torn-write boundary spacing in bytes (at least 1).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Sampling seed for budgeted mode.")
  in
  let at =
    Arg.(
      value
      & opt (some point_conv) None
      & info [ "at" ] ~docv:"INDEX[:KEEP]"
          ~doc:
            "Replay a single crash point (as printed by a minimal \
             reproducer) instead of enumerating; requires $(b,--workload).")
  in
  let broken_sweep =
    Arg.(
      value & flag
      & info [ "test-broken-sweep" ]
          ~doc:
            "Self-test of crash-point enumeration: recover with the \
             consistency sweep disabled and verify the checker flags the \
             leak (exits non-zero if it doesn't).")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "When a violation is found, replay the minimal reproducer's \
             recovery under live tracing and write the Chrome trace into \
             $(docv), next to the reproducer command line.")
  in
  let differential =
    Arg.(
      value & flag
      & info [ "differential" ]
          ~doc:
            "Instead of enumerating crash points, run each workload once on \
             the in-memory backend and once on a file backend and verify the \
             final images are byte-identical, the device counters equal, and \
             the virtual clocks equal (paper 2: transparent implementation \
             exchange).")
  in
  let during_recovery =
    Arg.(
      value & flag
      & info [ "during-recovery" ]
          ~doc:
            "Crash the recovery itself: for a sample of workload crash \
             points ($(b,--budget), default 24), recover with early open, \
             verify the oracle through reads before the recovery completes, \
             then enumerate crash points over recovery's own \
             writes (including torn checkpoint chunks) and verify a second \
             recovery from each.")
  in
  let inner_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "inner-budget" ] ~docv:"N"
          ~doc:
            "With $(b,--during-recovery): sample at most N crash points \
             within each recovery's write sequence (default: exhaustive).")
  in
  let corruption =
    Arg.(
      value & flag
      & info [ "corruption" ]
          ~doc:
            "Instead of enumerating crash points, inject silent media rot \
             into each workload's final image — a sealed segment's header, a \
             generational-superblock slot, and a live data slot under a warm \
             instance — then scrub and verify every oracle unit survives \
             with zero data loss (including after a remount).")
  in
  Cmd.v
    (Cmd.info "crashcheck"
       ~doc:
         "Enumerate every crash point of a traced workload (including torn \
          writes), recover at each, and verify ARU atomicity, fsck \
          cleanliness, sweep completeness, and recovery idempotency.")
    Term.(
      const crashcheck $ workload $ shards $ budget $ granularity $ seed $ at
      $ broken_sweep $ trace_dir $ differential $ during_recovery
      $ inner_budget $ corruption)

(* ------------------------------------------------ traced workloads *)

(* With LLD_FORENSICS_DIR set, any Errors.panic (a live-instance
   invariant violation) dumps the black box of the handle we are
   tracing with before the exception propagates. *)
let arm_panic_forensics obs =
  match Sys.getenv_opt "LLD_FORENSICS_DIR" with
  | None -> ()
  | Some dir ->
    Errors.on_panic (fun e ->
        let paths = Forensics.dump ~dir ~label:"panic" obs in
        Printf.eprintf "panic (%s): forensics bundle written:\n"
          (Printexc.to_string e);
        List.iter (fun p -> Printf.eprintf "  %s\n" p) paths)

(* One group-commit engine client: begin, populate a private list with
   [writes] written blocks, commit (translated to a queued submission
   by the engine).  Used by the traced workload so the trace carries
   complete submit -> batch -> seal barrier -> wake flow chains. *)
let engine_commit_client ~block_bytes ~writes tag =
  let aru = ref None in
  let list = ref None in
  let last = ref None in
  let written = ref 0 in
  let state = ref `Begin in
  fun (r : Op.result option) ->
    match !state with
    | `Begin ->
      state := `List;
      Some Op.Begin_aru
    | `List ->
      (match r with Some (Op.R_aru a) -> aru := Some a | _ -> ());
      state := `Block;
      Some (Op.New_list !aru)
    | `Block ->
      (match r with Some (Op.R_list l) -> list := Some l | _ -> ());
      if !written < writes then begin
        state := `Write;
        let pred =
          match !last with
          | None -> Summary.Head
          | Some b -> Summary.After b
        in
        Some (Op.New_block { aru = !aru; list = Option.get !list; pred })
      end
      else begin
        state := `Done;
        Some (Op.End_aru (Option.get !aru))
      end
    | `Write ->
      (match r with
      | Some (Op.R_block b) ->
        last := Some b;
        incr written
      | _ -> ());
      state := `Block;
      Some
        (Op.Write
           {
             aru = !aru;
             block = Option.get !last;
             data = Bytes.make block_bytes (Char.chr (Char.code 'a' + tag));
           })
    | `Done -> None

(* Shared runner for `lld trace` and `lld stats`: a small-file workload
   through the Minix FS (create/write/overwrite/delete), then a forced
   cleaner pass, then an injected crash and a recovery on the same disk
   and clock, then a group-commit engine phase on the recovered
   instance — one virtual timeline covering the op, fs, disk, aru,
   checkpoint, clean, recovery and commit-stage span categories. *)
let run_traced_workload ~variant ~segments ~files ~file =
  let geom = geom_of segments in
  let backend =
    match file with
    | None -> None
    | Some path -> (
      match Backend.file ~create:true ~size:(Geometry.total_bytes geom) path with
      | backend -> Some backend
      | exception Invalid_argument msg -> fail_invalid msg)
  in
  let clock = Clock.create () in
  let obs = Obs.create ~clock () in
  arm_panic_forensics obs;
  let inst = Setup.make ~geom ~clock ~obs ?backend variant in
  let body = Bytes.make 1024 'x' in
  let path i = Printf.sprintf "/f%05d" i in
  for i = 0 to files - 1 do
    Fs.create inst.Setup.fs (path i);
    Fs.write_file inst.Setup.fs (path i) ~off:0 body
  done;
  (* overwrites and deletions leave dead space for the cleaner *)
  for i = 0 to files - 1 do
    if i mod 2 = 0 then Fs.write_file inst.Setup.fs (path i) ~off:0 body
    else Fs.unlink inst.Setup.fs (path i)
  done;
  Fs.flush inst.Setup.fs;
  Lld.clean inst.Setup.lld
    ~target_free:(Lld.free_segments inst.Setup.lld + 2);
  Fs.flush inst.Setup.fs;
  Disk.crash inst.Setup.disk;
  let config =
    let c = Setup.lld_config variant in
    if c.Config.mode = Config.Concurrent then
      (* pinned (never from the environment) so the traced batches are
         deterministic: four clients, batch of 4, one shared barrier *)
      { c with Config.group_commit_window = 50_000; group_commit_batch = 4 }
    else c
  in
  let lld, _report = Lld.recover ~config ~obs inst.Setup.disk in
  if config.Config.mode = Config.Concurrent then
    ignore
      (Engine.run lld
         (List.init 4 (fun i ->
              engine_commit_client ~block_bytes:(Lld.block_bytes lld)
                ~writes:(1 + i) i)));
  (lld, obs)

let traced_files_arg =
  Arg.(
    value & opt int 300
    & info [ "files" ] ~docv:"N" ~doc:"Files in the traced workload.")

(* --------------------------------------------------------------- trace *)

let trace_run variant segments files file out jsonl =
  let _lld, obs = run_traced_workload ~variant ~segments ~files ~file in
  let tr = Obs.trace obs in
  Trace.write_chrome_file tr out;
  Printf.printf
    "wrote %s: %d events (%d dropped), %.3f ms of virtual time\n" out
    (Trace.count tr - Trace.dropped tr)
    (Trace.dropped tr)
    (float_of_int (Trace.now_ns tr) /. 1e6);
  match jsonl with
  | None -> ()
  | Some path ->
    Trace.write_jsonl_file tr path;
    Printf.printf "wrote %s (exact-nanosecond JSONL sidecar)\n" path

let trace_cmd =
  let out =
    Arg.(
      value
      & opt string "lld.trace.json"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Chrome trace-event JSON output (Perfetto-loadable).")
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Also write a JSONL sidecar with exact nanosecond stamps.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced workload (small files, forced cleaning, injected \
          crash, recovery) and export the span trace as Chrome trace-event \
          JSON.")
    Term.(
      const trace_run $ variant_arg $ segments_arg $ traced_files_arg
      $ file_arg $ out $ jsonl)

(* --------------------------------------------------------------- stats *)

let stats_run variant segments files file json openmetrics =
  let _lld, obs = run_traced_workload ~variant ~segments ~files ~file in
  let m = Obs.metrics obs in
  if openmetrics then print_string (Metrics.to_openmetrics_string m)
  else if json then print_endline (Metrics.to_json_string m)
  else begin
    let hists =
      List.filter
        (fun (_, h) -> Histogram.count h > 0)
        (List.sort compare (Metrics.histograms m))
    in
    Printf.printf "%-28s %8s %12s %10s %10s %10s\n" "span" "count" "mean (us)"
      "p50" "p95" "p99";
    List.iter
      (fun (name, h) ->
        let us ns = float_of_int ns /. 1e3 in
        Printf.printf "%-28s %8d %12.2f %10.2f %10.2f %10.2f\n" name
          (Histogram.count h)
          (Histogram.mean h /. 1e3)
          (us (Histogram.p50 h))
          (us (Histogram.p95 h))
          (us (Histogram.p99 h)))
      hists;
    Printf.printf "\ngauges (sampled after recovery):\n";
    List.iter
      (fun (name, v, help) -> Printf.printf "  %-20s %10d  %s\n" name v help)
      (Metrics.sample_gauges m)
  end

let stats_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the metrics registry as JSON instead.")
  in
  let openmetrics =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:
            "Emit the metrics registry in OpenMetrics/Prometheus text \
             exposition format (counters as $(b,_total), histograms with \
             cumulative $(b,le) buckets) instead.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a traced workload and report per-operation latency \
          percentiles (p50/p95/p99 on the virtual clock), the commit-stage \
          breakdown, and live gauges.")
    Term.(
      const stats_run $ variant_arg $ segments_arg $ traced_files_arg
      $ file_arg $ json $ openmetrics)

(* -------------------------------------------------------------- info *)

let print_layout geom =
  let module L = Lld_core.Disk_layout in
  Printf.printf "partition: %d segments x %d KB = %d MB\n"
    geom.Geometry.num_segments
    (geom.Geometry.segment_bytes / 1024)
    (Geometry.total_bytes geom / 1024 / 1024);
  Printf.printf "checkpoint regions: 2 x %d segments\n" (L.region_segments geom);
  Printf.printf "log segments: %d (first at %d)\n" (L.log_count geom)
    (L.log_first geom);
  Printf.printf "logical block capacity: %d x 4 KB\n" (L.block_capacity geom)

let print_gauges ~header obs =
  Printf.printf "%s:\n" header;
  List.iter
    (fun (name, v, help) -> Printf.printf "  %-20s %10d  %s\n" name v help)
    (Metrics.sample_gauges (Obs.metrics obs))

let print_counters ~header lld =
  Printf.printf "%s:\n" header;
  let c = Lld.counters lld in
  List.iter
    (fun (name, get, _set) -> Printf.printf "  %-24s %10d\n" name (get c))
    Counters.fields

let show_info segments file =
  match file with
  | None ->
    let geom = geom_of segments in
    print_layout geom;
    (* live gauges of a freshly formatted logical disk on this geometry *)
    let clock = Clock.create () in
    let obs = Obs.create ~clock () in
    let _, lld = Setup.make_raw ~geom ~clock ~obs Setup.New in
    print_gauges ~header:"gauges (freshly formatted)" obs;
    print_counters ~header:"operation counters (freshly formatted)" lld
  | Some path -> (
    let geom, backend = open_image path in
    Printf.printf "image: %s (backend %s)\n" path backend.Backend.label;
    print_layout geom;
    let clock = Clock.create () in
    let obs = Obs.create ~clock () in
    let disk = Disk.create ~backend ~clock geom in
    match Lld.recover ~obs disk with
    | exception Errors.Corrupt msg ->
      Printf.eprintf "corrupt or unformatted image: %s\n" msg;
      Disk.close disk;
      exit 1
    | exception Errors.Corruption c ->
      Format.eprintf "corrupt image %s: %a@." path Errors.pp_corruption c;
      Disk.close disk;
      exit 1
    | lld, report ->
      Format.printf "recovery: %a@." Recovery.pp_report report;
      print_gauges ~header:"gauges (after recovery)" obs;
      print_counters ~header:"operation counters (after recovery)" lld;
      Disk.close disk)

let info_cmd =
  Cmd.v
    (Cmd.info "info"
       ~doc:
         "Show partition layout, live gauges, and the full operation-counter \
          table — of a freshly formatted logical disk, or of a persistent \
          image ($(b,--file)) after recovering it.")
    Term.(const show_info $ segments_arg $ file_arg)

(* --------------------------------------------------------------- bench *)

(* G1: group-commit throughput scaling with concurrent clients, judged
   by the same declared checks the reproduction uses. *)
let bench_run clients segments =
  if clients = [] then fail_invalid "--clients needs at least one count";
  List.iter
    (fun n -> if n < 1 then fail_invalid "--clients counts must be positive")
    clients;
  let scale = { Experiment.quick with Experiment.geom = geom_of segments } in
  let checks, _json =
    Experiment.run Format.std_formatter scale
      [ Experiment.group_commit ~clients () ]
  in
  exit (Experiment.exit_status checks)

let bench_cmd =
  let clients =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16 ]
      & info [ "clients" ] ~docv:"N,..."
          ~doc:
            "Concurrent client counts to run (comma-separated).  When the \
             list includes 1 and 8 the scaling gates are evaluated and a \
             failure exits non-zero.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "G1: group-commit scaling — run N concurrent synchronous-commit \
          clients through the engine's event loop and report commits/s, \
          batch sizes and barriers per commit for each N.")
    Term.(const bench_run $ clients $ segments_arg)

(* ---------------------------------------------------------------- *)
(* model: differential fuzzing against the executable specification   *)

let model_fuzz seed budget clients ops option backend crash_every crash_points
    group_commit shards inject expect_divergence out_dir =
  let visibility =
    match option with
    | 1 -> Config.Any_shadow
    | 2 -> Config.Committed_only
    | 3 -> Config.Own_shadow
    | n ->
      fail_invalid
        (Printf.sprintf
           "unknown read-visibility option %d (the paper defines 1, 2 and 3)"
           n)
  in
  let mutation =
    match inject with
    | None -> None
    | Some name -> (
      match Model.mutation_of_string name with
      | Some m -> Some m
      | None ->
        fail_invalid
          (Printf.sprintf "unknown injected bug %S (known: %s)" name
             (String.concat ", "
                (List.map Model.mutation_label Model.mutations))))
  in
  if clients < 1 then fail_invalid "--clients must be at least 1";
  if ops < 1 then fail_invalid "--ops must be at least 1";
  if budget < 1 then fail_invalid "--budget must be at least 1";
  if shards < 1 then fail_invalid "--shards must be at least 1";
  let cfg =
    {
      Differ.default_config with
      Differ.visibility;
      mutation;
      backend = (match backend with `Mem -> Differ.Mem | `File -> Differ.File);
      clients;
      ops;
      crash_every;
      crash_points;
      group_commit;
      shards;
    }
  in
  let progress ~case =
    if case mod 100 = 0 then Printf.printf "  case %d/%d...\n%!" case budget
  in
  let report = Differ.fuzz ~progress ~seed ~budget cfg in
  Format.printf "%a@." Differ.pp_report report;
  (match (out_dir, report.Differ.rp_failure) with
  | Some dir, Some f ->
    (try
       Forensics.ensure_dir dir;
       let path =
         Filename.concat dir (Printf.sprintf "model-divergence-seed%d.txt" seed)
       in
       let oc = open_out path in
       let ppf = Format.formatter_of_out_channel oc in
       Format.fprintf ppf "%a@." Differ.pp_report report;
       close_out oc;
       Printf.printf "divergence report written to %s\n" path;
       (* re-run the shrunk program with the flight recorder and tracer
          live and drop the black-box bundle next to the report *)
       let crash =
         cfg.Differ.crash_every > 0
         && f.Differ.fl_case_index mod cfg.Differ.crash_every = 0
       in
       let _div, paths =
         Differ.dump_forensics ~crash ~dir
           ~label:(Printf.sprintf "model-divergence-seed%d" seed)
           cfg ~seed:f.Differ.fl_case_seed f.Differ.fl_shrunk
       in
       List.iter (fun p -> Printf.printf "forensics: %s\n" p) paths
     with Sys_error msg ->
       (* evidence that was asked for and not kept fails the run, an
          expected divergence included *)
       Printf.eprintf "cannot write report: %s\n" msg;
       exit 1)
  | _ -> ());
  let diverged = not (Differ.ok report) in
  if expect_divergence || mutation <> None then
    if diverged then
      print_endline
        "divergence found and shrunk, as intended: the differ works"
    else begin
      print_endline "ERROR: a divergence was expected but none was found";
      exit 1
    end
  else if diverged then exit 1

let model_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Master seed; equal seeds reproduce bit-for-bit.")
  in
  let budget =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N" ~doc:"Number of generated programs.")
  in
  let clients =
    Arg.(
      value & opt int 2
      & info [ "clients" ] ~docv:"N"
          ~doc:"Concurrent clients interleaved per program.")
  in
  let ops =
    Arg.(
      value & opt int 40
      & info [ "ops" ] ~docv:"N" ~doc:"Commands per client per program.")
  in
  let option =
    Arg.(
      value & opt int 3
      & info [ "option" ] ~docv:"1|2|3"
          ~doc:
            "Read-visibility option (paper 3.3): $(b,1) any shadow, $(b,2) \
             committed only, $(b,3) own shadow (default).")
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("mem", `Mem); ("file", `File) ]) `Mem
      & info [ "backend" ] ~docv:"mem|file" ~doc:"Storage backend.")
  in
  let crash_every =
    Arg.(
      value & opt int 4
      & info [ "crash-every" ] ~docv:"N"
          ~doc:
            "Replay crash points on every N-th case ($(b,0) disables the \
             crash-composition phase).")
  in
  let crash_points =
    Arg.(
      value & opt int 12
      & info [ "crash-points" ] ~docv:"N"
          ~doc:"Crash-point sample budget per crash case.")
  in
  let group_commit =
    Arg.(
      value & flag
      & info [ "group-commit" ]
          ~doc:
            "Schedule commits through the group-commit engine: $(b,Commit) \
             commands become queued submissions, both sides drain in \
             lockstep when a batch is due, and the crash frontier includes \
             every per-ARU boundary inside a batched commit record.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Run both sides behind the sharded facade with $(docv) \
             independent segment logs: operations route by placement, \
             multi-shard ARUs commit via two-phase commit, and each crash \
             point checks every shard's recovered projection against that \
             shard's own frontier chain ($(b,1), the default, is the plain \
             single-instance path).")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"BUG"
          ~doc:
            "Self-test: run the model with a deliberate semantic bug \
             ($(b,read-committed) or $(b,commit-drops-data)) and verify the \
             differ finds and shrinks the divergence (exits non-zero if it \
             doesn't).")
  in
  let expect_divergence =
    Arg.(
      value & flag
      & info [ "expect-divergence" ]
          ~doc:"Exit zero exactly when a divergence is found.")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Write the divergence report into $(docv) when a case fails.")
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:
         "Differential fuzzing: run generated multi-client programs against \
          the pure executable specification and the real log-structured \
          implementation, compare every observable result and the final \
          committed state, replay sampled crash points against the model's \
          crash frontier, and shrink any divergence to a minimal program.")
    Term.(
      const model_fuzz $ seed $ budget $ clients $ ops $ option $ backend
      $ crash_every $ crash_points $ group_commit $ shards $ inject
      $ expect_divergence $ out_dir)

let () =
  let doc = "Atomic Recovery Units / log-structured Logical Disk reproduction" in
  let cmd =
    Cmd.group
      (Cmd.info "lld" ~version:"1.0.0" ~doc)
      [
        repro_cmd; smallfile_cmd; largefile_cmd; aru_bench_cmd; bench_cmd;
        crashcheck_cmd; model_cmd; trace_cmd; stats_cmd; info_cmd; mkfs_cmd;
        mount_cmd; scrub_cmd;
      ]
  in
  exit (Cmd.eval cmd)
