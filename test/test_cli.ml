(* Exit-code matrix for the command-line tool: every user-facing command
   obeys the convention

     0  success
     1  the operation ran and found a real problem (corrupt image,
        failed verification, divergence)
     2  invalid usage or an unusable image (bad geometry, unknown flag
        values)

   driven as a table so adding a command means adding rows. *)

let cli =
  (* the test binary lives in _build/default/test next to _build/default/bin;
     resolve relative to the executable so the working directory (which
     differs between `dune runtest` and `dune exec`) does not matter.
     The dune rule depends on the executable so it is always built. *)
  let near_exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/lld_cli.exe"
  in
  let candidates = [ near_exe; "../bin/lld_cli.exe"; "bin/lld_cli.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith "lld_cli.exe not built (missing dune dependency?)"

let run args =
  Sys.command
    (Filename.quote_command cli ~stdout:"/dev/null" ~stderr:"/dev/null" args)

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "lld-cli-%d-%s" (Unix.getpid ()) name)

let segment_bytes = 512 * 1024

let write_file path bytes =
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

(* Fixture images: a properly formatted one, one whose size is not a
   whole number of segments, one with valid geometry but zeroed content
   (nothing to recover), a zeroed one of four whole segments — too
   small to hold a log — and two formatted ones that lost every
   generation of a generational structure: both superblock slots (blocks
   0 and 1), or the first chunk of both checkpoint regions (segments 1
   and 4 of a 64-segment image), and a formatted one whose other
   checkpoint region holds a checksummed, newer full naming a block
   outside the disk. *)
let good_image = tmp "good.img"
let badsize_image = tmp "badsize.img"
let zeroed_image = tmp "zeroed.img"
let tiny_image = tmp "tiny.img"
let no_superblock_image = tmp "no-superblock.img"
let no_checkpoint_image = tmp "no-checkpoint.img"
let outside_block_image = tmp "outside-block.img"

(* mkfs target that a rejected geometry must not create *)
let small_mkfs_image = tmp "small-mkfs.img"

let setup_images () =
  let rc =
    run [ "mkfs"; "--file"; good_image; "--segments"; "64"; "--files"; "3" ]
  in
  if rc <> 0 then Alcotest.failf "mkfs fixture failed with exit code %d" rc;
  write_file badsize_image (Bytes.create 1000);
  write_file zeroed_image (Bytes.create (32 * segment_bytes));
  write_file tiny_image (Bytes.make (4 * segment_bytes) '\000');
  let damaged path ranges =
    let image =
      Bytes.of_string (In_channel.with_open_bin good_image In_channel.input_all)
    in
    List.iter (fun (off, len) -> Bytes.fill image off len '\000') ranges;
    write_file path image
  in
  damaged no_superblock_image [ (0, 2 * 4096) ];
  damaged no_checkpoint_image
    [ (segment_bytes, segment_bytes); (4 * segment_bytes, segment_bytes) ];
  damaged outside_block_image [];
  let open Helpers in
  let module Checkpoint = Lld_core.Checkpoint in
  let geom = Geometry.v ~num_segments:64 () in
  let disk =
    Disk.create ~clock:(Clock.create ())
      ~backend:
        (Lld_disk.Backend.file ~size:(Geometry.total_bytes geom)
           outside_block_image)
      geom
  in
  (match Checkpoint.read_best disk with
  | None -> Alcotest.fail "mkfs fixture has no checkpoint"
  | Some best ->
    let capacity = Lld_core.Disk_layout.block_capacity geom in
    let blocks, lists =
      tables ~capacity:(capacity + 10)
        ~blocks:[ (capacity + 5, None, None, None, 1) ]
        ()
    in
    let snap = best.Checkpoint.best_snap in
    Checkpoint.write disk
      ~region:(1 - best.Checkpoint.best_full_region)
      ~owner_active:(fun _ -> false)
      blocks lists
      { snap with Checkpoint.ckpt_id = snap.Checkpoint.ckpt_id + 1; kind = Full });
  Disk.close disk

let cleanup_images () =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [
      good_image; badsize_image; zeroed_image; tiny_image; small_mkfs_image;
      no_superblock_image; no_checkpoint_image; outside_block_image;
    ]

(* The matrix.  [trace]/[stats] run a real (small) workload; [model]
   runs a real (small) differential-fuzzing session. *)
let matrix () =
  [
    ("info, fresh geometry", [ "info"; "--segments"; "64" ], 0);
    ("info, formatted image", [ "info"; "--file"; good_image ], 0);
    ("info, truncated image", [ "info"; "--file"; badsize_image ], 2);
    ("info, zeroed image", [ "info"; "--file"; zeroed_image ], 1);
    ("info, partition too small for a log", [ "info"; "--segments"; "10" ], 2);
    ("info, smallest partition", [ "info"; "--segments"; "11" ], 0);
    ("info, four-segment image", [ "info"; "--file"; tiny_image ], 2);
    ( "mkfs, partition too small for a log",
      [ "mkfs"; "--file"; small_mkfs_image; "--segments"; "10" ],
      2 );
    ("mount, four-segment image", [ "mount"; "--file"; tiny_image ], 2);
    ("scrub, four-segment image", [ "scrub"; "--file"; tiny_image ], 2);
    ("smallfile, zero files", [ "smallfile"; "--files"; "0" ], 2);
    ( "mkfs, fresh image",
      [ "mkfs"; "--file"; tmp "mkfs2.img"; "--segments"; "64"; "--files"; "2" ],
      0 );
    ("mount, formatted image", [ "mount"; "--file"; good_image ], 0);
    ("mount, truncated image", [ "mount"; "--file"; badsize_image ], 2);
    ("mount, zeroed image", [ "mount"; "--file"; zeroed_image ], 1);
  ]
  (* a formatted image that lost every generation of its superblock or
     of its checkpoint is corrupt: a real problem, never a crash *)
  @ List.concat_map
      (fun (what, image) ->
        List.map
          (fun cmd -> (cmd ^ ", " ^ what, [ cmd; "--file"; image ], 1))
          [ "mount"; "info"; "scrub" ])
      [
        ("superblock slots destroyed", no_superblock_image);
        ("checkpoint generations destroyed", no_checkpoint_image);
      ]
  (* a newer checkpoint that names a block outside the disk is corrupt
     and drops out: the older generation mounts *)
  @ List.map
      (fun cmd ->
        (cmd ^ ", newer checkpoint outside the disk",
         [ cmd; "--file"; outside_block_image ], 0))
      [ "mount"; "info"; "scrub" ]
  @ [
    ( "trace, small workload",
      [
        "trace"; "--segments"; "64"; "--files"; "4"; "--out"; tmp "trace.json";
      ],
      0 );
    ("stats, small workload", [ "stats"; "--segments"; "64"; "--files"; "4" ], 0);
    ("bench, G1 gates at 1 and 8 clients", [ "bench"; "--clients"; "1,8" ], 0);
    ("bench, zero clients", [ "bench"; "--clients"; "0" ], 2);
    ( "crashcheck, zero granularity",
      [ "crashcheck"; "--workload"; "aru-churn"; "--granularity"; "0" ],
      2 );
    ( "crashcheck, negative granularity",
      [ "crashcheck"; "--workload"; "aru-churn"; "--granularity=-512" ],
      2 );
    ( "crashcheck, cross-shard on one shard",
      [ "crashcheck"; "--workload"; "cross-shard"; "--shards"; "1" ],
      2 );
    ( "crashcheck, torture workload",
      [ "crashcheck"; "--workload"; "torture"; "--budget"; "20" ],
      0 );
    (* enumeration samples, and so reads --seed, only under --budget *)
    ( "crashcheck, --seed without --budget",
      [ "crashcheck"; "--workload"; "group-commit"; "--seed"; "7" ],
      2 );
    ( "crashcheck, --seed with --budget",
      [
        "crashcheck"; "--workload"; "group-commit"; "--budget"; "100";
        "--seed"; "7";
      ],
      0 );
  ]
  (* a second mode, or a flag the chosen mode ignores, is a usage
     error *)
  @ List.map
      (fun (name, flags) ->
        ( "crashcheck, " ^ name,
          "crashcheck" :: "--workload" :: "aru-churn" :: flags,
          2 ))
      [
        ("broken sweep with --differential",
         [ "--differential"; "--test-broken-sweep" ]);
        ("broken sweep with --corruption",
         [ "--corruption"; "--test-broken-sweep" ]);
        ("broken sweep with --at", [ "--at"; "160"; "--test-broken-sweep" ]);
        ("broken sweep with --during-recovery",
         [ "--during-recovery"; "--test-broken-sweep" ]);
        ("--at with --differential", [ "--at"; "1"; "--differential" ]);
        ("--at with --corruption", [ "--at"; "1"; "--corruption" ]);
        ("--at with --during-recovery", [ "--at"; "1"; "--during-recovery" ]);
        ("--differential with --corruption",
         [ "--differential"; "--corruption" ]);
        ("--inner-budget without --during-recovery",
         [ "--budget"; "2"; "--inner-budget"; "2" ]);
        ("--budget with --at", [ "--at"; "1"; "--budget"; "2" ]);
        ("--trace-dir with --corruption",
         [ "--corruption"; "--trace-dir"; tmp "unused-dir" ]);
        ("--shards without cross-shard", [ "--shards"; "3" ]);
        ("--granularity with --at", [ "--at"; "1"; "--granularity"; "512" ]);
        ("--granularity with --differential",
         [ "--differential"; "--granularity"; "512" ]);
        ("--granularity with --corruption",
         [ "--corruption"; "--granularity"; "512" ]);
        ("--seed with --at", [ "--at"; "1"; "--seed"; "1" ]);
        ("--seed with --differential", [ "--differential"; "--seed"; "1" ]);
        ("--seed with --corruption", [ "--corruption"; "--seed"; "1" ]);
      ]
  @ [
    ( "model, small clean fuzz",
      [ "model"; "--budget"; "2"; "--ops"; "10"; "--crash-every"; "0" ],
      0 );
    ("model, unknown visibility option", [ "model"; "--option"; "9" ], 2);
    ("model, unknown injected bug", [ "model"; "--inject"; "bogus" ], 2);
    ("model, zero budget", [ "model"; "--budget"; "0" ], 2);
    ( "model, expected divergence missing",
      [ "model"; "--budget"; "1"; "--ops"; "5"; "--expect-divergence" ],
      1 );
  ]

let test_matrix () =
  setup_images ();
  Fun.protect ~finally:cleanup_images (fun () ->
      let failures =
        List.filter_map
          (fun (name, args, expected) ->
            let got = run args in
            if got = expected then None
            else
              Some
                (Printf.sprintf "%s: expected exit %d, got %d (lld %s)" name
                   expected got (String.concat " " args)))
          (matrix ())
      in
      let failures =
        if Sys.file_exists small_mkfs_image then
          "mkfs, partition too small for a log: left the image behind"
          :: failures
        else failures
      in
      if failures <> [] then Alcotest.fail (String.concat "\n" failures))

(* [model --out-dir] creates the directory with any missing parents:
   the divergence report and its forensics bundle land in it. *)
let test_model_out_dir_parents () =
  let root = tmp "model-out" in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let rec remove path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  remove root;
  Fun.protect ~finally:(fun () -> remove root) (fun () ->
      let rc =
        run
          [
            "model"; "--inject"; "read-committed"; "--budget"; "20";
            "--out-dir"; dir;
          ]
      in
      Alcotest.(check int) "exit code" 0 rc;
      Alcotest.(check bool) "divergence report written" true
        (Sys.file_exists (Filename.concat dir "model-divergence-seed1.txt")))

(* A report asked for and not written fails the run, even under
   [--inject], where the divergence itself is the expected outcome:
   here [--out-dir] names a path under a regular file. *)
let test_model_out_dir_unwritable () =
  let file = tmp "model-out-file" in
  write_file file (Bytes.of_string "not a directory");
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () ->
      let rc =
        run
          [
            "model"; "--inject"; "read-committed"; "--budget"; "20";
            "--out-dir"; Filename.concat file "x";
          ]
      in
      if rc = 0 then
        Alcotest.fail "model exited 0 although the report could not be written")

let () =
  Alcotest.run "lld_cli"
    [
      ( "exit-codes",
        [ Alcotest.test_case "command exit-code matrix" `Slow test_matrix ] );
      ( "model",
        [
          Alcotest.test_case "--out-dir creates missing parents" `Quick
            test_model_out_dir_parents;
          Alcotest.test_case "--out-dir unwritable fails the run" `Quick
            test_model_out_dir_unwritable;
        ] );
    ]
