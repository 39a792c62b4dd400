module Clock = Lld_sim.Clock
module Geometry = Lld_disk.Geometry
module Timing = Lld_disk.Timing
module Fault = Lld_disk.Fault
module Disk = Lld_disk.Disk

let test_geometry_paper () =
  let g = Geometry.paper in
  Alcotest.(check int) "blocks/segment" 128 (Geometry.blocks_per_segment g);
  Alcotest.(check int) "total blocks" 102_400 (Geometry.total_blocks g);
  Alcotest.(check int) "total bytes" (400 * 1024 * 1024) (Geometry.total_bytes g)

let test_geometry_validation () =
  Alcotest.check_raises "segment not multiple of block"
    (Invalid_argument
       "Geometry.v: segment size must be a multiple of the block size")
    (fun () -> ignore (Geometry.v ~block_bytes:4096 ~segment_bytes:5000 ~num_segments:4 ()))

let test_geometry_offsets () =
  let g = Geometry.small in
  Alcotest.(check int) "segment 0" 0 (Geometry.segment_offset g 0);
  Alcotest.(check int) "segment 3" (3 * 512 * 1024) (Geometry.segment_offset g 3);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Geometry.segment_offset") (fun () ->
      ignore (Geometry.segment_offset g 32))

let request ~last_end ~offset ~length =
  let b = Timing.request_breakdown Geometry.paper ~last_end ~offset ~length in
  b.Timing.position_ns + b.Timing.xfer_ns

let test_timing_sequential_cheaper_than_random () =
  let seq = request ~last_end:1_000_000 ~offset:1_000_000 ~length:4096 in
  let rand = request ~last_end:1_000_000 ~offset:300_000_000 ~length:4096 in
  Alcotest.(check bool)
    (Printf.sprintf "sequential (%dns) << random (%dns)" seq rand)
    true
    (seq * 4 < rand)

let test_timing_transfer_scales () =
  let small = request ~last_end:0 ~offset:0 ~length:4096 in
  let large = request ~last_end:0 ~offset:0 ~length:(512 * 1024) in
  Alcotest.(check bool) "larger transfer takes longer" true (large > small)

let test_timing_sequential_bandwidth () =
  (* A sustained sequential segment stream must land in the ballpark of
     the paper's ~2 MB/s effective bandwidth. *)
  let seg = 512 * 1024 in
  let total = ref 0 in
  for i = 0 to 99 do
    total := !total + request ~last_end:(i * seg) ~offset:(i * seg) ~length:seg
  done;
  let mb_per_s = 100. *. 0.5 /. (float_of_int !total /. 1e9) in
  Alcotest.(check bool)
    (Printf.sprintf "sequential bandwidth %.2f MB/s in [1.5, 2.5]" mb_per_s)
    true
    (mb_per_s > 1.5 && mb_per_s < 2.5)

let test_timing_random_block_reads_slow () =
  (* Random 4 KB reads on the HP C3010 should cost ~15-20 ms. *)
  let t = request ~last_end:(-1) ~offset:123 ~length:4096 in
  Alcotest.(check bool)
    (Printf.sprintf "cold 4KB read %dns in [10ms, 25ms]" t)
    true
    (t > 10_000_000 && t < 25_000_000)

(* A fresh disk, with its crash plan scheduled when [crash] is given. *)
let mk_disk ?crash () =
  let clock = Clock.create () in
  let d = Disk.create ~clock Geometry.small in
  Option.iter (Fault.schedule_crash (Disk.fault d)) crash;
  (clock, d)

let test_disk_write_read_roundtrip () =
  let _, d = mk_disk () in
  let data = Bytes.of_string "hello, disk" in
  Disk.write d ~offset:8192 data;
  let back = Disk.read d ~offset:8192 ~length:(Bytes.length data) in
  Alcotest.(check string) "roundtrip" "hello, disk" (Bytes.to_string back)

let test_disk_charges_clock () =
  let clock, d = mk_disk () in
  Disk.write d ~offset:0 (Bytes.make 4096 'x');
  Alcotest.(check bool) "io time charged" true (Clock.total_ns clock Clock.Io > 0);
  Alcotest.(check int) "no cpu charged" 0 (Clock.total_ns clock Clock.Cpu)

let test_disk_bounds () =
  let _, d = mk_disk () in
  Alcotest.check_raises "write past end"
    (Invalid_argument "Disk: request outside the partition") (fun () ->
      Disk.write d ~offset:(Geometry.total_bytes Geometry.small - 1)
        (Bytes.make 4096 'x'))

let test_disk_counters () =
  let _, d = mk_disk () in
  Disk.write d ~offset:0 (Bytes.make 100 'a');
  Disk.write d ~offset:200 (Bytes.make 50 'b');
  ignore (Disk.read d ~offset:0 ~length:10);
  let c = Disk.counters d in
  Alcotest.(check int) "writes" 2 c.Disk.writes;
  Alcotest.(check int) "reads" 1 c.Disk.reads;
  Alcotest.(check int) "bytes written" 150 c.Disk.bytes_written;
  Alcotest.(check int) "bytes read" 10 c.Disk.bytes_read;
  Disk.reset_counters d;
  Alcotest.(check int) "reset" 0 (Disk.counters d).Disk.writes

let test_fault_crash_after_writes () =
  let _, d = mk_disk ~crash:(Fault.After_writes 2) () in
  Disk.write d ~offset:0 (Bytes.make 10 'a');
  Disk.write d ~offset:0 (Bytes.make 10 'b');
  Alcotest.check_raises "third write crashes" Fault.Crashed (fun () ->
      Disk.write d ~offset:0 (Bytes.make 10 'c'));
  (* after the crash the device stays down until recovery resets it *)
  Alcotest.check_raises "still down" Fault.Crashed (fun () ->
      ignore (Disk.read d ~offset:0 ~length:1));
  Fault.reset_after_recovery (Disk.fault d);
  Alcotest.(check string) "surviving content" "b"
    (Bytes.to_string (Disk.read d ~offset:0 ~length:1))

let test_fault_torn_write () =
  let _, d =
    mk_disk ~crash:(Fault.During_write { write_index = 0; keep_bytes = 4 }) ()
  in
  Alcotest.check_raises "torn write crashes" Fault.Crashed (fun () ->
      Disk.write d ~offset:0 (Bytes.of_string "ABCDEFGH"));
  Fault.reset_after_recovery (Disk.fault d);
  let back = Disk.read d ~offset:0 ~length:8 in
  Alcotest.(check string) "prefix persisted" "ABCD\000\000\000\000"
    (Bytes.to_string back)

let test_fault_media_error () =
  let _, d = mk_disk () in
  let fault = Disk.fault d in
  Disk.write d ~offset:0 (Bytes.make 8192 'x');
  Fault.mark_bad fault ~offset:4096 ~length:4096;
  Alcotest.(check int) "clean range readable" 4096
    (Bytes.length (Disk.read d ~offset:0 ~length:4096));
  Alcotest.check_raises "bad range raises"
    (Fault.Media_error { offset = 4096 })
    (fun () -> ignore (Disk.read d ~offset:0 ~length:8192));
  Fault.clear_bad fault;
  Alcotest.(check int) "cleared" 8192 (Bytes.length (Disk.read d ~offset:0 ~length:8192))

let test_fault_schedule_counts_from_now () =
  let _, d = mk_disk () in
  Disk.write d ~offset:0 (Bytes.make 10 'a');
  Fault.schedule_crash (Disk.fault d) (Fault.After_writes 1);
  Disk.write d ~offset:0 (Bytes.make 10 'b');
  Alcotest.check_raises "crashes on second write from scheduling"
    Fault.Crashed (fun () -> Disk.write d ~offset:0 (Bytes.make 10 'c'))

(* The request order DESIGN §5.8 relies on: the fault plan comes before
   the charge and the meter, so a torn write costs and counts only its
   surviving prefix, and a refused request costs and counts nothing. *)
let test_disk_request_order () =
  let clock, d = mk_disk () in
  Disk.write d ~offset:8192 (Bytes.make 512 'x');
  let prefix_ns = Clock.now_ns clock in
  let clock, d =
    mk_disk ~crash:(Fault.During_write { write_index = 0; keep_bytes = 512 }) ()
  in
  let seen = ref [] in
  Disk.set_observer d
    (Some (fun ~index:_ ~offset:_ ~data -> seen := Lld_util.Blk.length data :: !seen));
  Alcotest.check_raises "torn write crashes" Fault.Crashed (fun () ->
      Disk.write d ~offset:8192 (Bytes.make 4096 'y'));
  Alcotest.(check int) "torn write charges its prefix" prefix_ns
    (Clock.now_ns clock);
  let check_meter what ~writes ~bytes_written ~reads =
    let c = Disk.counters d in
    Alcotest.(check (list int))
      (what ^ ": writes, bytes written, reads")
      [ writes; bytes_written; reads ]
      [ c.Disk.writes; c.Disk.bytes_written; c.Disk.reads ];
    Alcotest.(check (list int)) (what ^ ": observer saw the prefix") [ 512 ]
      !seen
  in
  check_meter "torn write" ~writes:1 ~bytes_written:512 ~reads:0;
  Alcotest.check_raises "crashed device refuses a write" Fault.Crashed
    (fun () -> Disk.write d ~offset:0 (Bytes.make 4096 'z'));
  Alcotest.check_raises "crashed device refuses a read" Fault.Crashed
    (fun () -> ignore (Disk.read d ~offset:0 ~length:4096));
  Alcotest.(check int) "crashed device charges nothing" prefix_ns
    (Clock.now_ns clock);
  check_meter "crashed device" ~writes:1 ~bytes_written:512 ~reads:0;
  let clock, d = mk_disk () in
  Fault.mark_bad (Disk.fault d) ~offset:8192 ~length:512;
  Alcotest.check_raises "bad range raises"
    (Fault.Media_error { offset = 8192 })
    (fun () -> ignore (Disk.read d ~offset:8192 ~length:4096));
  Alcotest.(check int) "bad read charges nothing" 0 (Clock.now_ns clock);
  Alcotest.(check int) "bad read counts no read" 0 (Disk.counters d).Disk.reads

let () =
  Alcotest.run "lld_disk"
    [
      ( "geometry",
        [
          Alcotest.test_case "paper configuration" `Quick test_geometry_paper;
          Alcotest.test_case "validation" `Quick test_geometry_validation;
          Alcotest.test_case "segment offsets" `Quick test_geometry_offsets;
        ] );
      ( "timing",
        [
          Alcotest.test_case "sequential << random" `Quick
            test_timing_sequential_cheaper_than_random;
          Alcotest.test_case "transfer scales with size" `Quick
            test_timing_transfer_scales;
          Alcotest.test_case "sequential bandwidth ~2MB/s" `Quick
            test_timing_sequential_bandwidth;
          Alcotest.test_case "random 4KB read ~18ms" `Quick
            test_timing_random_block_reads_slow;
        ] );
      ( "disk",
        [
          Alcotest.test_case "write/read roundtrip" `Quick
            test_disk_write_read_roundtrip;
          Alcotest.test_case "charges the virtual clock" `Quick
            test_disk_charges_clock;
          Alcotest.test_case "bounds checking" `Quick test_disk_bounds;
          Alcotest.test_case "counters" `Quick test_disk_counters;
          Alcotest.test_case "fault plan, charge, store, meter" `Quick
            test_disk_request_order;
        ] );
      ( "fault",
        [
          Alcotest.test_case "crash after N writes" `Quick
            test_fault_crash_after_writes;
          Alcotest.test_case "torn write keeps prefix" `Quick
            test_fault_torn_write;
          Alcotest.test_case "media error" `Quick test_fault_media_error;
          Alcotest.test_case "schedule counts from now" `Quick
            test_fault_schedule_counts_from_now;
        ] );
    ]
