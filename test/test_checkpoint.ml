open Helpers
module Checkpoint = Lld_core.Checkpoint
module Disk_layout = Lld_core.Disk_layout
module Fault = Lld_disk.Fault
module Blk = Lld_util.Blk

let snapshot ?(ckpt_id = 5) ?(kind = Checkpoint.Full) ?(covered_seq = 42)
    ?(pending = []) ?(free_order = []) ?(prepared = []) () =
  {
    Checkpoint.ckpt_id;
    kind;
    covered_seq;
    next_seq = covered_seq + 1;
    stamp = 1000;
    next_aru = 9;
    next_gid = 1;
    pending;
    free_order;
    prepared;
  }

(* Block [i]: on list [i / 2] when even, followed by [i + 1] when a
   multiple of 3, with no data when a multiple of 5. *)
let block i =
  ( i,
    (if i mod 2 = 0 then Some (i / 2) else None),
    (if i mod 3 = 0 then Some (i + 1) else None),
    (if i mod 5 = 0 then None else Some (i mod 30, i mod 128)),
    i * 17 )

let list i =
  (i, Some (i * 2), Some ((i * 2) + 9), i * 31,
   if i mod 4 = 0 then Some (i + 100) else None)

let owner_active _ = true

let encode ?(tables = tables ()) s =
  Checkpoint.encode ~owner_active (fst tables) (snd tables) s

let write ?(tables = tables ()) disk ~region s =
  Checkpoint.write disk ~region ~owner_active (fst tables) (snd tables) s

(* A payload decoded into fresh tables: its fields and the tables' dump. *)
let decode buf =
  let t = tables () in
  let s = Checkpoint.decode_into (fst t) (snd t) buf in
  (s, dump_tables t)

let check_roundtrip what ?(tables = tables ()) s =
  let s', dump = decode (encode ~tables s) in
  Alcotest.(check bool) (what ^ ": fields") true (s' = s);
  Alcotest.(check (list string)) (what ^ ": tables") (dump_tables tables) dump

(* What [read_best] restores: fields, tables, region, full region. *)
let restored disk =
  match Checkpoint.read_best disk with
  | None -> Alcotest.fail "no checkpoint found"
  | Some b ->
    ( b.Checkpoint.best_snap,
      dump_tables (b.Checkpoint.best_blocks, b.Checkpoint.best_lists),
      b.Checkpoint.best_region,
      b.Checkpoint.best_full_region )

let best_id disk =
  let s, _, _, _ = restored disk in
  s.Checkpoint.ckpt_id

let test_encode_decode_empty () = check_roundtrip "empty" (snapshot ())

let test_encode_decode_populated () =
  check_roundtrip "populated"
    ~tables:
      (tables ~blocks:(List.init 50 block)
         ~lists:(List.init 20 (fun i -> list (i + 1)))
         ())
    (snapshot
       ~pending:
         [
           ( 3,
             [
               {
                 Checkpoint.pe_op =
                   Lld_core.Summary.Dealloc
                     { block = Types.Block_id.of_int 9; stamp = 77 };
                 pe_seg = 12;
               };
             ] );
         ]
       ~free_order:[ 10; 11; 12; 13 ] ())

let test_decode_rejects_garbage () =
  Alcotest.check_raises "truncated"
    (Errors.Corrupt "truncated checkpoint payload") (fun () ->
      ignore (decode (Blk.of_bytes (Bytes.make 3 'x'))))

(* The wire bytes of a full and a delta, pinned: the encoder must
   produce them from these tables, and decoding them (the full, then
   the delta over it) must give the tables back.  Recovery reads images
   that older builds wrote, so the bytes may not move. *)
let pinned_full =
  {
    (snapshot ~ckpt_id:7 ~covered_seq:40 ~free_order:[ 9; 10 ] ()) with
    Checkpoint.stamp = 100;
    next_aru = 5;
    next_gid = 3;
  }

let pinned_full_hex =
  String.concat ""
    [
      "03000000000700000000000000280000000000000029000000000000";
      "00640000000000000005000000000000000300000000000000030000";
      "000100000000000000000000000103000000070000000b0000000000";
      "0000020000000000000000000000000c000000000000000500000002";
      "000000000000000104000000000000000d0000000000000002000000";
      "01000000060000000600000015000000000000000400000002000000";
      "00000000000000001600000000000000000000000000000000000000";
      "0000000002000000090000000a00000000000000";
    ]

let pinned_delta =
  {
    (snapshot ~ckpt_id:8
       ~kind:(Checkpoint.Delta { base_id = 7; blocks = [ 1; 2; 6 ]; lists = [ 2 ] })
       ~covered_seq:44
       ~pending:
         [
           ( 3,
             [
               {
                 Checkpoint.pe_op =
                   Lld_core.Summary.Write
                     { block = Types.Block_id.of_int 2; slot = 4; stamp = 30 };
                 pe_seg = 12;
               };
             ] );
         ]
       ~free_order:[ 11 ] ~prepared:[ (3, 9, 1) ] ())
    with
    Checkpoint.stamp = 130;
    next_aru = 6;
    next_gid = 4;
  }

let pinned_delta_hex =
  String.concat ""
    [
      "0300000001070000000000000008000000000000002c000000000000";
      "002d0000000000000082000000000000000600000000000000040000";
      "00000000000100000002000000000000000000000001060000000200";
      "00001e00000000000000000000000200000001000000060000000100";
      "00000200000001000000030000000100000001030000000202000000";
      "040000001e000000000000000c000000010000000b00000001000000";
      "0300000009000000000000000100";
    ]

(* three blocks (one without data, one on a list) and two lists, the
   second owned by an ARU that is no longer active *)
let pinned_blocks =
  [
    (1, None, None, Some (3, 7), 11);
    (2, None, None, None, 12);
    (5, Some 1, None, Some (4, 0), 13);
  ]

let pinned_list1 = (1, Some 5, Some 5, 21, Some 3)

(* at the delta: block 1 freed, block 2 rewritten, list 2 deleted, and
   block 6 (never allocated) dirtied *)
let pinned_delta_tables () =
  tables
    ~blocks:[ (2, None, None, Some (6, 2), 30); (5, Some 1, None, Some (4, 0), 13) ]
    ~lists:[ pinned_list1 ] ()

let hex buf =
  String.concat ""
    (List.init (Blk.length buf) (fun i -> Printf.sprintf "%02x" (Blk.get_u8 buf i)))

let of_hex h =
  Blk.of_bytes
    (Bytes.init (String.length h / 2) (fun i ->
         Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2))))

let test_pinned_bytes () =
  let owner_active o = Types.Aru_id.to_int o = 3 in
  let encode (blocks, lists) s =
    hex (Checkpoint.encode ~owner_active blocks lists s)
  in
  Alcotest.(check string) "full bytes" pinned_full_hex
    (encode
       (tables ~blocks:pinned_blocks
          ~lists:[ pinned_list1; (2, None, None, 22, Some 4) ] ())
       pinned_full);
  Alcotest.(check string) "delta bytes" pinned_delta_hex
    (encode (pinned_delta_tables ()) pinned_delta);
  let t = tables () in
  let decode_into h = Checkpoint.decode_into (fst t) (snd t) (of_hex h) in
  Alcotest.(check bool) "full fields" true
    (decode_into pinned_full_hex = pinned_full);
  Alcotest.(check (list string)) "full tables, inactive owner dropped"
    (dump_tables
       (tables ~blocks:pinned_blocks
          ~lists:[ pinned_list1; (2, None, None, 22, None) ] ()))
    (dump_tables t);
  Alcotest.(check bool) "delta fields" true
    (decode_into pinned_delta_hex = pinned_delta);
  Alcotest.(check (list string)) "delta tables over the full"
    (dump_tables (pinned_delta_tables ()))
    (dump_tables t)

let test_region_write_read () =
  let disk = fresh_disk () in
  Alcotest.(check bool) "empty regions" true (Checkpoint.read_best disk = None);
  let t = tables ~blocks:(List.init 10 block) () in
  let s = snapshot () in
  write ~tables:t disk ~region:0 s;
  let s', dump, region, full_region = restored disk in
  Alcotest.(check bool) "fields" true (s' = s);
  Alcotest.(check (list string)) "tables" (dump_tables t) dump;
  Alcotest.(check (pair int int)) "region 0 alone" (0, 0) (region, full_region)

let test_read_best_prefers_newer () =
  let disk = fresh_disk () in
  write disk ~region:0 (snapshot ~ckpt_id:5 ());
  write disk ~region:1 (snapshot ~ckpt_id:9 ());
  Alcotest.(check int) "newest wins" 9 (best_id disk);
  write disk ~region:0 (snapshot ~ckpt_id:12 ());
  Alcotest.(check int) "alternation" 12 (best_id disk)

let test_torn_checkpoint_write_falls_back () =
  let disk = fresh_disk () in
  write disk ~region:0 (snapshot ~ckpt_id:5 ());
  write disk ~region:1 (snapshot ~ckpt_id:6 ());
  (* region 0 is being rewritten with ckpt 7 when power fails *)
  Fault.schedule_crash (Disk.fault disk)
    (Fault.During_write { write_index = 0; keep_bytes = 64 });
  (try write disk ~region:0 (snapshot ~ckpt_id:7 ()) with Fault.Crashed -> ());
  Fault.reset_after_recovery (Disk.fault disk);
  Alcotest.(check int) "survivor used" 6 (best_id disk)

(* --- generation selection: full + delta ------------------------------ *)

let delta ?(blocks = []) ?(lists = []) base_id =
  Checkpoint.Delta { base_id; blocks; lists }

let test_delta_composes_over_full () =
  let disk = fresh_disk () in
  write disk ~region:0
    ~tables:(tables ~blocks:[ block 1; block 2; block 4 ] ~lists:[ list 1 ] ())
    (snapshot ~ckpt_id:5 ~covered_seq:10 ());
  (* the delta rewrites block 2, adds block 6, tombstones block 4, and
     deletes list 1 *)
  let b2, l2, s2, p2, _ = block 2 in
  let now = tables ~blocks:[ block 1; (b2, l2, s2, p2, 999); block 6 ] () in
  let d =
    snapshot ~ckpt_id:6
      ~kind:(delta ~blocks:[ 2; 4; 6 ] ~lists:[ 1 ] 5)
      ~covered_seq:20 ()
  in
  write disk ~region:1 ~tables:now d;
  let s, dump, region, full_region = restored disk in
  Alcotest.(check int) "delta generation wins" 6 s.Checkpoint.ckpt_id;
  Alcotest.(check int) "delta covered_seq" 20 s.Checkpoint.covered_seq;
  Alcotest.(check int) "delta region" 1 region;
  Alcotest.(check int) "full region remembered" 0 full_region;
  Alcotest.(check (list string))
    "blocks 1, 2 (rewritten) and 6; list 1 gone" (dump_tables now) dump

let test_torn_delta_falls_back_to_full () =
  let disk = fresh_disk () in
  write disk ~region:0 (snapshot ~ckpt_id:5 ~covered_seq:10 ());
  Fault.schedule_crash (Disk.fault disk)
    (Fault.During_write { write_index = 0; keep_bytes = 100 });
  (try
     write disk ~region:1 (snapshot ~ckpt_id:6 ~kind:(delta 5) ~covered_seq:20 ())
   with Fault.Crashed -> ());
  Fault.reset_after_recovery (Disk.fault disk);
  let s, _, _, full_region = restored disk in
  Alcotest.(check int) "full base survives" 5 s.Checkpoint.ckpt_id;
  Alcotest.(check int) "its region is the full region" 0 full_region

let test_orphaned_delta_ignored () =
  let disk = fresh_disk () in
  (* the delta names base 5, but the other region holds full 8 — a
     fresher full has superseded it, so restoring it over 8 would be
     wrong *)
  write disk ~region:0 (snapshot ~ckpt_id:8 ~covered_seq:30 ());
  write disk ~region:1 (snapshot ~ckpt_id:6 ~kind:(delta 5) ~covered_seq:20 ());
  Alcotest.(check int) "orphaned delta ignored" 8 (best_id disk)

(* Payloads that pass every checksum yet do not decode.  A region's
   first chunk is a 28-byte header (its payload length at offset 20),
   the payload, then a hash64 trailer over header and payload; the
   spoilers rewrite one payload field and then the trailer, so only the
   decoder can tell.  One breaks the header (the payload version), the
   other the body behind it (a full's block count, at payload offset 53
   after version, kind, ckpt_id and five u64 scalars). *)
let first_chunk disk ~region =
  let geom = Disk.geometry disk in
  let offset =
    Geometry.segment_offset geom (Disk_layout.region_first geom ~region)
  in
  (offset, Disk.read_view disk ~offset ~length:geom.Geometry.segment_bytes)

let spoil ~pos ~value disk ~region =
  let offset, chunk = first_chunk disk ~region in
  let len = Blk.get_u32 chunk 20 in
  Blk.set_u32 chunk (28 + pos) value;
  Blk.set_u64 chunk (28 + len) (Blk.hash64 ~pos:0 ~len:(28 + len) chunk);
  Disk.write_view disk ~offset chunk

let spoilers =
  [
    ("bad version", spoil ~pos:0 ~value:99);
    ("bad body", spoil ~pos:53 ~value:0xffff_fff0);
  ]

let test_undecodable_newer_full_loses () =
  List.iter
    (fun (what, spoil) ->
      let disk = fresh_disk () in
      write disk ~region:0 (snapshot ~ckpt_id:5 ~covered_seq:10 ());
      write disk ~region:1
        ~tables:(tables ~blocks:[ block 1 ] ())
        (snapshot ~ckpt_id:6 ~covered_seq:20 ());
      spoil disk ~region:1;
      let _, chunk = first_chunk disk ~region:1 in
      Alcotest.(check bool) (what ^ ": region does not decode") true
        (match decode (Blk.sub chunk 28 (Blk.get_u32 chunk 20)) with
        | _ -> false
        | exception Errors.Corrupt _ -> true);
      Alcotest.(check int) (what ^ ": older full wins") 5 (best_id disk))
    spoilers

let test_delta_over_undecodable_base () =
  List.iter
    (fun (what, spoil) ->
      let disk = fresh_disk () in
      write disk ~region:0
        ~tables:(tables ~blocks:[ block 1 ] ())
        (snapshot ~ckpt_id:5 ~covered_seq:10 ());
      write disk ~region:1 (snapshot ~ckpt_id:6 ~kind:(delta 5) ~covered_seq:20 ());
      spoil disk ~region:0;
      Alcotest.(check bool) (what ^ ": no generation") true
        (Checkpoint.read_best disk = None))
    spoilers

(* A checksummed full that names an identifier outside the disk's
   tables is as corrupt as one that does not parse: it drops out, and
   the older generation beside it is restored. *)
let test_identifier_outside_the_disk () =
  let capacity = Disk_layout.block_capacity small_geom in
  List.iter
    (fun (what, blocks, lists) ->
      let disk = fresh_disk () in
      let older = tables ~blocks:[ block 1 ] () in
      write disk ~region:0 ~tables:older (snapshot ~ckpt_id:5 ~covered_seq:10 ());
      write disk ~region:1
        ~tables:(tables ~capacity:(capacity + 10) ~blocks ~lists ())
        (snapshot ~ckpt_id:6 ~covered_seq:20 ());
      let s, dump, region, _ = restored disk in
      Alcotest.(check int) (what ^ ": older full wins") 5 s.Checkpoint.ckpt_id;
      Alcotest.(check int) (what ^ ": from region 0") 0 region;
      Alcotest.(check (list string)) (what ^ ": its tables") (dump_tables older)
        dump)
    [
      ("block", [ (capacity + 5, None, None, None, 1) ], []);
      ("list", [], [ (capacity + 5, None, None, 1, None) ]);
    ]

let test_delta_codec_roundtrip () =
  check_roundtrip "delta"
    ~tables:(tables ~blocks:[ block 1 ] ())
    (snapshot ~ckpt_id:7 ~kind:(delta ~blocks:[ 1; 9; 12 ] ~lists:[ 2 ] 3) ())

(* Chunking is exercised with free-order entries (4 bytes each): the
   tables' identifiers must stay inside the disk, and a full table of
   the small test disk fits in one chunk. *)
let test_multi_chunk_checkpoint () =
  let disk = fresh_disk () in
  let geom = Disk.geometry disk in
  let entries_needed = (2 * geom.Geometry.segment_bytes / 4) + 100 in
  let s = snapshot ~free_order:(List.init entries_needed Fun.id) () in
  write disk ~region:1 s;
  let s', _, _, _ = restored disk in
  Alcotest.(check bool) "multi-chunk roundtrip" true (s' = s)

(* The chunk boundary.  A payload of exactly [chunk_capacity] bytes is
   one chunk (read back as a view of its segment's read); one entry
   more spills into a second chunk (read back stitched).  Both must
   come back equal through [read_best]. *)
let test_chunk_boundary () =
  let geom = Disk.geometry (fresh_disk ()) in
  let cap = Checkpoint.chunk_capacity geom in
  let size ?tables s = Blk.length (encode ?tables s) in
  (* a block entry without [phys] is 21 bytes and a free-order entry 4:
     as many block entries as the payload's remainder modulo 4 (each
     adds 1 modulo 4), then free order *)
  let base = size (snapshot ()) in
  let nblocks = (cap - base) mod 4 in
  let t =
    tables ~blocks:(List.init nblocks (fun i -> (i, None, None, None, i))) ()
  in
  let free = (cap - base - (21 * nblocks)) / 4 in
  let exact = snapshot ~free_order:(List.init free Fun.id) () in
  Alcotest.(check int) "payload fills one chunk exactly" cap
    (size ~tables:t exact);
  let over = { exact with Checkpoint.free_order = free :: exact.free_order } in
  Alcotest.(check int) "one entry more" (cap + 4) (size ~tables:t over);
  List.iter
    (fun (what, s) ->
      let disk = fresh_disk () in
      write disk ~tables:t ~region:0 s;
      let s', dump, _, _ = restored disk in
      Alcotest.(check bool) (what ^ ": fields") true (s' = s);
      Alcotest.(check (list string)) (what ^ ": tables") (dump_tables t) dump)
    [ ("one chunk", exact); ("two chunks", over) ]

let test_oversized_checkpoint_rejected () =
  let disk = fresh_disk () in
  let geom = Disk.geometry disk in
  let region_bytes =
    Lld_core.Disk_layout.region_segments geom * geom.Geometry.segment_bytes
  in
  let s = snapshot ~free_order:(List.init ((region_bytes / 4) + 10_000) Fun.id) () in
  Alcotest.check_raises "does not fit" Errors.Disk_full (fun () ->
      write disk ~region:0 s)

(* --- read order --------------------------------------------------- *)

(* Offsets of the disk reads [f] makes, from the spans an active
   observability handle records. *)
let read_offsets disk f =
  let module Obs = Lld_obs.Obs in
  let module Trace = Lld_obs.Trace in
  let obs = Obs.create ~clock:(Disk.clock disk) () in
  Disk.set_obs disk obs;
  Fun.protect ~finally:(fun () -> Disk.set_obs disk Obs.null) (fun () ->
      ignore (f ()));
  List.filter_map
    (fun (e : Trace.event) ->
      match (e.ev_cat, e.ev_name, List.assoc_opt "offset" e.ev_args) with
      | Trace.Disk, "read", Some (Trace.I offset) -> Some offset
      | _ -> None)
    (Trace.events (Obs.trace obs))

(* Region 1 and slot 1 are read first.  The order moves the virtual
   clock (seek distance from the previous request), so every recorded
   clock depends on it; the code binds it explicitly rather than
   leaving it to the evaluation order of arguments and tuples. *)
let test_region_read_order () =
  let disk = fresh_disk () in
  let geom = Disk.geometry disk in
  write disk ~region:0 (snapshot ~ckpt_id:5 ());
  write disk ~region:1 (snapshot ~ckpt_id:6 ());
  let region r =
    Geometry.segment_offset geom (Disk_layout.region_first geom ~region:r)
  in
  Alcotest.(check (list int)) "region 1, then region 0"
    [ region 1; region 0 ]
    (read_offsets disk (fun () -> Checkpoint.read_best disk))

let test_superblock_read_order () =
  let module Superblock = Lld_core.Superblock in
  let disk = fresh_disk () in
  let geom = Disk.geometry disk in
  Superblock.write_slot disk { Superblock.epoch = 1; region = 0 };
  Superblock.write_slot disk { Superblock.epoch = 2; region = 1 };
  Alcotest.(check (list int)) "slot 1, then slot 0"
    [ Superblock.slot_offset geom 1; Superblock.slot_offset geom 0 ]
    (read_offsets disk (fun () -> Superblock.best disk))

let test_layout_properties () =
  List.iter
    (fun geom ->
      let r = Disk_layout.region_segments geom in
      Alcotest.(check bool) "regions positive" true (r > 0);
      Alcotest.(check int) "region 0 after superblock" 1
        (Disk_layout.region_first geom ~region:0);
      Alcotest.(check int) "region 1 after region 0" (1 + r)
        (Disk_layout.region_first geom ~region:1);
      Alcotest.(check int) "log after regions" (1 + (2 * r))
        (Disk_layout.log_first geom);
      Alcotest.(check int) "partition fully used"
        geom.Geometry.num_segments
        (Disk_layout.log_first geom + Disk_layout.log_count geom);
      Alcotest.(check int) "capacity matches log size"
        (Disk_layout.log_count geom * Geometry.blocks_per_segment geom)
        (Disk_layout.block_capacity geom))
    [ Geometry.small; Geometry.paper; Geometry.v ~num_segments:64 () ]

let test_layout_too_small_rejected () =
  Alcotest.check_raises "tiny partition"
    (Invalid_argument "Disk_layout: partition too small for a log") (fun () ->
      ignore (Disk_layout.log_count (Geometry.v ~num_segments:7 ())))

let () =
  Alcotest.run "lld_checkpoint"
    [
      ( "codec",
        [
          Alcotest.test_case "empty roundtrip" `Quick test_encode_decode_empty;
          Alcotest.test_case "populated roundtrip" `Quick
            test_encode_decode_populated;
          Alcotest.test_case "rejects garbage" `Quick test_decode_rejects_garbage;
          Alcotest.test_case "pinned wire bytes" `Quick test_pinned_bytes;
        ] );
      ( "regions",
        [
          Alcotest.test_case "write/read region" `Quick test_region_write_read;
          Alcotest.test_case "best prefers newest" `Quick
            test_read_best_prefers_newer;
          Alcotest.test_case "torn write falls back" `Quick
            test_torn_checkpoint_write_falls_back;
          Alcotest.test_case "delta composes over full" `Quick
            test_delta_composes_over_full;
          Alcotest.test_case "torn delta falls back to full" `Quick
            test_torn_delta_falls_back_to_full;
          Alcotest.test_case "orphaned delta ignored" `Quick
            test_orphaned_delta_ignored;
          Alcotest.test_case "undecodable newer full loses" `Quick
            test_undecodable_newer_full_loses;
          Alcotest.test_case "delta over undecodable base" `Quick
            test_delta_over_undecodable_base;
          Alcotest.test_case "identifier outside the disk loses" `Quick
            test_identifier_outside_the_disk;
          Alcotest.test_case "delta codec roundtrip" `Quick
            test_delta_codec_roundtrip;
          Alcotest.test_case "multi-chunk payloads" `Quick
            test_multi_chunk_checkpoint;
          Alcotest.test_case "chunk boundary" `Quick test_chunk_boundary;
          Alcotest.test_case "oversized rejected" `Quick
            test_oversized_checkpoint_rejected;
        ] );
      ( "read order",
        [
          Alcotest.test_case "checkpoint regions" `Quick test_region_read_order;
          Alcotest.test_case "superblock slots" `Quick
            test_superblock_read_order;
        ] );
      ( "layout",
        [
          Alcotest.test_case "layout properties" `Quick test_layout_properties;
          Alcotest.test_case "too-small partition rejected" `Quick
            test_layout_too_small_rejected;
        ] );
    ]
