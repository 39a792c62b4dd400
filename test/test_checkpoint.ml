open Helpers
module Checkpoint = Lld_core.Checkpoint
module Disk_layout = Lld_core.Disk_layout
module Fault = Lld_disk.Fault

let snapshot ?(ckpt_id = 5) ?(kind = Checkpoint.Full) ?(covered_seq = 42)
    ?(blocks = []) ?(lists = []) ?(dead_blocks = []) ?(dead_lists = [])
    ?(pending = []) ?(free_order = []) ?(prepared = []) () =
  {
    Checkpoint.ckpt_id;
    kind;
    covered_seq;
    next_seq = covered_seq + 1;
    stamp = 1000;
    next_aru = 9;
    next_gid = 1;
    blocks;
    lists;
    dead_blocks;
    dead_lists;
    pending;
    free_order;
    prepared;
  }

let block_entry i =
  {
    Checkpoint.b_id = i;
    b_member =
      (if i mod 2 = 0 then Some (Types.List_id.of_int (i / 2)) else None);
    b_succ = (if i mod 3 = 0 then Some (Types.Block_id.of_int (i + 1)) else None);
    b_phys =
      (if i mod 5 = 0 then None
       else Some { Lld_core.Record.seg_index = i mod 30; slot = i mod 128 });
    b_stamp = i * 17;
  }

let list_entry i =
  {
    Checkpoint.l_id = i;
    l_first = Some (Types.Block_id.of_int (i * 2));
    l_last = Some (Types.Block_id.of_int ((i * 2) + 9));
    l_stamp = i * 31;
    l_owner = (if i mod 4 = 0 then Some (Types.Aru_id.of_int (i + 100)) else None);
  }

let test_encode_decode_empty () =
  let s = snapshot () in
  Alcotest.(check bool) "roundtrip" true (Checkpoint.decode (Checkpoint.encode s) = s)

let test_encode_decode_populated () =
  let s =
    snapshot
      ~blocks:(List.init 50 block_entry)
      ~lists:(List.init 20 list_entry)
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
      ~free_order:[ 10; 11; 12; 13 ] ()
  in
  Alcotest.(check bool) "roundtrip" true (Checkpoint.decode (Checkpoint.encode s) = s)

let test_decode_rejects_garbage () =
  Alcotest.check_raises "truncated"
    (Errors.Corrupt "truncated checkpoint payload") (fun () ->
      ignore (Checkpoint.decode (Lld_util.Blk.of_bytes (Bytes.make 3 'x'))))

let test_region_write_read () =
  let disk = fresh_disk () in
  let s = snapshot ~blocks:(List.init 10 block_entry) () in
  Checkpoint.write disk ~region:0 s;
  Alcotest.(check bool) "region 0 readable" true
    (Checkpoint.read_region disk ~region:0 = Some s);
  Alcotest.(check bool) "region 1 still empty" true
    (Checkpoint.read_region disk ~region:1 = None)

let best_id disk =
  match Checkpoint.read_best disk with
  | Some b -> b.Checkpoint.best_snap.Checkpoint.ckpt_id
  | None -> Alcotest.fail "no checkpoint found"

let test_read_best_prefers_newer () =
  let disk = fresh_disk () in
  Checkpoint.write disk ~region:0 (snapshot ~ckpt_id:5 ());
  Checkpoint.write disk ~region:1 (snapshot ~ckpt_id:9 ());
  Alcotest.(check int) "newest wins" 9 (best_id disk);
  Checkpoint.write disk ~region:0 (snapshot ~ckpt_id:12 ());
  Alcotest.(check int) "alternation" 12 (best_id disk)

let test_torn_checkpoint_write_falls_back () =
  let disk = fresh_disk () in
  Checkpoint.write disk ~region:0 (snapshot ~ckpt_id:5 ());
  Checkpoint.write disk ~region:1 (snapshot ~ckpt_id:6 ());
  (* region 0 is being rewritten with ckpt 7 when power fails *)
  Fault.schedule_crash (Disk.fault disk)
    (Fault.During_write { write_index = 0; keep_bytes = 64 });
  (try Checkpoint.write disk ~region:0 (snapshot ~ckpt_id:7 ())
   with Fault.Crashed -> ());
  Fault.reset_after_recovery (Disk.fault disk);
  Alcotest.(check int) "survivor used" 6 (best_id disk)

(* --- generation selection: full + delta ------------------------------ *)

let delta ~base_id = Checkpoint.Delta { base_id }

let test_delta_composes_over_full () =
  let disk = fresh_disk () in
  let full =
    snapshot ~ckpt_id:5 ~covered_seq:10
      ~blocks:[ block_entry 1; block_entry 2; block_entry 4 ]
      ~lists:[ list_entry 1 ] ()
  in
  (* the delta rewrites block 2, adds block 6, tombstones block 4, and
     deletes list 1 *)
  let changed = { (block_entry 2) with Checkpoint.b_stamp = 999 } in
  let d =
    snapshot ~ckpt_id:6 ~kind:(delta ~base_id:5) ~covered_seq:20
      ~blocks:[ changed; block_entry 6 ]
      ~dead_blocks:[ 4 ] ~dead_lists:[ 1 ] ()
  in
  Checkpoint.write disk ~region:0 full;
  Checkpoint.write disk ~region:1 d;
  match Checkpoint.read_best disk with
  | None -> Alcotest.fail "no checkpoint found"
  | Some b ->
    let s = b.Checkpoint.best_snap in
    Alcotest.(check int) "delta generation wins" 6 s.Checkpoint.ckpt_id;
    Alcotest.(check int) "delta covered_seq" 20 s.Checkpoint.covered_seq;
    Alcotest.(check int) "delta region" 1 b.Checkpoint.best_region;
    Alcotest.(check int) "full region remembered" 0 b.Checkpoint.best_full_region;
    Alcotest.(check (list int)) "effective block set" [ 1; 2; 6 ]
      (List.map (fun (e : Checkpoint.block_entry) -> e.b_id) s.Checkpoint.blocks);
    Alcotest.(check int) "replacement entry wins" 999
      (List.find
         (fun (e : Checkpoint.block_entry) -> e.b_id = 2)
         s.Checkpoint.blocks)
        .Checkpoint.b_stamp;
    Alcotest.(check (list int)) "tombstoned list gone" []
      (List.map (fun (e : Checkpoint.list_entry) -> e.l_id) s.Checkpoint.lists)

let test_torn_delta_falls_back_to_full () =
  let disk = fresh_disk () in
  Checkpoint.write disk ~region:0 (snapshot ~ckpt_id:5 ~covered_seq:10 ());
  Fault.schedule_crash (Disk.fault disk)
    (Fault.During_write { write_index = 0; keep_bytes = 100 });
  (try
     Checkpoint.write disk ~region:1
       (snapshot ~ckpt_id:6 ~kind:(delta ~base_id:5) ~covered_seq:20 ())
   with Fault.Crashed -> ());
  Fault.reset_after_recovery (Disk.fault disk);
  match Checkpoint.read_best disk with
  | None -> Alcotest.fail "lost both generations"
  | Some b ->
    Alcotest.(check int) "full base survives" 5
      b.Checkpoint.best_snap.Checkpoint.ckpt_id;
    Alcotest.(check int) "its region is the full region" 0
      b.Checkpoint.best_full_region

let test_orphaned_delta_ignored () =
  let disk = fresh_disk () in
  (* the delta names base 5, but the other region holds full 8 — a
     fresher full has superseded it, so composing would be wrong *)
  Checkpoint.write disk ~region:0 (snapshot ~ckpt_id:8 ~covered_seq:30 ());
  Checkpoint.write disk ~region:1
    (snapshot ~ckpt_id:6 ~kind:(delta ~base_id:5) ~covered_seq:20 ());
  Alcotest.(check int) "orphaned delta ignored" 8 (best_id disk)

(* Payloads that pass every checksum yet do not decode.  A region's
   first chunk is a 28-byte header (its payload length at offset 20),
   the payload, then a hash64 trailer over header and payload; the
   spoilers rewrite one payload field and then the trailer, so only the
   decoder can tell.  One breaks the header (the payload version), the
   other the body behind it (a full's block count, at payload offset 53
   after version, kind, ckpt_id and five u64 scalars). *)
let spoil ~pos ~value disk ~region =
  let module Blk = Lld_util.Blk in
  let geom = Disk.geometry disk in
  let offset =
    Geometry.segment_offset geom (Disk_layout.region_first geom ~region)
  in
  let chunk = Disk.read_view disk ~offset ~length:geom.Geometry.segment_bytes in
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
      Checkpoint.write disk ~region:0 (snapshot ~ckpt_id:5 ~covered_seq:10 ());
      Checkpoint.write disk ~region:1
        (snapshot ~ckpt_id:6 ~covered_seq:20 ~blocks:[ block_entry 1 ] ());
      spoil disk ~region:1;
      Alcotest.(check bool) (what ^ ": region does not decode") true
        (Checkpoint.read_region disk ~region:1 = None);
      Alcotest.(check int) (what ^ ": older full wins") 5 (best_id disk))
    spoilers

let test_delta_over_undecodable_base () =
  List.iter
    (fun (what, spoil) ->
      let disk = fresh_disk () in
      Checkpoint.write disk ~region:0
        (snapshot ~ckpt_id:5 ~covered_seq:10 ~blocks:[ block_entry 1 ] ());
      Checkpoint.write disk ~region:1
        (snapshot ~ckpt_id:6 ~kind:(delta ~base_id:5) ~covered_seq:20 ());
      spoil disk ~region:0;
      Alcotest.(check bool) (what ^ ": no generation") true
        (Checkpoint.read_best disk = None))
    spoilers

let test_delta_codec_roundtrip () =
  let s =
    snapshot ~ckpt_id:7 ~kind:(delta ~base_id:3)
      ~blocks:[ block_entry 1 ] ~dead_blocks:[ 9; 12 ] ~dead_lists:[ 2 ] ()
  in
  Alcotest.(check bool) "roundtrip" true
    (Checkpoint.decode (Checkpoint.encode s) = s)

let test_multi_chunk_checkpoint () =
  (* enough block entries to spill across several region segments *)
  let disk = fresh_disk () in
  let geom = Disk.geometry disk in
  let entries_needed = (2 * geom.Geometry.segment_bytes / 22) + 100 in
  let s = snapshot ~blocks:(List.init entries_needed block_entry) () in
  Checkpoint.write disk ~region:1 s;
  Alcotest.(check bool) "multi-chunk roundtrip" true
    (Checkpoint.read_region disk ~region:1 = Some s)

(* The chunk boundary.  A payload of exactly [chunk_capacity] bytes is
   one chunk (read back as a view of its segment's read); one entry
   more spills into a second chunk (read back stitched).  Both must
   come back equal through [read_region] and through [read_best]. *)
let test_chunk_boundary () =
  let geom = Disk.geometry (fresh_disk ()) in
  let cap = Checkpoint.chunk_capacity geom in
  let size s = Lld_util.Blk.length (Checkpoint.encode s) in
  (* a block entry without [phys] is 21 bytes and a free-order entry 4:
     as many block entries as leave a multiple of 4, then free order
     (each block entry fewer adds 21, that is 1 modulo 4) *)
  let base = size (snapshot ()) in
  let blocks = (cap - base) / 21 in
  let blocks = blocks - ((4 - ((cap - base - (21 * blocks)) mod 4)) mod 4) in
  let no_phys i = { (block_entry i) with Checkpoint.b_phys = None } in
  let free = (cap - base - (21 * blocks)) / 4 in
  let exact =
    snapshot
      ~blocks:(List.init blocks no_phys)
      ~free_order:(List.init free Fun.id) ()
  in
  Alcotest.(check int) "payload fills one chunk exactly" cap (size exact);
  let over = { exact with Checkpoint.free_order = free :: exact.free_order } in
  Alcotest.(check int) "one entry more" (cap + 4) (size over);
  List.iter
    (fun (what, s) ->
      let disk = fresh_disk () in
      Checkpoint.write disk ~region:0 s;
      Alcotest.(check bool) (what ^ ": read_region") true
        (Checkpoint.read_region disk ~region:0 = Some s);
      match Checkpoint.read_best disk with
      | Some b ->
        Alcotest.(check bool) (what ^ ": read_best") true
          (b.Checkpoint.best_snap = s)
      | None -> Alcotest.failf "%s: no checkpoint found" what)
    [ ("one chunk", exact); ("two chunks", over) ]

let test_oversized_checkpoint_rejected () =
  let disk = fresh_disk () in
  let geom = Disk.geometry disk in
  let region_bytes =
    Lld_core.Disk_layout.region_segments geom * geom.Geometry.segment_bytes
  in
  let entries = (region_bytes / 22) + 10_000 in
  let s = snapshot ~blocks:(List.init entries block_entry) () in
  Alcotest.check_raises "does not fit" Errors.Disk_full (fun () ->
      Checkpoint.write disk ~region:0 s)

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
  Checkpoint.write disk ~region:0 (snapshot ~ckpt_id:5 ());
  Checkpoint.write disk ~region:1 (snapshot ~ckpt_id:6 ());
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
