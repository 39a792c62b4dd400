(* Segment-cleaner hot paths: per-segment live index, batched relocation
   I/O, and the Greedy / Cost_benefit victim-selection policies. *)

open Helpers
module Counters = Lld_core.Counters

let geom16 = Geometry.v ~num_segments:16 ()

(* Fill a list with [n] blocks, keep every [keep_mod]-th and delete the
   rest — the classic mostly-dead log the cleaner feeds on. *)
let fill_and_delete ?(n = 300) ?(keep_mod = 10) lld l =
  let keep = ref [] in
  List.iteri
    (fun i b ->
      Lld.write lld b (block_data i);
      if i mod keep_mod = 0 then keep := (b, i) :: !keep
      else Lld.delete_block lld b)
    (List.init n (fun _ -> append_block lld l));
  Lld.flush lld;
  List.rev !keep

let check_survivors lld keep =
  List.iter
    (fun (b, i) ->
      check_data (Printf.sprintf "survivor %d" i) (block_data i)
        (Lld.read lld b))
    keep

(* Both victim-selection policies must reclaim space and preserve every
   live block; relocation must issue at most one disk read per victim. *)
let test_policy_preserves policy () =
  let config =
    { Config.default with Config.auto_clean = false; clean_policy = policy }
  in
  let _, lld = fresh_lld ~config ~geom:geom16 () in
  let keep = fill_and_delete lld (new_list lld) in
  let free_before = Lld.free_segments lld in
  Lld.clean lld ~target_free:(free_before + 2);
  Alcotest.(check bool) "segments reclaimed" true
    (Lld.free_segments lld > free_before);
  check_survivors lld keep;
  let c = Lld.counters lld in
  Alcotest.(check bool) "victims picked" true (c.Counters.clean_picks > 0);
  Alcotest.(check bool) "candidates scanned" true
    (c.Counters.victim_scans >= c.Counters.clean_picks);
  Alcotest.(check bool) "at most one disk read per victim" true
    (c.Counters.clean_disk_reads <= c.Counters.segments_cleaned)

(* Sealing pushes a segment's blocks into the LRU, so relocating
   recently written survivors must be served from the cache, not disk. *)
let test_warm_cache_relocation () =
  let config = { Config.default with Config.auto_clean = false } in
  let _, lld = fresh_lld ~config ~geom:geom16 () in
  let keep = fill_and_delete lld (new_list lld) in
  Lld.clean lld ~target_free:(Lld.free_segments lld + 2);
  let c = Lld.counters lld in
  Alcotest.(check bool) "blocks were relocated" true
    (c.Counters.blocks_copied_clean > 0);
  Alcotest.(check bool) "relocation hit the cache" true
    (c.Counters.clean_cache_hits > 0);
  Alcotest.(check int) "everything small enough to stay cached: no reads"
    0 c.Counters.clean_disk_reads;
  check_survivors lld keep

(* With a cache far smaller than the partition the relocation data must
   come from disk — and still in at most one batched read per victim. *)
let test_cold_cache_batched_reads () =
  let config =
    { Config.default with Config.auto_clean = false; cache_blocks = 8 }
  in
  let _, lld = fresh_lld ~config ~geom:geom16 () in
  let keep = fill_and_delete lld (new_list lld) in
  Lld.clean lld ~target_free:(Lld.free_segments lld + 2);
  let c = Lld.counters lld in
  Alcotest.(check bool) "blocks were relocated" true
    (c.Counters.blocks_copied_clean > 0);
  Alcotest.(check bool) "relocation read from disk" true
    (c.Counters.clean_disk_reads > 0);
  Alcotest.(check bool) "at most one disk read per victim" true
    (c.Counters.clean_disk_reads <= c.Counters.segments_cleaned);
  Alcotest.(check bool) "reads are batched: fewer reads than copies" true
    (c.Counters.clean_disk_reads < c.Counters.blocks_copied_clean);
  check_survivors lld keep

(* Recovery rebuilds the live index from the block map; cleaning right
   after a crash must still relocate correctly. *)
let test_clean_after_recovery () =
  let config = { Config.default with Config.auto_clean = false } in
  let disk, lld = fresh_lld ~config ~geom:geom16 () in
  let keep = fill_and_delete lld (new_list lld) in
  Disk.crash disk;
  let lld2, _ = Lld.recover ~config disk in
  let free_before = Lld.free_segments lld2 in
  Lld.clean lld2 ~target_free:(free_before + 2);
  Alcotest.(check bool) "segments reclaimed after recovery" true
    (Lld.free_segments lld2 > free_before);
  check_survivors lld2 keep;
  let c = Lld.counters lld2 in
  Alcotest.(check bool) "at most one disk read per victim" true
    (c.Counters.clean_disk_reads <= c.Counters.segments_cleaned)

(* ------------------------------------------------------------------ *)
(* Property: cost-benefit cleaning with concurrent ARUs in flight and a
   warm cache never changes what any read observes.                    *)

let clean_oracle =
  QCheck.Test.make
    ~name:"cost-benefit cleaning preserves the read oracle" ~count:25
    QCheck.(
      small_list
        (pair (small_list (pair (int_range 0 99) (int_range 0 999))) bool))
    (fun arus ->
      let config =
        {
          Config.default with
          Config.auto_clean = false;
          clean_policy = Config.Cost_benefit;
        }
      in
      let _, lld = fresh_lld ~config ~geom:geom16 () in
      let l = new_list lld in
      let blocks = Array.init 100 (fun _ -> append_block lld l) in
      let model = Array.make 100 0 in
      Array.iteri
        (fun i b ->
          Lld.write lld b (block_data i);
          model.(i) <- i)
        blocks;
      (* each generated group is one ARU: all-or-nothing on the model *)
      List.iter
        (fun (ops, commit) ->
          let aru = Lld.begin_aru lld in
          List.iter
            (fun (i, tag) -> Lld.write lld ~aru blocks.(i) (block_data tag))
            ops;
          if commit then begin
            Lld.end_aru lld aru;
            List.iter (fun (i, tag) -> model.(i) <- tag) ops
          end
          else Lld.abort_aru lld aru)
        arus;
      (* committed churn so sealed segments accumulate dead blocks *)
      for round = 1 to 3 do
        Array.iteri
          (fun i b ->
            let tag = 1000 + (37 * round) + i in
            Lld.write lld b (block_data tag);
            model.(i) <- tag)
          blocks
      done;
      Lld.flush lld;
      (* one ARU stays open across cleaning with an uncommitted write *)
      let open_aru = Lld.begin_aru lld in
      Lld.write lld ~aru:open_aru blocks.(0) (block_data 31337);
      Lld.clean lld ~target_free:(Lld.free_segments lld + 2);
      let c = Lld.counters lld in
      let batched =
        c.Counters.clean_disk_reads <= c.Counters.segments_cleaned
      in
      let shadow_ok =
        data_tag (Lld.read lld ~aru:open_aru blocks.(0))
        = data_tag (block_data 31337)
      in
      Lld.abort_aru lld open_aru;
      let model_ok =
        Array.for_all
          (fun i ->
            data_tag (Lld.read lld blocks.(i))
            = data_tag (block_data model.(i)))
          (Array.init 100 Fun.id)
      in
      batched && shadow_ok && model_ok)

let () =
  Alcotest.run "lld_clean"
    [
      ( "policies",
        [
          Alcotest.test_case "greedy preserves data" `Quick
            (test_policy_preserves Config.Greedy);
          Alcotest.test_case "cost-benefit preserves data" `Quick
            (test_policy_preserves Config.Cost_benefit);
        ] );
      ( "relocation",
        [
          Alcotest.test_case "warm cache: zero disk reads" `Quick
            test_warm_cache_relocation;
          Alcotest.test_case "cold cache: batched reads" `Quick
            test_cold_cache_batched_reads;
          Alcotest.test_case "clean after recovery" `Quick
            test_clean_after_recovery;
        ] );
      ("oracle", [ QCheck_alcotest.to_alcotest clean_oracle ]);
    ]
