(* The sharded facade (lib/core/shard.ml): single-shard passthrough
   bit-identity, cross-shard two-phase commit, presumed abort after a
   coordinator loss, lazy-decide propagation at the next mount, and
   per-shard maintenance (scrub / info). *)

open Helpers
module Shard = Lld_core.Shard
module Op = Lld_core.Op
module Counters = Lld_core.Counters
module Recovery = Lld_core.Recovery

let fresh_sharded ?(s = 2) ?(config = Config.default) () =
  let clock = Clock.create () in
  let disks =
    Array.init s (fun _ ->
        let backend = default_backend small_geom in
        Disk.create ?backend ~clock small_geom)
  in
  let t = Shard.create ~config disks in
  (disks, t)

let remount ?config disks =
  let clock = Clock.create () in
  let disks' =
    Array.map
      (fun d -> Disk.load ~clock (Disk.geometry d) (Disk.snapshot d))
      disks
  in
  Shard.recover ?config disks'

let aid = Types.Aru_id.of_int
let lid = Types.List_id.of_int
let bid = Types.Block_id.of_int

(* ------------------------------------------------------------------ *)
(* Single-shard passthrough: the facade over one disk must be
   bit-identical to the bare Lld — same identifiers, same image, same
   virtual clock, same counters. *)

let passthrough_ops =
  (* identifiers are deterministic: ARUs from 1, lists from 1, blocks
     from 0 — identical on both sides iff the facade is a passthrough *)
  [
    Op.Begin_aru;
    Op.New_list (Some (aid 1));
    Op.New_block { aru = Some (aid 1); list = lid 1; pred = Summary.Head };
    Op.Write { aru = Some (aid 1); block = bid 0; data = block_data 10 };
    Op.End_aru (aid 1);
    Op.New_list None;
    Op.New_block { aru = None; list = lid 2; pred = Summary.Head };
    Op.Write { aru = None; block = bid 1; data = block_data 11 };
    Op.Begin_aru;
    Op.New_block
      { aru = Some (aid 2); list = lid 2; pred = Summary.After (bid 1) };
    Op.Submit_commit (aid 2);
    Op.Flush_commits;
    Op.Read { aru = None; block = bid 2 };
    Op.Delete_block { aru = None; block = bid 1 };
    Op.Lists;
    Op.Flush;
  ]

module Apply_lld = Op.Make (Lld)
module Apply_shard = Op.Make (Shard)

let test_single_shard_passthrough () =
  let _disk_l, lld = fresh_lld () in
  let disks_s, sharded = fresh_sharded ~s:1 () in
  List.iteri
    (fun i op ->
      let rl = Apply_lld.apply lld op in
      let rs = Apply_shard.apply sharded op in
      Alcotest.(check bool)
        (Format.asprintf "op %d (%a) results agree" i Op.pp op)
        true
        (Op.equal_result rl rs))
    passthrough_ops;
  Lld.checkpoint lld;
  Shard.checkpoint sharded;
  Alcotest.(check (list string))
    "image, counters, device counters and clock identical" []
    (Setup.fingerprint_diff
       (Setup.fingerprint (Lld.disk lld) (Lld.counters lld))
       (Setup.fingerprint disks_s.(0) (Shard.counters sharded)));
  (* and the facade mounts it back as a plain Lld would *)
  let sharded', reports = remount disks_s in
  Alcotest.(check int) "one report" 1 (Array.length reports);
  Alcotest.(check (list string))
    "no invariant violations" []
    (Shard.recovery_invariant_errors sharded');
  Alcotest.(check bool)
    "list 2 survived" true
    (Shard.list_exists sharded' (lid 2))

(* ------------------------------------------------------------------ *)
(* Placement: routing respects the pure maps, and a block always lands
   on its list's shard. *)

let test_placement_routing () =
  let _disks, t = fresh_sharded ~s:3 () in
  (* least-loaded placement spreads the first three lists over the
     three shards *)
  let l1 = Shard.new_list t () in
  let l2 = Shard.new_list t () in
  let l3 = Shard.new_list t () in
  let shard_of l = Shard.list_shard ~shards:3 (Types.List_id.to_int l) in
  Alcotest.(check (list int))
    "three lists on three distinct shards" [ 0; 1; 2 ]
    (List.sort Int.compare [ shard_of l1; shard_of l2; shard_of l3 ]);
  List.iter
    (fun l ->
      let b = Shard.new_block t ~list:l ~pred:Summary.Head () in
      Alcotest.(check int)
        "block lands on its list's shard" (shard_of l)
        (Shard.block_shard ~shards:3 (Types.Block_id.to_int b));
      Alcotest.(check bool)
        "member points back" true
        (Shard.block_member t b = Some l))
    [ l1; l2; l3 ]

(* ------------------------------------------------------------------ *)
(* Cross-shard commit: an ARU spanning three shards commits atomically
   with 2 prepare barriers + 1 decision — within the P+1 budget — and
   the whole transaction survives a remount even though the lazy
   Decide records were still buffered when the crash image was taken. *)

let cross_shard_tx t =
  let l1 = Shard.new_list t () in
  let l2 = Shard.new_list t () in
  let l3 = Shard.new_list t () in
  let a = Shard.begin_aru t in
  let bs =
    List.map
      (fun l ->
        let b = Shard.new_block t ~aru:a ~list:l ~pred:Summary.Head () in
        Shard.write t ~aru:a b (block_data (Types.List_id.to_int l));
        b)
      [ l1; l2; l3 ]
  in
  (a, [ l1; l2; l3 ], bs)

let test_cross_shard_commit () =
  let disks, t = fresh_sharded ~s:3 () in
  let a, ls, bs = cross_shard_tx t in
  Alcotest.(check (list int)) "spans all shards" [ 0; 1; 2 ] (Shard.aru_shards t a);
  Shard.end_aru t a;
  let c = Shard.total_counters t in
  Alcotest.(check int) "one cross-shard commit" 1 c.Counters.cross_shard_commits;
  Alcotest.(check int) "P-1 prepare barriers" 2 c.Counters.prepare_barriers;
  List.iter2
    (fun l b ->
      check_data "committed data readable"
        (block_data (Types.List_id.to_int l))
        (Shard.read t b))
    ls bs;
  (* crash now: the participants' lazy Decide records are still in
     their open segments — recovery must resolve the dangling prepares
     against the coordinator's durable Decide *)
  let t', reports = remount disks in
  let resolved =
    Array.fold_left
      (fun acc r -> acc + r.Recovery.prepares_committed)
      0 reports
  in
  Alcotest.(check int) "both dangling prepares resolved committed" 2 resolved;
  Alcotest.(check (list string))
    "no invariant violations" []
    (Shard.recovery_invariant_errors t');
  List.iter2
    (fun l b ->
      Alcotest.(check bool) "list survived" true (Shard.list_exists t' l);
      check_data "data survived the remount"
        (block_data (Types.List_id.to_int l))
        (Shard.read t' b))
    ls bs;
  Alcotest.(check bool)
    "gid watermark advanced past the transaction" true
    (Shard.next_gid t' > 1)

(* ------------------------------------------------------------------ *)
(* Presumed abort: a participant crashes holding a prepare whose
   coordinator never decided — recovery must abort it wholesale. *)

let test_presumed_abort () =
  let disks, t = fresh_sharded ~s:2 () in
  (* a committed survivor on shard 1, to prove the abort is surgical *)
  let keep = Shard.new_list t () in
  let keep2 = Shard.new_list t () in
  let survivor =
    Shard.new_block t ~list:keep2 ~pred:Summary.Head ()
  in
  Shard.write t survivor (block_data 7);
  Shard.flush t;
  ignore keep;
  (* drive shard 1 directly into the prepared state: the coordinator
     (shard 0) dies before writing any Decide for gid 9 *)
  let sh1 = (Shard.handles t).(1) in
  let a = Lld.begin_aru sh1 in
  let l = Lld.new_list sh1 ~aru:a () in
  let b = Lld.new_block sh1 ~aru:a ~list:l ~pred:Summary.Head () in
  Lld.write sh1 ~aru:a b (block_data 8);
  Lld.prepare_commit sh1 a ~gid:9 ~coordinator:0;
  Alcotest.(check (list int))
    "prepared on shard 1"
    [ Types.Aru_id.to_int a ]
    (Lld.prepared_arus sh1);
  let t', reports = remount disks in
  Alcotest.(check int)
    "dangling prepare aborted" 1
    reports.(1).Recovery.prepares_aborted;
  Alcotest.(check int)
    "nothing spuriously committed" 0
    (Array.fold_left
       (fun acc r -> acc + r.Recovery.prepares_committed)
       0 reports);
  Alcotest.(check (list string))
    "no invariant violations" []
    (Shard.recovery_invariant_errors t');
  (* the prepared ARU's list died with it; the committed survivor and
     the gid watermark are intact *)
  let sh1' = (Shard.handles t').(1) in
  Alcotest.(check bool)
    "prepared ARU's list swept" false
    (Lld.list_exists sh1' l);
  check_data "survivor intact" (block_data 7) (Shard.read t' survivor);
  Alcotest.(check bool)
    "gid watermark past the aborted prepare" true
    (Shard.next_gid t' >= 10)

(* ------------------------------------------------------------------ *)
(* A participant's disk dies during its prepare seal: the facade must
   presume abort in place — no slice left prepared, the entry gone, the
   surviving shards still live — rather than dangle until a remount. *)

let test_prepare_failure_aborts_in_place () =
  let disks, t = fresh_sharded ~s:2 () in
  let l1 = Shard.new_list t () in
  let l2 = Shard.new_list t () in
  (* a committed block on the shard that is about to fail, to prove the
     in-place abort doesn't disturb durable state *)
  let survivor = Shard.new_block t ~list:l2 ~pred:Summary.Head () in
  Shard.write t survivor (block_data 30);
  Shard.flush t;
  let a = Shard.begin_aru t in
  let b1 = Shard.new_block t ~aru:a ~list:l1 ~pred:Summary.Head () in
  let b2 = Shard.new_block t ~aru:a ~list:l2 ~pred:Summary.Head () in
  Shard.write t ~aru:a b1 (block_data 31);
  Shard.write t ~aru:a b2 (block_data 32);
  (* shard 1 is the sole non-coordinator: its prepare seal is the next
     write to its disk, and it dies there *)
  Fault.schedule_crash (Disk.fault disks.(1)) (Fault.After_writes 0);
  (match Shard.end_aru t a with
  | () -> Alcotest.fail "end_aru should have died in the prepare phase"
  | exception Fault.Crashed -> ());
  (* the transaction was presumed aborted in place: no prepared slice,
     no facade entry, nothing counted committed *)
  Alcotest.(check (list int))
    "no dangling prepare on the dead shard" []
    (Lld.prepared_arus (Shard.handles t).(1));
  (match Shard.abort_aru t a with
  | () -> Alcotest.fail "entry should already be gone"
  | exception Errors.Unknown_aru _ -> ());
  Alcotest.(check int)
    "no cross-shard commit recorded" 0
    (Shard.total_counters t).Counters.cross_shard_commits;
  (* the surviving shard is still fully live *)
  let a' = Shard.begin_aru t in
  let b' = Shard.new_block t ~aru:a' ~list:l1 ~pred:Summary.Head () in
  Shard.write t ~aru:a' b' (block_data 33);
  Shard.end_aru t a';
  check_data "survivor shard commits" (block_data 33) (Shard.read t b');
  (* remounting the crashed image finds nothing dangling — the prepare
     never reached shard 1's log — and durable state is intact *)
  let t', reports = remount disks in
  Alcotest.(check int)
    "nothing to resolve at recovery" 0
    (Array.fold_left
       (fun acc r ->
         acc + r.Recovery.prepares_committed + r.Recovery.prepares_aborted)
       0 reports);
  Alcotest.(check (list string))
    "no invariant violations" []
    (Shard.recovery_invariant_errors t');
  check_data "pre-crash durable block intact" (block_data 30)
    (Shard.read t' survivor)

(* ------------------------------------------------------------------ *)
(* The same dangling-prepare shape, but the coordinator's Decide is
   durable: the next mount must propagate the commit. *)

let test_decide_propagation_on_mount () =
  let disks, t = fresh_sharded ~s:2 () in
  let l1 = Shard.new_list t () in
  let l2 = Shard.new_list t () in
  let a = Shard.begin_aru t in
  let b1 = Shard.new_block t ~aru:a ~list:l1 ~pred:Summary.Head () in
  let b2 = Shard.new_block t ~aru:a ~list:l2 ~pred:Summary.Head () in
  Shard.write t ~aru:a b1 (block_data 21);
  Shard.write t ~aru:a b2 (block_data 22);
  (* end_aru seals the prepare (participant) and the decision
     (coordinator); the participant's lazy Decide stays buffered *)
  Shard.end_aru t a;
  let t', reports = remount disks in
  Alcotest.(check int)
    "participant's prepare resolved committed" 1
    (Array.fold_left
       (fun acc r -> acc + r.Recovery.prepares_committed)
       0 reports);
  check_data "coordinator slice visible" (block_data 21) (Shard.read t' b1);
  check_data "participant slice visible" (block_data 22) (Shard.read t' b2);
  (* and re-mounting the recovered state is quiescent: nothing dangles *)
  let _t'', reports2 = remount disks in
  Alcotest.(check int)
    "second mount of the same image resolves identically" 1
    (Array.fold_left
       (fun acc r ->
         acc + r.Recovery.prepares_committed + r.Recovery.prepares_aborted)
       0 reports2)

(* ------------------------------------------------------------------ *)
(* A whole-machine crash in place: every shard's device dies
   mid-workload and refuses I/O until recovery resets it.  Recovering
   the same disks must work — the cross-shard decision scan reads every
   log before any shard's own recovery runs — and must agree with
   recovering reloaded snapshots of the crashed images. *)

let crash_in_place d =
  Fault.schedule_crash (Disk.fault d) (Fault.After_writes 0);
  match Disk.write d ~offset:0 (Bytes.make 1 'x') with
  | () -> Alcotest.fail "the scheduled crash did not fire"
  | exception Fault.Crashed -> ()

(* every list with its members' contents, in canonical order *)
let committed_state t =
  List.map
    (fun l ->
      ( Types.List_id.to_int l,
        List.map
          (fun b ->
            ( Types.Block_id.to_int b,
              Digest.to_hex (Digest.bytes (Shard.read t b)) ))
          (Shard.list_blocks t l) ))
    (Shard.lists t)

let test_recover_after_crash_in_place () =
  let disks, t = fresh_sharded ~s:3 () in
  let a, ls, bs = cross_shard_tx t in
  (* committed; the participants' lazy Decides are still buffered *)
  Shard.end_aru t a;
  (* durable on every shard, never committed *)
  let _open, _, open_bs = cross_shard_tx t in
  Shard.flush t;
  Array.iter crash_in_place disks;
  let reloaded, _ = remount disks in
  let in_place, _reports = Shard.recover disks in
  Alcotest.(check (list string))
    "no invariant violations" []
    (Shard.recovery_invariant_errors in_place);
  List.iter2
    (fun l b ->
      check_data "committed cross-shard data survived"
        (block_data (Types.List_id.to_int l))
        (Shard.read in_place b))
    ls bs;
  List.iter
    (fun b ->
      Alcotest.(check bool)
        "uncommitted block swept" false
        (Shard.block_allocated in_place b))
    open_bs;
  Alcotest.(check (list (pair int (list (pair int string)))))
    "in-place recovery agrees with reloaded snapshots"
    (committed_state reloaded) (committed_state in_place);
  Alcotest.(check int)
    "same allocations"
    (Shard.allocated_blocks reloaded)
    (Shard.allocated_blocks in_place)

(* ------------------------------------------------------------------ *)
(* Maintenance fans out per shard: scrub reports and info-style gauges
   come back one per shard. *)

let test_scrub_and_info_per_shard () =
  let _disks, t = fresh_sharded ~s:3 () in
  let _a, _ls, _bs = cross_shard_tx t in
  (* leave the ARU open; scrub flushes committed state only *)
  let reports = Shard.scrub t in
  Alcotest.(check int) "one scrub report per shard" 3 (Array.length reports);
  Array.iter
    (fun r ->
      Alcotest.(check int) "no bad slots" 0 r.Lld.scrub_bad_slots;
      Alcotest.(check int) "no losses" 0 r.Lld.scrub_lost)
    reports;
  let per_shard =
    Array.map Lld.allocated_blocks (Shard.handles t) |> Array.to_list
  in
  Alcotest.(check int)
    "facade sums shard gauges"
    (List.fold_left ( + ) 0 per_shard)
    (Shard.allocated_blocks t);
  Alcotest.(check int)
    "capacity is the striped sum"
    (3 * Lld.capacity (Shard.handles t).(0))
    (Shard.capacity t)

let () =
  Alcotest.run "shard"
    [
      ( "passthrough",
        [
          Alcotest.test_case "single shard is bit-identical" `Quick
            test_single_shard_passthrough;
        ] );
      ( "placement",
        [ Alcotest.test_case "routing follows the maps" `Quick
            test_placement_routing ]
      );
      ( "two-phase commit",
        [
          Alcotest.test_case "cross-shard commit, barriers, remount" `Quick
            test_cross_shard_commit;
          Alcotest.test_case "presumed abort after coordinator loss" `Quick
            test_presumed_abort;
          Alcotest.test_case "mid-prepare failure aborts in place" `Quick
            test_prepare_failure_aborts_in_place;
          Alcotest.test_case "decide propagates on the next mount" `Quick
            test_decide_propagation_on_mount;
          Alcotest.test_case "recovery after a crash in place" `Quick
            test_recover_after_crash_in_place;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "scrub and gauges fan out per shard" `Quick
            test_scrub_and_info_per_shard;
        ] );
    ]
