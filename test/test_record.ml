module Types = Lld_core.Types
module Record = Lld_core.Record
module Splice = Lld_core.Splice
module Summary = Lld_core.Summary
module Errors = Lld_core.Errors
module Versions = Lld_core.Versions

let bid = Types.Block_id.of_int
let lid = Types.List_id.of_int
let aid = Types.Aru_id.of_int

(* ------------------------------------------------------------------ *)
(* The alternative-record mesh                                         *)

let test_fresh_records () =
  let b = Record.fresh_block (bid 3) in
  Alcotest.(check bool) "free" false b.Record.alloc;
  Alcotest.(check bool) "persistent" true
    (Record.version_equal b.Record.version Record.Persistent);
  let l = Record.fresh_list (lid 4) in
  Alcotest.(check bool) "list free" false l.Record.exists

let test_alt_copies_meta_not_data () =
  let anchor = Record.fresh_block (bid 1) in
  anchor.Record.alloc <- true;
  anchor.Record.member_of <- Some (lid 9);
  anchor.Record.successor <- Some (bid 2);
  anchor.Record.stamp <- 55;
  anchor.Record.data <- Some (Lld_util.Blk.of_bytes (Bytes.of_string "never copied"));
  let alt = Record.alt_block Record.Committed ~from:anchor in
  Alcotest.(check bool) "alloc copied" true alt.Record.alloc;
  Alcotest.(check bool) "member copied" true (alt.Record.member_of = Some (lid 9));
  Alcotest.(check int) "stamp copied" 55 alt.Record.stamp;
  Alcotest.(check bool) "data not copied" true (alt.Record.data = None);
  Alcotest.(check int) "durability undetermined" max_int alt.Record.durable_seq

let test_same_id_chain () =
  let anchor = Record.fresh_block (bid 1) in
  let committed = Record.alt_block Record.Committed ~from:anchor in
  let shadow1 = Record.alt_block (Record.Shadow (aid 1)) ~from:anchor in
  let shadow2 = Record.alt_block (Record.Shadow (aid 2)) ~from:anchor in
  Record.insert_alt_block ~anchor committed;
  Record.insert_alt_block ~anchor shadow1;
  Record.insert_alt_block ~anchor shadow2;
  Alcotest.(check int) "three alternatives" 3 (Record.alt_block_count ~anchor);
  let find v expected =
    match fst (Record.find_block ~anchor v) with
    | Some r -> r == expected
    | None -> false
  in
  Alcotest.(check bool) "find committed" true (find Record.Committed committed);
  Alcotest.(check bool) "find shadow 1" true
    (find (Record.Shadow (aid 1)) shadow1);
  Alcotest.(check bool) "find shadow 2" true
    (find (Record.Shadow (aid 2)) shadow2);
  Alcotest.(check bool) "missing shadow" true
    (fst (Record.find_block ~anchor (Record.Shadow (aid 3))) = None);
  Alcotest.(check bool) "persistent is the anchor" true
    (find Record.Persistent anchor)

let test_remove_from_chain () =
  let anchor = Record.fresh_block (bid 1) in
  let c = Record.alt_block Record.Committed ~from:anchor in
  let s = Record.alt_block (Record.Shadow (aid 1)) ~from:anchor in
  Record.insert_alt_block ~anchor c;
  Record.insert_alt_block ~anchor s;
  Record.remove_alt_block ~anchor c;
  Alcotest.(check int) "one left" 1 (Record.alt_block_count ~anchor);
  Alcotest.(check bool) "committed gone" true
    (fst (Record.find_block ~anchor Record.Committed) = None);
  (* removing again is a no-op *)
  Record.remove_alt_block ~anchor c;
  Alcotest.(check int) "still one" 1 (Record.alt_block_count ~anchor)

let test_hops_counted () =
  let anchor = Record.fresh_block (bid 1) in
  for i = 1 to 4 do
    Record.insert_alt_block ~anchor
      (Record.alt_block (Record.Shadow (aid i)) ~from:anchor)
  done;
  (* the last-inserted shadow is first on the chain *)
  let _, hops_near = Record.find_block ~anchor (Record.Shadow (aid 4)) in
  let _, hops_far = Record.find_block ~anchor (Record.Shadow (aid 1)) in
  Alcotest.(check bool)
    (Printf.sprintf "nearer is cheaper (%d < %d)" hops_near hops_far)
    true (hops_near < hops_far)

let test_newest_shadow () =
  let anchor = Record.fresh_block (bid 1) in
  let mk i stamp =
    let s = Record.alt_block (Record.Shadow (aid i)) ~from:anchor in
    s.Record.stamp <- stamp;
    Record.insert_alt_block ~anchor s;
    s
  in
  let _ = mk 1 10 in
  let newest = mk 2 30 in
  let _ = mk 3 20 in
  (match Record.newest_shadow_block ~anchor with
  | Some r, _ -> Alcotest.(check bool) "max stamp wins" true (r == newest)
  | None, _ -> Alcotest.fail "expected a shadow");
  (* also committed records on the chain are ignored *)
  let c = Record.alt_block Record.Committed ~from:anchor in
  c.Record.stamp <- 99;
  Record.insert_alt_block ~anchor c;
  match Record.newest_shadow_block ~anchor with
  | Some r, _ ->
    Alcotest.(check bool) "committed not considered" true (r == newest)
  | None, _ -> Alcotest.fail "expected a shadow"

let test_list_chain () =
  let anchor = Record.fresh_list (lid 1) in
  let c = Record.alt_list Record.Committed ~from:anchor in
  Record.insert_alt_list ~anchor c;
  Alcotest.(check int) "one alt" 1 (Record.alt_list_count ~anchor);
  Alcotest.(check bool) "found" true
    (match fst (Record.find_list ~anchor Record.Committed) with
    | Some r -> r == c
    | None -> false);
  Record.remove_alt_list ~anchor c;
  Alcotest.(check int) "removed" 0 (Record.alt_list_count ~anchor)

(* ------------------------------------------------------------------ *)
(* Splice over a direct (persistent-style) context                     *)

let make_world () =
  let blocks = Hashtbl.create 16 in
  let lists = Hashtbl.create 16 in
  let hops = ref 0 in
  let get_block b =
    match Hashtbl.find_opt blocks (Types.Block_id.to_int b) with
    | Some r -> r
    | None ->
      let r = Record.fresh_block b in
      Hashtbl.replace blocks (Types.Block_id.to_int b) r;
      r
  in
  let get_list l =
    match Hashtbl.find_opt lists (Types.List_id.to_int l) with
    | Some r -> r
    | None ->
      let r = Record.fresh_list l in
      Hashtbl.replace lists (Types.List_id.to_int l) r;
      r
  in
  let ctx =
    {
      Splice.peek_block = get_block;
      get_block;
      peek_list = get_list;
      get_list;
      on_pred_hop = (fun () -> incr hops);
    }
  in
  (ctx, get_block, get_list, hops)

let alloc ctx b =
  let r = ctx.Splice.get_block b in
  r.Record.alloc <- true

let exists ctx l =
  let r = ctx.Splice.get_list l in
  r.Record.exists <- true

let members ctx l =
  let lr = ctx.Splice.peek_list l in
  let rec walk acc = function
    | None -> List.rev acc
    | Some b ->
      walk (Types.Block_id.to_int b :: acc)
        (ctx.Splice.peek_block b).Record.successor
  in
  walk [] lr.Record.first

let test_splice_insert_positions () =
  let ctx, _, get_list, _ = make_world () in
  exists ctx (lid 1);
  List.iter (alloc ctx) [ bid 1; bid 2; bid 3; bid 4 ];
  Alcotest.(check bool) "b1 at head" true
    (Splice.insert ctx ~list:(lid 1) ~block:(bid 1) ~pred:Summary.Head = `Applied);
  Alcotest.(check bool) "b2 after b1" true
    (Splice.insert ctx ~list:(lid 1) ~block:(bid 2) ~pred:(Summary.After (bid 1))
    = `Applied);
  Alcotest.(check bool) "b3 at head" true
    (Splice.insert ctx ~list:(lid 1) ~block:(bid 3) ~pred:Summary.Head = `Applied);
  Alcotest.(check bool) "b4 in the middle" true
    (Splice.insert ctx ~list:(lid 1) ~block:(bid 4) ~pred:(Summary.After (bid 1))
    = `Applied);
  Alcotest.(check (list int)) "order" [ 3; 1; 4; 2 ] (members ctx (lid 1));
  let l = get_list (lid 1) in
  Alcotest.(check (option int)) "first" (Some 3)
    (Option.map Types.Block_id.to_int l.Record.first);
  Alcotest.(check (option int)) "last" (Some 2)
    (Option.map Types.Block_id.to_int l.Record.last)

let test_splice_insert_skips () =
  let ctx, _, _, _ = make_world () in
  exists ctx (lid 1);
  alloc ctx (bid 1);
  Alcotest.(check bool) "nonexistent list skipped" true
    (Splice.insert ctx ~list:(lid 9) ~block:(bid 1) ~pred:Summary.Head = `Skipped);
  Alcotest.(check bool) "unallocated block skipped" true
    (Splice.insert ctx ~list:(lid 1) ~block:(bid 7) ~pred:Summary.Head = `Skipped);
  ignore (Splice.insert ctx ~list:(lid 1) ~block:(bid 1) ~pred:Summary.Head);
  Alcotest.(check bool) "double insert skipped" true
    (Splice.insert ctx ~list:(lid 1) ~block:(bid 1) ~pred:Summary.Head = `Skipped);
  alloc ctx (bid 2);
  Alcotest.(check bool) "pred not on list skipped" true
    (Splice.insert ctx ~list:(lid 1) ~block:(bid 2) ~pred:(Summary.After (bid 7))
    = `Skipped)

let test_splice_unlink_search_cost () =
  let ctx, _, _, hops = make_world () in
  exists ctx (lid 1);
  let n = 10 in
  let prev = ref Summary.Head in
  for i = 1 to n do
    alloc ctx (bid i);
    ignore (Splice.insert ctx ~list:(lid 1) ~block:(bid i) ~pred:!prev);
    prev := Summary.After (bid i)
  done;
  (* unlinking the head needs no search *)
  hops := 0;
  ignore (Splice.unlink ctx ~list:(lid 1) ~block:(bid 1));
  Alcotest.(check int) "head unlink free" 0 !hops;
  (* unlinking the tail walks the remaining list *)
  hops := 0;
  ignore (Splice.unlink ctx ~list:(lid 1) ~block:(bid n));
  Alcotest.(check int) "tail unlink walks" (n - 2) !hops;
  Alcotest.(check (list int)) "rest intact"
    (List.init (n - 2) (fun i -> i + 2))
    (members ctx (lid 1))

let test_splice_unlink_updates_last () =
  let ctx, _, get_list, _ = make_world () in
  exists ctx (lid 1);
  List.iter (alloc ctx) [ bid 1; bid 2 ];
  ignore (Splice.insert ctx ~list:(lid 1) ~block:(bid 1) ~pred:Summary.Head);
  ignore (Splice.insert ctx ~list:(lid 1) ~block:(bid 2) ~pred:(Summary.After (bid 1)));
  ignore (Splice.unlink ctx ~list:(lid 1) ~block:(bid 2));
  let l = get_list (lid 1) in
  Alcotest.(check (option int)) "last back to b1" (Some 1)
    (Option.map Types.Block_id.to_int l.Record.last);
  ignore (Splice.unlink ctx ~list:(lid 1) ~block:(bid 1));
  Alcotest.(check bool) "empty" true
    (l.Record.first = None && l.Record.last = None)

let test_splice_unlink_skips_nonmember () =
  let ctx, _, _, _ = make_world () in
  exists ctx (lid 1);
  alloc ctx (bid 1);
  Alcotest.(check bool) "not a member" true
    (Splice.unlink ctx ~list:(lid 1) ~block:(bid 1) = `Skipped)

let test_splice_delete_list () =
  let ctx, get_block, get_list, hops = make_world () in
  exists ctx (lid 1);
  let prev = ref Summary.Head in
  for i = 1 to 5 do
    alloc ctx (bid i);
    ignore (Splice.insert ctx ~list:(lid 1) ~block:(bid i) ~pred:!prev);
    prev := Summary.After (bid i)
  done;
  hops := 0;
  let deallocated = ref [] in
  Alcotest.(check bool) "applied" true
    (Splice.delete_list ctx ~list:(lid 1)
       ~dealloc:(fun r ->
         deallocated := Types.Block_id.to_int r.Record.id :: !deallocated)
    = `Applied);
  Alcotest.(check int) "no predecessor searches" 0 !hops;
  Alcotest.(check (list int)) "deallocated head-first" [ 1; 2; 3; 4; 5 ]
    (List.rev !deallocated);
  Alcotest.(check bool) "list gone" false (get_list (lid 1)).Record.exists;
  for i = 1 to 5 do
    Alcotest.(check bool) "blocks freed" false (get_block (bid i)).Record.alloc
  done;
  Alcotest.(check bool) "second delete skipped" true
    (Splice.delete_list ctx ~list:(lid 1) ~dealloc:ignore = `Skipped)

(* A list walk stops at the disk's capacity: a cyclic chain (two blocks
   that name each other as successor) is reported as corruption naming
   the list instead of walked forever. *)
let test_list_walk_cycle_is_corrupt () =
  let clock = Lld_sim.Clock.create () in
  let v =
    Versions.create ~layers:Versions.Anchors ~visibility:Lld_core.Config.Own_shadow
      ~clock ~cost:Lld_sim.Cost.sparc5_70 ~counters:(Lld_core.Counters.create ())
      (Lld_core.Block_map.create ~capacity:8)
      (Lld_core.List_table.create ~max_lists:8)
  in
  let l = Lld_core.List_table.anchor v.Versions.lists (lid 1) in
  l.Record.exists <- true;
  l.Record.first <- Some (bid 0);
  l.Record.last <- Some (bid 1);
  List.iter
    (fun (b, next) ->
      let r = Lld_core.Block_map.anchor v.Versions.blocks (bid b) in
      r.Record.alloc <- true;
      r.Record.member_of <- Some (lid 1);
      r.Record.successor <- Some (bid next))
    [ (0, 1); (1, 0) ];
  Alcotest.check_raises "cycle"
    (Errors.Corrupt "list l1: chain longer than the disk (a cycle)") (fun () ->
      ignore (Versions.list_blocks v (lid 1)));
  Alcotest.(check int) "charges nothing" 0 (Lld_sim.Clock.now_ns clock)

let () =
  Alcotest.run "lld_record"
    [
      ( "mesh",
        [
          Alcotest.test_case "fresh records" `Quick test_fresh_records;
          Alcotest.test_case "alt copies meta, not data" `Quick
            test_alt_copies_meta_not_data;
          Alcotest.test_case "same-id chain" `Quick test_same_id_chain;
          Alcotest.test_case "removal" `Quick test_remove_from_chain;
          Alcotest.test_case "hops counted" `Quick test_hops_counted;
          Alcotest.test_case "newest shadow" `Quick test_newest_shadow;
          Alcotest.test_case "list chain" `Quick test_list_chain;
          Alcotest.test_case "list walk stops on a cycle" `Quick
            test_list_walk_cycle_is_corrupt;
        ] );
      ( "splice",
        [
          Alcotest.test_case "insert positions" `Quick
            test_splice_insert_positions;
          Alcotest.test_case "insert skips" `Quick test_splice_insert_skips;
          Alcotest.test_case "unlink search cost" `Quick
            test_splice_unlink_search_cost;
          Alcotest.test_case "unlink updates last" `Quick
            test_splice_unlink_updates_last;
          Alcotest.test_case "unlink skips non-member" `Quick
            test_splice_unlink_skips_nonmember;
          Alcotest.test_case "delete list walks head-first" `Quick
            test_splice_delete_list;
        ] );
    ]
