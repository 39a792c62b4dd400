open Helpers

(* Semantics of concurrent atomic recovery units (paper §3).  The cases
   that need only the Logical Disk signature run on both
   implementations: the log-structured LLD and the journaling JLD. *)

module Counters = Lld_core.Counters
module Jld = Lld_jld.Jld

module type LD = sig
  include Lld_core.Ld_intf.S

  val fresh : unit -> t
end

module Cases (L : LD) = struct
  let new_list t = L.new_list t ()

  let append_block ?aru t list =
    let pred =
      match List.rev (L.list_blocks t ?aru list) with
      | [] -> Summary.Head
      | last :: _ -> Summary.After last
    in
    L.new_block t ?aru ~list ~pred ()

  let test_shadow_isolated_until_commit () =
    let t = L.fresh () in
    let l = new_list t in
    let b = append_block t l in
    L.write t b (block_data 1);
    let a = L.begin_aru t in
    L.write t ~aru:a b (block_data 2);
    (* option 3 visibility: the ARU sees its shadow, simple reads see the
       committed version *)
    check_data "ARU sees its shadow" (block_data 2) (L.read t ~aru:a b);
    check_data "simple read sees committed" (block_data 1) (L.read t b);
    L.end_aru t a;
    check_data "visible after commit" (block_data 2) (L.read t b)

  let test_two_arus_isolated () =
    let t = L.fresh () in
    let l = new_list t in
    let b = append_block t l in
    L.write t b (block_data 0);
    let a1 = L.begin_aru t in
    let a2 = L.begin_aru t in
    L.write t ~aru:a1 b (block_data 1);
    L.write t ~aru:a2 b (block_data 2);
    check_data "a1 sees its own" (block_data 1) (L.read t ~aru:a1 b);
    check_data "a2 sees its own" (block_data 2) (L.read t ~aru:a2 b);
    check_data "simple sees committed" (block_data 0) (L.read t b);
    (* ARUs serialize by EndARU, but data versions carry their write
       stamps: the later write (a2's) wins regardless of commit order *)
    L.end_aru t a2;
    L.end_aru t a1;
    check_data "later write stamp wins" (block_data 2) (L.read t b)

  let test_aru_list_operations_isolated () =
    let t = L.fresh () in
    let l = new_list t in
    let b1 = append_block t l in
    let a = L.begin_aru t in
    let b2 = append_block ~aru:a t l in
    Alcotest.check block_ids "ARU sees insertion" [ b1; b2 ]
      (L.list_blocks t ~aru:a l);
    Alcotest.check block_ids "others do not" [ b1 ] (L.list_blocks t l);
    L.end_aru t a;
    Alcotest.check block_ids "merged after commit" [ b1; b2 ]
      (L.list_blocks t l)

  let test_max_versions_bound () =
    (* n active ARUs + committed + persistent = n + 2 versions (paper
       §3.3): writing the same block in 3 ARUs plus a simple write keeps
       every version readable by its owner. *)
    let t = L.fresh () in
    let l = new_list t in
    let b = append_block t l in
    L.write t b (block_data 0);
    let arus = List.init 3 (fun _ -> L.begin_aru t) in
    List.iteri (fun i a -> L.write t ~aru:a b (block_data (i + 1))) arus;
    List.iteri
      (fun i a ->
        check_data
          (Printf.sprintf "aru %d sees its version" i)
          (block_data (i + 1))
          (L.read t ~aru:a b))
      arus;
    check_data "committed version intact" (block_data 0) (L.read t b);
    List.iter (fun a -> L.end_aru t a) arus

  let test_allocation_in_committed_state () =
    (* paper §3.3: NewBlock inside an ARU allocates in the committed
       state immediately, so concurrent ARUs can never get the same id;
       but the allocation is invisible to others. *)
    let t = L.fresh () in
    let l = new_list t in
    let a1 = L.begin_aru t in
    let a2 = L.begin_aru t in
    let b1 = L.new_block t ~aru:a1 ~list:l ~pred:Summary.Head () in
    let b2 = L.new_block t ~aru:a2 ~list:l ~pred:Summary.Head () in
    Alcotest.(check bool) "distinct ids" false (Types.Block_id.equal b1 b2);
    (* others cannot see (or touch) the un-committed allocation *)
    Alcotest.(check bool) "invisible to simple" false (L.block_allocated t b1);
    Alcotest.(check bool) "invisible to the other ARU" false
      (L.block_allocated t ~aru:a2 b1);
    Alcotest.(check bool) "visible to its owner" true
      (L.block_allocated t ~aru:a1 b1);
    Alcotest.check_raises "other ARU cannot write it"
      (Errors.Unallocated_block b1) (fun () ->
        L.write t ~aru:a2 b1 (block_data 9));
    L.end_aru t a1;
    Alcotest.(check bool) "visible after commit" true (L.block_allocated t b1);
    L.end_aru t a2

  let test_list_allocation_hidden_until_commit () =
    let t = L.fresh () in
    let a1 = L.begin_aru t in
    let a2 = L.begin_aru t in
    let l = L.new_list t ~aru:a1 () in
    Alcotest.(check bool) "visible to owner" true (L.list_exists t ~aru:a1 l);
    Alcotest.(check bool) "hidden from simple" false (L.list_exists t l);
    Alcotest.(check bool) "hidden from other ARUs" false
      (L.list_exists t ~aru:a2 l);
    Alcotest.check_raises "others cannot populate it"
      (Errors.Unallocated_list l) (fun () ->
        ignore (L.new_block t ~aru:a2 ~list:l ~pred:Summary.Head ()));
    L.end_aru t a1;
    Alcotest.(check bool) "visible after commit" true (L.list_exists t l);
    L.end_aru t a2

  let test_delete_block_in_aru () =
    let t = L.fresh () in
    let l = new_list t in
    let b1 = append_block t l in
    let b2 = append_block t l in
    let a = L.begin_aru t in
    L.delete_block t ~aru:a b1;
    Alcotest.check block_ids "shadow sees deletion" [ b2 ]
      (L.list_blocks t ~aru:a l);
    Alcotest.check block_ids "committed unchanged" [ b1; b2 ]
      (L.list_blocks t l);
    Alcotest.(check bool) "still committed-allocated" true
      (L.block_allocated t b1);
    L.end_aru t a;
    Alcotest.check block_ids "deletion merged" [ b2 ] (L.list_blocks t l);
    Alcotest.(check bool) "deallocated after commit" false
      (L.block_allocated t b1)

  let test_write_after_own_shadow_delete_rejected () =
    let t = L.fresh () in
    let l = new_list t in
    let b = append_block t l in
    let a = L.begin_aru t in
    L.delete_block t ~aru:a b;
    Alcotest.check_raises "write to shadow-deleted block"
      (Errors.Unallocated_block b) (fun () ->
        L.write t ~aru:a b (block_data 1));
    Alcotest.check_raises "read of shadow-deleted block"
      (Errors.Unallocated_block b) (fun () -> ignore (L.read t ~aru:a b));
    (* but the committed state still has it *)
    Alcotest.(check bool) "committed still allocated" true
      (L.block_allocated t b);
    L.end_aru t a

  let test_delete_list_in_aru () =
    let t = L.fresh () in
    let l = new_list t in
    let bs = List.init 3 (fun _ -> append_block t l) in
    let a = L.begin_aru t in
    L.delete_list t ~aru:a l;
    Alcotest.(check bool) "shadow sees list gone" false
      (L.list_exists t ~aru:a l);
    Alcotest.(check bool) "committed still there" true (L.list_exists t l);
    L.end_aru t a;
    Alcotest.(check bool) "gone after commit" false (L.list_exists t l);
    List.iter
      (fun b ->
        Alcotest.(check bool) "members deallocated" false
          (L.block_allocated t b))
      bs

  let test_abort_discards_shadow () =
    let t = L.fresh () in
    let l = new_list t in
    let b = append_block t l in
    L.write t b (block_data 1);
    let a = L.begin_aru t in
    L.write t ~aru:a b (block_data 2);
    let b2 = L.new_block t ~aru:a ~list:l ~pred:(Summary.After b) () in
    L.abort_aru t a;
    check_data "write discarded" (block_data 1) (L.read t b);
    Alcotest.check block_ids "insertion discarded" [ b ] (L.list_blocks t l);
    (* the allocation itself survives the abort (paper §3.3)... *)
    Alcotest.(check bool) "allocation survives" true (L.block_allocated t b2);
    Alcotest.(check (option int)) "but on no list" None
      (Option.map Types.List_id.to_int (L.block_member t b2));
    (* ...until the scavenger frees it *)
    let freed = L.scavenge t in
    Alcotest.(check int) "scavenged" 1 freed;
    Alcotest.(check bool) "freed" false (L.block_allocated t b2)

  let test_end_unknown_aru_rejected () =
    let t = L.fresh () in
    let a = L.begin_aru t in
    L.end_aru t a;
    Alcotest.check_raises "double end" (Errors.Unknown_aru a) (fun () ->
        L.end_aru t a);
    Alcotest.check_raises "op on finished aru" (Errors.Unknown_aru a)
      (fun () -> ignore (L.new_list t ~aru:a ()))

  (* [with_aru] leaves no ARU behind: aborting the one it ran is an
     unknown ARU *)
  let check_ended t a =
    Alcotest.check_raises "no ARU left active" (Errors.Unknown_aru a)
      (fun () -> L.abort_aru t a)

  let test_with_aru_commits () =
    let t = L.fresh () in
    let l = new_list t in
    let ran = ref None in
    let b =
      L.with_aru t (fun aru ->
          ran := Some aru;
          let b = L.new_block t ~aru ~list:l ~pred:Summary.Head () in
          L.write t ~aru b (block_data 4);
          b)
    in
    check_data "committed on return" (block_data 4) (L.read t b);
    check_ended t (Option.get !ran)

  let test_with_aru_aborts_on_exception () =
    let t = L.fresh () in
    let l = new_list t in
    let b = append_block t l in
    L.write t b (block_data 1);
    let ran = ref None in
    Alcotest.check_raises "exception propagates" Exit (fun () ->
        L.with_aru t (fun aru ->
            ran := Some aru;
            L.write t ~aru b (block_data 9);
            raise Exit));
    check_data "write rolled back" (block_data 1) (L.read t b);
    check_ended t (Option.get !ran)

  let test_commit_replays_into_committed_state () =
    let t = L.fresh () in
    let l = new_list t in
    let a = L.begin_aru t in
    let b = L.new_block t ~aru:a ~list:l ~pred:Summary.Head () in
    L.write t ~aru:a b (block_data 5);
    let before = (L.counters t).Counters.link_log_replays in
    L.end_aru t a;
    let after = (L.counters t).Counters.link_log_replays in
    Alcotest.(check bool) "log was replayed" true (after > before);
    check_data "data merged" (block_data 5) (L.read t b)

  let test_conflicting_merge_is_deterministic () =
    (* two ARUs delete the same block; the second commit's operations
       are skipped rather than corrupting the list *)
    let t = L.fresh () in
    let l = new_list t in
    let b1 = append_block t l in
    let b2 = append_block t l in
    let a1 = L.begin_aru t in
    let a2 = L.begin_aru t in
    L.delete_block t ~aru:a1 b1;
    L.delete_block t ~aru:a2 b1;
    L.end_aru t a1;
    L.end_aru t a2;
    Alcotest.check block_ids "list consistent" [ b2 ] (L.list_blocks t l);
    Alcotest.(check bool) "skips recorded" true
      ((L.counters t).Counters.replay_skips > 0)

  let test_commit_spanning_segments () =
    (* an ARU touching more data than one LLD segment commits correctly *)
    let t = L.fresh () in
    let l = new_list t in
    let a = L.begin_aru t in
    let blocks =
      List.init 200 (fun i ->
          let b = append_block ~aru:a t l in
          L.write t ~aru:a b (block_data i);
          b)
    in
    L.end_aru t a;
    L.flush t;
    List.iteri
      (fun i b ->
        check_data (Printf.sprintf "block %d" i) (block_data i) (L.read t b))
      blocks

  let case name f = Alcotest.test_case name `Quick f

  let isolation =
    [
      case "shadow isolated until commit" test_shadow_isolated_until_commit;
      case "two ARUs isolated" test_two_arus_isolated;
      case "list operations isolated" test_aru_list_operations_isolated;
      case "n+2 versions" test_max_versions_bound;
    ]

  let allocation =
    [
      case "allocation in committed state" test_allocation_in_committed_state;
      case "list allocation hidden until commit"
        test_list_allocation_hidden_until_commit;
    ]

  let deletion =
    [
      case "delete block in ARU" test_delete_block_in_aru;
      case "ops on shadow-deleted block rejected"
        test_write_after_own_shadow_delete_rejected;
      case "delete list in ARU" test_delete_list_in_aru;
    ]

  let lifecycle =
    [
      case "abort discards shadow" test_abort_discards_shadow;
      case "unknown ARU rejected" test_end_unknown_aru_rejected;
      case "with_aru commits" test_with_aru_commits;
      case "with_aru aborts on exception" test_with_aru_aborts_on_exception;
      case "commit replays the link log" test_commit_replays_into_committed_state;
      case "conflicting merges deterministic"
        test_conflicting_merge_is_deterministic;
      case "commit spanning segments" test_commit_spanning_segments;
    ]
end

module On_lld = Cases (struct
  include Lld

  let fresh () = snd (fresh_lld ())
end)

module On_jld = Cases (struct
  include Jld

  let fresh () = Jld.create (fresh_disk ())
end)

(* LLD and JLD agree op for op.  Seeded raw-LD programs run in
   lockstep on both implementations through [Op.Make], every result is
   compared, and so is the state each recovers after a flush and a
   crash, twice mid-program and once at the end.  The programs keep
   the locking discipline the paper leaves to clients: an ARU touches
   only what it created or committed objects no open ARU holds, a list
   operation holds the list and its members, and simple mutations
   leave held objects alone. *)
module Agreement = struct
  module Op = Lld_core.Op
  module On_l = Op.Make (Lld)
  module On_j = Op.Make (Jld)

  type ld = {
    mutable l : Lld.t;
    mutable j : Jld.t;
    mutable history : string list;
  }

  let apply ld op =
    let rl = On_l.apply ld.l op in
    let rj = On_j.apply ld.j op in
    ld.history <- Format.asprintf "%a -> %a" Op.pp op Op.pp_result rl :: ld.history;
    if not (Op.equal_result rl rj) then
      Alcotest.failf "LLD %a but JLD %a, after:@.%s" Op.pp_result rl
        Op.pp_result rj
        (String.concat "\n" (List.rev ld.history));
    rl

  (* What each open ARU holds: blocks and lists, by id. *)
  type gen = {
    rng : Random.State.t;
    mutable arus : Types.Aru_id.t list;
    held : ([ `B of int | `L of int ], Types.Aru_id.t) Hashtbl.t;
    mutable blocks : Types.Block_id.t list;
    mutable lists : Types.List_id.t list;
  }

  let pick g = function
    | [] -> None
    | l -> Some (List.nth l (Random.State.int g.rng (List.length l)))

  let free_for g who key =
    match (Hashtbl.find_opt g.held key, who) with
    | None, _ -> true
    | Some a, Some a' -> Types.Aru_id.equal a a'
    | Some _, None -> false

  let hold g who keys =
    Option.iter (fun a -> List.iter (fun k -> Hashtbl.replace g.held k a) keys) who

  let bkey b = `B (Types.Block_id.to_int b)
  let lkey l = `L (Types.List_id.to_int l)

  (* The list and its members as [who] sees them, if [who] may touch
     them all. *)
  let lockable ld g who list =
    match apply ld (Op.List_blocks { aru = who; list }) with
    | Op.R_blocks members ->
      let keys = lkey list :: List.map bkey members in
      if List.for_all (free_for g who) keys then Some (members, keys) else None
    | _ -> None

  let step ld g i =
    let who = if Random.State.int g.rng 3 = 0 then None else pick g g.arus in
    let touchable_blocks = List.filter (fun b -> free_for g who (bkey b)) g.blocks in
    let touchable_lists = List.filter (fun l -> free_for g who (lkey l)) g.lists in
    match Random.State.int g.rng 100 with
    | k when k < 8 ->
      if List.length g.arus < 3 then (
        match apply ld Op.Begin_aru with
        | Op.R_aru a -> g.arus <- a :: g.arus
        | _ -> ())
    | k when k < 17 -> (
      match pick g g.arus with
      | Some a ->
        ignore (apply ld (if k < 14 then Op.End_aru a else Op.Abort_aru a));
        g.arus <- List.filter (fun x -> not (Types.Aru_id.equal x a)) g.arus;
        Hashtbl.filter_map_inplace
          (fun _ o -> if Types.Aru_id.equal o a then None else Some o)
          g.held
      | None -> ())
    | k when k < 23 -> (
      match apply ld (Op.New_list who) with
      | Op.R_list l ->
        g.lists <- l :: g.lists;
        hold g who [ lkey l ]
      | _ -> ())
    | k when k < 42 -> (
      match Option.bind (pick g touchable_lists) (fun l ->
                Option.map (fun m -> (l, m)) (lockable ld g who l))
      with
      | Some (list, (members, keys)) -> (
        let pred =
          match pick g members with
          | Some p when Random.State.bool g.rng -> Summary.After p
          | Some _ | None -> Summary.Head
        in
        match apply ld (Op.New_block { aru = who; list; pred }) with
        | Op.R_block b ->
          g.blocks <- b :: g.blocks;
          hold g who (bkey b :: keys)
        | _ -> ())
      | None -> ())
    | k when k < 56 -> (
      match pick g touchable_blocks with
      | Some block ->
        ignore (apply ld (Op.Write { aru = who; block; data = block_data i }));
        hold g who [ bkey block ]
      | None -> ())
    | k when k < 68 ->
      Option.iter
        (fun block -> ignore (apply ld (Op.Read { aru = who; block })))
        (pick g g.blocks)
    | k when k < 76 -> (
      match pick g touchable_blocks with
      | Some block -> (
        let keys =
          match apply ld (Op.Block_member { aru = who; block }) with
          | Op.R_member (Some l) -> Option.map snd (lockable ld g who l)
          | _ -> Some [ bkey block ]
        in
        match keys with
        | Some keys ->
          ignore (apply ld (Op.Delete_block { aru = who; block }));
          hold g who keys
        | None -> ())
      | None -> ())
    | k when k < 80 -> (
      match Option.bind (pick g touchable_lists) (fun l ->
                Option.map (fun m -> (l, m)) (lockable ld g who l))
      with
      | Some (list, (_, keys)) ->
        ignore (apply ld (Op.Delete_list { aru = who; list }));
        hold g who keys
      | None -> ())
    | k when k < 86 ->
      Option.iter
        (fun list -> ignore (apply ld (Op.List_exists { aru = who; list })))
        (pick g g.lists);
      Option.iter
        (fun block -> ignore (apply ld (Op.Block_allocated { aru = who; block })))
        (pick g g.blocks)
    | k when k < 89 -> ignore (apply ld Op.Lists)
    | k when k < 92 -> ignore (apply ld Op.Flush)
    | k when k < 95 -> if g.arus = [] then ignore (apply ld Op.Scavenge)
    | _ ->
      ld.history <- "checkpoint" :: ld.history;
      Lld.checkpoint ld.l;
      Jld.checkpoint ld.j

  (* Flush, crash and recover both.  The open ARUs are gone, and with
     them what they held. *)
  let restart ld g ldisk jdisk =
    ignore (apply ld Op.Flush);
    Disk.crash ldisk;
    Disk.crash jdisk;
    ld.l <- fst (Lld.recover ldisk);
    ld.j <- fst (Jld.recover jdisk);
    ld.history <- "crash, recover" :: ld.history;
    g.arus <- [];
    Hashtbl.reset g.held

  let run seed =
    let ldisk = fresh_disk () and jdisk = fresh_disk () in
    let ld = { l = Lld.create ldisk; j = Jld.create jdisk; history = [] } in
    let g =
      {
        rng = Random.State.make [| seed |];
        arus = [];
        held = Hashtbl.create 16;
        blocks = [];
        lists = [];
      }
    in
    (* two restarts mid-program: later operations run on the stamps, ARU
       ids and free pools each recovery restored *)
    for i = 1 to 150 do
      step ld g i;
      if i = 50 || i = 100 then restart ld g ldisk jdisk
    done;
    (* the state each recovers after a flush and a crash *)
    restart ld g ldisk jdisk;
    (match apply ld Op.Lists with
    | Op.R_lists ls ->
      List.iter (fun list -> ignore (apply ld (Op.List_blocks { aru = None; list }))) ls
    | _ -> ());
    List.iter
      (fun block ->
        ignore (apply ld (Op.Block_allocated { aru = None; block }));
        ignore (apply ld (Op.Read { aru = None; block })))
      (List.sort_uniq Types.Block_id.compare g.blocks);
    ignore (apply ld Op.Scavenge)

  let test () = List.iter run (List.init 40 (fun i -> i + 1))
end

(* LLD-only cases: ARU bookkeeping, the configurable read visibility and
   the sequential prototype are not part of the LD signature. *)

let test_aru_ids_unique_and_tracked () =
  let _, lld = fresh_lld () in
  let a1 = Lld.begin_aru lld in
  let a2 = Lld.begin_aru lld in
  Alcotest.(check bool) "distinct" false (Types.Aru_id.equal a1 a2);
  Alcotest.(check int) "two active" 2 (List.length (Lld.active_arus lld));
  Lld.end_aru lld a1;
  Alcotest.(check bool) "a1 inactive" false (Lld.aru_active lld a1);
  Alcotest.(check bool) "a2 active" true (Lld.aru_active lld a2);
  Lld.end_aru lld a2

let test_visibility_option_committed_only () =
  let config = { Config.default with Config.visibility = Config.Committed_only } in
  let _, lld = fresh_lld ~config () in
  let l = new_list lld in
  let b = append_block lld l in
  Lld.write lld b (block_data 1);
  let a = Lld.begin_aru lld in
  Lld.write lld ~aru:a b (block_data 2);
  (* option 2: even the writer reads the committed version *)
  check_data "ARU reads committed" (block_data 1) (Lld.read lld ~aru:a b);
  Lld.end_aru lld a;
  check_data "after commit" (block_data 2) (Lld.read lld b)

let test_visibility_option_any_shadow () =
  let config = { Config.default with Config.visibility = Config.Any_shadow } in
  let _, lld = fresh_lld ~config () in
  let l = new_list lld in
  let b = append_block lld l in
  Lld.write lld b (block_data 1);
  let a1 = Lld.begin_aru lld in
  let a2 = Lld.begin_aru lld in
  Lld.write lld ~aru:a1 b (block_data 2);
  (* option 1: every reader sees the most recent shadow version *)
  check_data "simple read sees a1's shadow" (block_data 2) (Lld.read lld b);
  check_data "a2 sees a1's shadow" (block_data 2) (Lld.read lld ~aru:a2 b);
  Lld.write lld ~aru:a2 b (block_data 3);
  check_data "newest shadow wins" (block_data 3) (Lld.read lld b);
  Lld.end_aru lld a1;
  Lld.end_aru lld a2

let test_sequential_mode_single_aru () =
  let _, lld = fresh_lld ~config:Config.old_lld () in
  let a = Lld.begin_aru lld in
  Alcotest.check_raises "no concurrent ARUs in the old prototype"
    Errors.Aru_already_active (fun () -> ignore (Lld.begin_aru lld));
  Lld.end_aru lld a;
  let a2 = Lld.begin_aru lld in
  Lld.end_aru lld a2

let test_sequential_mode_aru_updates_in_place () =
  let _, lld = fresh_lld ~config:Config.old_lld () in
  let l = new_list lld in
  let b = append_block lld l in
  Lld.write lld b (block_data 1);
  let a = Lld.begin_aru lld in
  Lld.write lld ~aru:a b (block_data 2);
  (* the old prototype has a single stream: updates are immediately
     visible to everyone *)
  check_data "single stream" (block_data 2) (Lld.read lld b);
  Lld.end_aru lld a

let test_sequential_abort_unsupported () =
  let _, lld = fresh_lld ~config:Config.old_lld () in
  let a = Lld.begin_aru lld in
  Alcotest.check_raises "abort unsupported"
    (Invalid_argument "Lld.abort_aru: not supported by the sequential prototype")
    (fun () -> Lld.abort_aru lld a);
  Lld.end_aru lld a

let () =
  Alcotest.run "lld_aru"
    [
      ("isolation", On_lld.isolation);
      ("allocation", On_lld.allocation);
      ("deletion", On_lld.deletion);
      ( "lifecycle",
        On_lld.lifecycle
        @ [
            Alcotest.test_case "ids unique and tracked" `Quick
              test_aru_ids_unique_and_tracked;
          ] );
      ( "visibility-options",
        [
          Alcotest.test_case "option 2: committed only" `Quick
            test_visibility_option_committed_only;
          Alcotest.test_case "option 1: any shadow" `Quick
            test_visibility_option_any_shadow;
        ] );
      ( "sequential-mode",
        [
          Alcotest.test_case "single ARU at a time" `Quick
            test_sequential_mode_single_aru;
          Alcotest.test_case "updates in place" `Quick
            test_sequential_mode_aru_updates_in_place;
          Alcotest.test_case "abort unsupported" `Quick
            test_sequential_abort_unsupported;
        ] );
      ("jld-isolation", On_jld.isolation);
      ("jld-allocation", On_jld.allocation);
      ("jld-deletion", On_jld.deletion);
      ("jld-lifecycle", On_jld.lifecycle);
      ( "lld-jld-agreement",
        [ Alcotest.test_case "op for op, then recovered" `Quick Agreement.test ] );
    ]
