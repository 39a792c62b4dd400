open Helpers
module Fault = Lld_disk.Fault
module Rng = Lld_sim.Rng
module Blk = Lld_util.Blk
module Checkpoint = Lld_core.Checkpoint

(* ------------------------------------------------------------------ *)
(* Model-based equivalence.

   A reference model of the LD semantics under the paper's client
   contract: every client (the simple stream, or one ARU) operates on
   objects it owns — which is exactly the concurrency-control discipline
   the paper assigns to clients (§3).  The driver applies the same
   random operations to the real logical disk and to the model, and
   compares every read and every list walk; at the end it commits some
   ARUs, crashes, recovers, and compares the persistent state. *)

module Model = struct
  type obj_state = {
    mutable lists : (int * int list) list; (* list id -> member block ids *)
    mutable tags : (int * int) list; (* block id -> written tag *)
  }

  let empty () = { lists = []; tags = [] }

  let add_list st l = st.lists <- (l, []) :: st.lists

  let members st l = List.assoc l st.lists

  let set_members st l ms =
    st.lists <- (l, ms) :: List.remove_assoc l st.lists

  let delete_list st l =
    let ms = members st l in
    st.lists <- List.remove_assoc l st.lists;
    st.tags <- List.filter (fun (b, _) -> not (List.mem b ms)) st.tags;
    ms

  let append st l b = set_members st l (members st l @ [ b ])

  let remove_block st l b =
    set_members st l (List.filter (fun x -> x <> b) (members st l));
    st.tags <- List.remove_assoc b st.tags

  let tag st b = List.assoc_opt b st.tags
  let set_tag st b v = st.tags <- (b, v) :: List.remove_assoc b st.tags
end

type actor = {
  aru : Types.Aru_id.t option; (* None = the simple stream *)
  state : Model.obj_state;
  rng : Rng.t;
}

let tag_block tag = Bytes.make block_bytes (Char.chr (tag land 0xff))

let read_tag data = Char.code (Bytes.get data 0)

(* One random operation of one actor; returns false if nothing applies. *)
let actor_step lld (a : actor) =
  let aru = a.aru in
  let st = a.state in
  let own_lists = List.map fst st.Model.lists in
  let pick xs = List.nth xs (Rng.int a.rng (List.length xs)) in
  match Rng.int a.rng 12 with
  | 0 | 1 ->
    let l = Lld.new_list lld ?aru () in
    Model.add_list st (Types.List_id.to_int l);
    true
  | 2 | 3 | 4 | 5 when own_lists <> [] ->
    (* append a block to one of our lists *)
    let l = pick own_lists in
    let ms = Model.members st l in
    let pred =
      match List.rev ms with
      | [] -> Summary.Head
      | last :: _ -> Summary.After (Types.Block_id.of_int last)
    in
    let b = Lld.new_block lld ?aru ~list:(Types.List_id.of_int l) ~pred () in
    Model.append st l (Types.Block_id.to_int b);
    true
  | 6 | 7 | 8 when List.exists (fun (_, ms) -> ms <> []) st.Model.lists ->
    (* write a random tag to one of our blocks *)
    let l, ms = pick (List.filter (fun (_, ms) -> ms <> []) st.Model.lists) in
    ignore l;
    let b = pick ms in
    let tag = 1 + Rng.int a.rng 250 in
    Lld.write lld ?aru (Types.Block_id.of_int b) (tag_block tag);
    Model.set_tag st b tag;
    true
  | 9 when List.exists (fun (_, ms) -> ms <> []) st.Model.lists ->
    (* delete one of our blocks *)
    let l, ms = pick (List.filter (fun (_, ms) -> ms <> []) st.Model.lists) in
    let b = pick ms in
    Lld.delete_block lld ?aru (Types.Block_id.of_int b);
    Model.remove_block st l b;
    true
  | 10 when own_lists <> [] && Rng.int a.rng 4 = 0 ->
    let l = pick own_lists in
    Lld.delete_list lld ?aru (Types.List_id.of_int l);
    ignore (Model.delete_list st l);
    true
  | _ -> false

(* Compare everything the actor can see against its model. *)
let check_actor lld (a : actor) =
  List.iter
    (fun (l, ms) ->
      let got =
        List.map Types.Block_id.to_int
          (Lld.list_blocks lld ?aru:a.aru (Types.List_id.of_int l))
      in
      if got <> ms then
        Alcotest.failf "list %d: model %s, lld %s" l
          (String.concat "," (List.map string_of_int ms))
          (String.concat "," (List.map string_of_int got));
      List.iter
        (fun b ->
          let data = Lld.read lld ?aru:a.aru (Types.Block_id.of_int b) in
          let expect = Option.value ~default:0 (Model.tag a.state b) in
          if read_tag data <> expect then
            Alcotest.failf "block %d: model tag %d, lld %d" b expect
              (read_tag data))
        ms)
    a.state.Model.lists

let model_equivalence_scenario seed =
  let disk, lld = fresh_lld () in
  let rng = Rng.create ~seed in
  let simple = { aru = None; state = Model.empty (); rng = Rng.split rng } in
  let arus =
    List.init 3 (fun _ ->
        {
          aru = Some (Lld.begin_aru lld);
          state = Model.empty ();
          rng = Rng.split rng;
        })
  in
  let actors = simple :: arus in
  (* interleave operations *)
  for _ = 1 to 120 do
    let a = List.nth actors (Rng.int rng (List.length actors)) in
    ignore (actor_step lld a)
  done;
  List.iter (check_actor lld) actors;
  (* commit a prefix of the ARUs; their objects join the simple view *)
  let committed, discarded =
    match arus with
    | [ a1; a2; a3 ] ->
      Lld.end_aru lld (Option.get a1.aru);
      Lld.end_aru lld (Option.get a2.aru);
      ([ a1; a2 ], [ a3 ])
    | _ -> assert false
  in
  Lld.flush lld;
  let visible_after c =
    List.iter
      (fun other -> check_actor lld { other with aru = None })
      (simple :: c)
  in
  visible_after committed;
  (* crash with one ARU still open; recovery must keep exactly the
     committed state *)
  Disk.crash disk;
  let lld2, _report = Lld.recover disk in
  List.iter
    (fun c -> check_actor lld2 { c with aru = None })
    (simple :: committed);
  (* the uncommitted ARU's blocks were scavenged *)
  List.iter
    (fun d ->
      List.iter
        (fun (_, ms) ->
          List.iter
            (fun b ->
              if Lld.block_allocated lld2 (Types.Block_id.of_int b) then
                Alcotest.failf "uncommitted block %d survived recovery" b)
            ms)
        d.state.Model.lists)
    discarded;
  true

let model_equivalence =
  QCheck.Test.make ~name:"LD equals reference model under random ops" ~count:25
    QCheck.(int_range 0 10_000)
    model_equivalence_scenario

(* The same scenario against the sequential prototype: one ARU at a
   time, same single-stream model. *)
let sequential_model_scenario seed =
  let _, lld = fresh_lld ~config:Config.old_lld () in
  let rng = Rng.create ~seed in
  let simple = { aru = None; state = Model.empty (); rng = Rng.split rng } in
  for _ = 1 to 60 do
    ignore (actor_step lld simple)
  done;
  check_actor lld simple;
  (* one bracketed group *)
  let aru = Lld.begin_aru lld in
  let actor = { simple with aru = Some aru; rng = Rng.split rng } in
  for _ = 1 to 40 do
    ignore (actor_step lld actor)
  done;
  Lld.end_aru lld aru;
  check_actor lld { actor with aru = None };
  true

let sequential_model =
  QCheck.Test.make ~name:"sequential prototype equals model" ~count:25
    QCheck.(int_range 0 10_000)
    sequential_model_scenario

(* ------------------------------------------------------------------ *)
(* ARU atomicity under random crash points.

   Disjoint groups of pre-flushed blocks are each rewritten by one ARU
   with the ARU's tag; the disk crashes at a random segment write.
   After recovery every group must be uniformly tagged or uniformly
   untouched — all or nothing (paper §3). *)

let atomicity_scenario (seed, crash_after) =
  let disk, lld = fresh_lld () in
  let rng = Rng.create ~seed in
  let groups = 12 in
  let blocks_per_group = 4 in
  let list = Lld.new_list lld () in
  let all =
    Array.init (groups * blocks_per_group) (fun _ -> append_block lld list)
  in
  Array.iter (fun b -> Lld.write lld b (tag_block 0)) all;
  Lld.flush lld;
  Fault.schedule_crash (Disk.fault disk) (Fault.After_writes crash_after);
  (try
     for g = 0 to groups - 1 do
       let aru = Lld.begin_aru lld in
       let tag = g + 1 in
       for i = 0 to blocks_per_group - 1 do
         Lld.write lld ~aru all.((g * blocks_per_group) + i) (tag_block tag);
         (* scatter some unrelated simple writes between ARU writes *)
         if Rng.int rng 3 = 0 then begin
           let b = append_block lld list in
           Lld.write lld b (tag_block 255);
           Lld.delete_block lld b
         end
       done;
       Lld.end_aru lld aru;
       if Rng.int rng 4 = 0 then Lld.flush lld
     done;
     Lld.flush lld;
     (* never crashed: force it so recovery still runs *)
     Disk.crash disk
   with Fault.Crashed -> ());
  let lld2, _ = Lld.recover disk in
  for g = 0 to groups - 1 do
    let tags =
      List.init blocks_per_group (fun i ->
          read_tag (Lld.read lld2 all.((g * blocks_per_group) + i)))
    in
    let expect_all v = List.for_all (fun t -> t = v) tags in
    if not (expect_all 0 || expect_all (g + 1)) then
      Alcotest.failf "group %d not atomic after crash@%d: tags %s" g
        crash_after
        (String.concat "," (List.map string_of_int tags))
  done;
  true

let atomicity_fuzz =
  QCheck.Test.make ~name:"ARU writes are all-or-nothing at any crash point"
    ~count:60
    QCheck.(pair (int_range 0 5_000) (int_range 0 12))
    atomicity_scenario

(* ------------------------------------------------------------------ *)
(* LD-level accounting invariant after crash/recovery. *)

let accounting_scenario seed =
  let disk, lld = fresh_lld () in
  let rng = Rng.create ~seed in
  let actor = { aru = None; state = Model.empty (); rng = Rng.split rng } in
  for _ = 1 to 100 do
    ignore (actor_step lld actor)
  done;
  let aru = Lld.begin_aru lld in
  let l = Lld.new_list lld ~aru () in
  let _b = Lld.new_block lld ~aru ~list:l ~pred:Summary.Head () in
  Lld.flush lld;
  Disk.crash disk;
  let lld2, _ = Lld.recover disk in
  (* every allocated block is on exactly one list *)
  let on_lists =
    List.fold_left
      (fun acc l -> acc + List.length (Lld.list_blocks lld2 l))
      0 (Lld.lists lld2)
  in
  let orphans = List.length (Lld.orphan_blocks lld2) in
  if Lld.allocated_blocks lld2 <> on_lists + orphans then
    Alcotest.failf "allocated %d <> on lists %d + orphans %d"
      (Lld.allocated_blocks lld2) on_lists orphans;
  if orphans <> 0 then
    Alcotest.failf "recovery left %d orphan blocks unscavenged" orphans;
  true

let accounting_fuzz =
  QCheck.Test.make ~name:"allocation accounting holds after recovery" ~count:30
    QCheck.(int_range 0 10_000)
    accounting_scenario

(* ------------------------------------------------------------------ *)
(* Codec round-trips. *)

let gen_entry =
  let open QCheck.Gen in
  let block = map Types.Block_id.of_int (int_range 0 100_000) in
  let list = map Types.List_id.of_int (int_range 0 100_000) in
  let aruid = map Types.Aru_id.of_int (int_range 0 1_000_000) in
  let stamp = int_range 0 1_000_000_000 in
  let stream =
    oneof [ return Summary.Simple; map (fun a -> Summary.In_aru a) aruid ]
  in
  let pred =
    oneof [ return Summary.Head; map (fun b -> Summary.After b) block ]
  in
  let op =
    oneof
      [
        map3
          (fun block list stamp -> Summary.Alloc { block; list; stamp })
          block list stamp;
        map3
          (fun block slot stamp -> Summary.Write { block; slot; stamp })
          block (int_range 0 4096) stamp;
        map3
          (fun list block pred -> Summary.Link { list; block; pred })
          list block pred;
        map2 (fun list block -> Summary.Unlink { list; block }) list block;
        map3
          (fun list stamp owner -> Summary.New_list { list; stamp; owner })
          list stamp (opt aruid);
        map (fun list -> Summary.Delete_list { list }) list;
        map2 (fun block stamp -> Summary.Dealloc { block; stamp }) block stamp;
        map (fun aru -> Summary.Commit { aru }) aruid;
      ]
  in
  map2 (fun stream op -> { Summary.stream; op }) stream op

let entry_roundtrip =
  QCheck.Test.make ~name:"summary entry encode/decode roundtrip" ~count:500
    (QCheck.make gen_entry)
    (fun entry ->
      let w = Blk.Writer.create () in
      Summary.encode w entry;
      let buf = Blk.Writer.contents w in
      Blk.length buf = Summary.encoded_size entry
      && Summary.decode (Blk.Reader.of_view buf) = entry)

(* A random checkpoint over random tables, ids up to 100 000 (so the
   tables are that large): a full, or a delta whose dirty ids name every
   anchor plus blocks 1, 5 and 9 and list 2, tombstones unless the
   tables hold them. *)
let snapshot_capacity = 100_001

let gen_snapshot =
  let open QCheck.Gen in
  let block =
    map3
      (fun id (member, succ) (phys, stamp) -> (id, member, succ, phys, stamp))
      (int_range 0 100_000)
      (pair (opt (int_range 0 1000)) (opt (int_range 0 100_000)))
      (pair
         (opt (pair (int_range 0 800) (int_range 0 127)))
         (int_range 0 1_000_000))
  in
  let list =
    map3
      (fun id (first, last) stamp -> (id, first, last, stamp, None))
      (int_range 1 100_000)
      (pair (opt (int_range 0 100_000)) (opt (int_range 0 100_000)))
      (int_range 0 1_000_000)
  in
  let pending_entry =
    map2
      (fun b seg ->
        {
          Checkpoint.pe_op =
            Summary.Write { block = Types.Block_id.of_int b; slot = 1; stamp = 7 };
          pe_seg = seg;
        })
      (int_range 0 100_000) (int_range 0 800)
  in
  let pending = small_list (pair (int_range 1 1000) (small_list pending_entry)) in
  map3
    (fun (ckpt_id, covered_seq) (blocks, lists) pending ->
      let ids extra l =
        List.sort_uniq Int.compare (extra @ List.map (fun (id, _, _, _, _) -> id) l)
      in
      ( tables ~capacity:snapshot_capacity ~blocks ~lists (),
        {
          Checkpoint.ckpt_id = ckpt_id + 1;
          kind =
            (if ckpt_id mod 3 = 0 then
               Checkpoint.Delta
                 {
                   base_id = ckpt_id;
                   blocks = ids [ 1; 5; 9 ] blocks;
                   lists = ids [ 2 ] lists;
                 }
             else Checkpoint.Full);
          covered_seq;
          next_seq = covered_seq + 1;
          stamp = 1 + covered_seq;
          next_aru = 1;
          next_gid = 1;
          pending;
          free_order = [];
          prepared = (if ckpt_id mod 4 = 0 then [ (7, 3, 1); (9, 4, 0) ] else []);
        } ))
    (pair (int_range 0 100_000) (int_range 0 100_000))
    (pair (small_list block) (small_list list))
    pending

let snapshot_roundtrip =
  QCheck.Test.make ~name:"checkpoint snapshot encode/decode roundtrip"
    ~count:200 (QCheck.make gen_snapshot)
    (fun (t, snap) ->
      let buf =
        Checkpoint.encode ~owner_active:(fun _ -> true) (fst t) (snd t) snap
      in
      let t' = tables ~capacity:snapshot_capacity () in
      Checkpoint.decode_into (fst t') (snd t') buf = snap
      && dump_tables t' = dump_tables t)

(* A delta restores over its full like an overlay.  The full holds
   random blocks and lists; the delta rewrites the full's first block
   and list, tombstones its second ones, adds new blocks and lists,
   tombstones blocks and lists the full never held, and rewrites,
   tombstones or keeps each other id at random.  Written to region 1
   beside the full in region 0, [read_best] must restore the overlay
   computed here over id-keyed maps, and count as many allocated
   blocks. *)
module Ids = Map.Make (Int)

let overlay_disk = lazy (fresh_disk ())

let delta_overlay =
  QCheck.Test.make ~name:"delta restores over its full like an overlay"
    ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let pick n = Rng.int rng n in
      let opt x = if pick 2 = 0 then None else Some x in
      let capacity = Lld_core.Disk_layout.block_capacity small_geom in
      let block id =
        ( id,
          opt (1 + pick 60),
          opt (pick capacity),
          opt (pick 800, pick 128),
          pick 1_000_000 )
      in
      let list id =
        (id, opt (pick capacity), opt (pick capacity), pick 1_000_000, None)
      in
      (* [n] distinct ids in [lo, hi) outside [held], with fields [f] *)
      let draw n lo hi held f =
        let rec go m =
          if Ids.cardinal m = n then m
          else
            let id = lo + pick (hi - lo) in
            go (if held id || Ids.mem id m then m else Ids.add id (f id) m)
        in
        go Ids.empty
      in
      (* the delta's changes, by id: an entry, or [None] for a tombstone *)
      let changes full fields ~lo ~hi =
        let held id = Ids.mem id full in
        let fresh = draw (1 + pick 4) lo hi held fields in
        let never =
          draw (1 + pick 4) lo hi (fun id -> held id || Ids.mem id fresh) ignore
        in
        List.concat
          [
            List.filter_map
              (fun (i, (id, _)) ->
                match if i < 2 then i else pick 3 with
                | 0 -> Some (id, Some (fields id))
                | 1 -> Some (id, None)
                | _ -> None)
              (List.mapi (fun i b -> (i, b)) (Ids.bindings full));
            List.map (fun (id, f) -> (id, Some f)) (Ids.bindings fresh);
            List.map (fun (id, ()) -> (id, None)) (Ids.bindings never);
          ]
      in
      let overlay full changes =
        List.fold_left
          (fun m (id, change) ->
            match change with Some f -> Ids.add id f m | None -> Ids.remove id m)
          full changes
      in
      let dirty changes = List.sort_uniq Int.compare (List.map fst changes) in
      let full_b = draw (2 + pick 30) 0 capacity (fun _ -> false) block in
      let full_l = draw (2 + pick 10) 1 61 (fun _ -> false) list in
      let changes_b = changes full_b block ~lo:0 ~hi:capacity in
      let changes_l = changes full_l list ~lo:1 ~hi:61 in
      let expected_b = overlay full_b changes_b in
      let expected_l = overlay full_l changes_l in
      let build b l =
        tables
          ~blocks:(List.map snd (Ids.bindings b))
          ~lists:(List.map snd (Ids.bindings l))
          ()
      in
      let disk = Lazy.force overlay_disk in
      let write ~region t ckpt_id kind =
        Checkpoint.write disk ~region ~owner_active:(fun _ -> true) (fst t) (snd t)
          {
            Checkpoint.ckpt_id;
            kind;
            covered_seq = ckpt_id;
            next_seq = ckpt_id + 1;
            stamp = 1;
            next_aru = 1;
            next_gid = 1;
            pending = [];
            free_order = [];
            prepared = [];
          }
      in
      let expected = build expected_b expected_l in
      write ~region:0 (build full_b full_l) 5 Checkpoint.Full;
      write ~region:1 expected 6
        (Checkpoint.Delta
           { base_id = 5; blocks = dirty changes_b; lists = dirty changes_l });
      match Checkpoint.read_best disk with
      | None -> false
      | Some best ->
        let restored = (best.Checkpoint.best_blocks, best.Checkpoint.best_lists) in
        Block_map.rebuild_free (fst restored);
        best.Checkpoint.best_region = 1
        && dump_tables restored = dump_tables expected
        && Block_map.allocated_count (fst restored) = Ids.cardinal expected_b)

(* ------------------------------------------------------------------ *)
(* Decoder robustness: arbitrary bytes must never escape the declared
   failure modes (None / Corrupt / Truncated) — what a torn or
   scribbled-on disk hands recovery. *)

let segment_parse_total =
  QCheck.Test.make ~name:"Segment.parse is total on arbitrary images" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 0 100))
    (fun (seed, flips) ->
      let geom = Lld_disk.Geometry.small in
      let rng = Rng.create ~seed in
      (* start from a valid sealed image so the header area is plausible,
         then flip random bytes *)
      let s = Lld_core.Segment.create geom ~seq:3 ~disk_index:1 in
      for i = 0 to 4 do
        ignore
          (Lld_core.Segment.put_block s ~scope:Lld_core.Segment.Simple_scope
             ~allow_cross_scope:true
             (Types.Block_id.of_int i)
             (Blk.of_bytes (Bytes.make 4096 'x')));
        Lld_core.Segment.add_entry s
          {
            Summary.stream = Summary.Simple;
            op = Summary.Write { block = Types.Block_id.of_int i; slot = i; stamp = i };
          }
      done;
      let image = Blk.of_bytes (Blk.to_bytes (Lld_core.Segment.seal s)) in
      for _ = 1 to flips do
        let pos = Rng.int rng (Blk.length image) in
        Blk.set_u8 image pos (Rng.int rng 256)
      done;
      match Lld_core.Segment.parse geom image with
      | Some _ | None -> true)

let summary_decode_total =
  QCheck.Test.make ~name:"Summary.decode fails only with Corrupt/Truncated"
    ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let len = 1 + Rng.int rng 64 in
      let buf = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
      match Summary.decode (Blk.Reader.of_view (Blk.of_bytes buf)) with
      | _ -> true
      | exception (Errors.Corrupt _ | Blk.Truncated) -> true)

let checkpoint_decode_total =
  QCheck.Test.make ~name:"Checkpoint.decode fails only with Corrupt" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      (* corrupt a valid payload: keeps the version plausible so the
         decoder gets deep before failing, and decodes into tables of
         capacity 16, so a scribbled identifier can fall outside them *)
      let t =
        tables ~capacity:16
          ~blocks:(List.init 10 (fun i -> (i, Some i, None, Some (1, i), i)))
          ()
      in
      let snap =
        {
          Checkpoint.ckpt_id = 3;
          kind = Checkpoint.Full;
          covered_seq = 9;
          next_seq = 10;
          stamp = 100;
          next_aru = 4;
          next_gid = 2;
          pending = [];
          free_order = [ 5; 6 ];
          prepared = [];
        }
      in
      let buf =
        Blk.of_bytes
          (Blk.to_bytes
             (Checkpoint.encode ~owner_active:(fun _ -> true) (fst t) (snd t) snap))
      in
      for _ = 1 to 1 + Rng.int rng 8 do
        let pos = Rng.int rng (Blk.length buf) in
        Blk.set_u8 buf pos (Rng.int rng 256)
      done;
      let blocks, lists = tables ~capacity:16 () in
      match Checkpoint.decode_into blocks lists buf with
      | _ -> true
      | exception Errors.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Cost model independence: semantics are identical under the free and
   the calibrated cost models. *)

let cost_independence_scenario seed =
  let run cost =
    let config = { Config.default with Config.cost } in
    let _, lld = fresh_lld ~config () in
    let rng = Rng.create ~seed in
    let actor = { aru = None; state = Model.empty (); rng = Rng.split rng } in
    for _ = 1 to 80 do
      ignore (actor_step lld actor)
    done;
    ( List.map
        (fun (l, _) ->
          List.map Types.Block_id.to_int
            (Lld.list_blocks lld (Types.List_id.of_int l)))
        actor.state.Model.lists,
      Lld.allocated_blocks lld )
  in
  run Lld_sim.Cost.sparc5_70 = run Lld_sim.Cost.free

let cost_independence =
  QCheck.Test.make ~name:"cost model never affects semantics" ~count:20
    QCheck.(int_range 0 10_000)
    cost_independence_scenario

(* ------------------------------------------------------------------ *)
(* Block_map vs a naive free-set model: the bitset-plus-hint allocator
   must behave exactly like "allocate the lowest free identifier",
   including the hint retreating on a release below it and a full
   drain / rebuild / refill cycle. *)

module Block_map = Lld_core.Block_map

let block_map_cap = 24

let block_map_scenario ops =
  let bm = Block_map.create ~capacity:block_map_cap in
  let held = Hashtbl.create 16 in
  let model_alloc () =
    let rec scan i =
      if i >= block_map_cap then None
      else if Hashtbl.mem held i then scan (i + 1)
      else Some i
    in
    scan 0
  in
  List.iter
    (fun op ->
      match op with
      | `Alloc ->
        let expect = model_alloc () in
        let got = Option.map Types.Block_id.to_int (Block_map.alloc_id bm) in
        if got <> expect then
          QCheck.Test.fail_reportf "alloc: map gave %s, model expects %s"
            (match got with Some i -> string_of_int i | None -> "none")
            (match expect with Some i -> string_of_int i | None -> "none");
        (match got with Some i -> Hashtbl.replace held i () | None -> ())
      | `Release i ->
        let i = i mod block_map_cap in
        (* releasing an already-free identifier is a no-op in both *)
        Block_map.release_id bm (Types.Block_id.of_int i);
        Hashtbl.remove held i)
    ops;
  if Block_map.allocated_count bm <> Hashtbl.length held then
    QCheck.Test.fail_reportf "allocated_count %d, model holds %d"
      (Block_map.allocated_count bm)
      (Hashtbl.length held);
  (* rebuild from the persistent flags (recovery path), then drain: the
     refill must hand out exactly the model's free set in ascending
     order and report exhaustion after.  Anchors are built on first
     touch, so the held ids are marked through [anchor] and every other
     anchor built so far is cleared through [iter]. *)
  Hashtbl.iter
    (fun i () ->
      (Block_map.anchor bm (Types.Block_id.of_int i)).Lld_core.Record.alloc <-
        true)
    held;
  Block_map.iter bm (fun r ->
      if not (Hashtbl.mem held (Types.Block_id.to_int r.Lld_core.Record.id))
      then r.Lld_core.Record.alloc <- false);
  Block_map.rebuild_free bm;
  let expected_free =
    List.filter
      (fun i -> not (Hashtbl.mem held i))
      (List.init block_map_cap Fun.id)
  in
  let drained =
    List.map
      (fun _ ->
        match Block_map.alloc_id bm with
        | Some b -> Types.Block_id.to_int b
        | None -> QCheck.Test.fail_report "exhausted before the model")
      expected_free
  in
  if drained <> expected_free then
    QCheck.Test.fail_reportf "drain order [%s], model free set [%s]"
      (String.concat ";" (List.map string_of_int drained))
      (String.concat ";" (List.map string_of_int expected_free));
  Block_map.alloc_id bm = None

let block_map_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, return `Alloc);
        (2, map (fun i -> `Release i) (int_range 0 (block_map_cap - 1)));
      ]
  in
  let print_op = function
    | `Alloc -> "alloc"
    | `Release i -> Printf.sprintf "release %d" i
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (list_size (int_range 0 120) op)

let block_map_model =
  QCheck.Test.make ~name:"Block_map allocates like the naive free-set model"
    ~count:300 block_map_ops block_map_scenario

(* The block map builds an anchor the first time its id is asked for.
   Against a model of the ids touched: [anchor] returns one physically
   equal record per id, [iter] visits exactly the anchored ids in
   ascending order (an out-of-range id raises and anchors nothing),
   [allocated_count] follows the free-set model, and [rebuild_free]
   counts every id whose anchor is unallocated or was never built as
   free. *)
let block_map_anchor_scenario ops =
  let bm = Block_map.create ~capacity:block_map_cap in
  let anchored = Hashtbl.create 16 in
  let held = Hashtbl.create 16 in
  let flagged = Hashtbl.create 16 in
  let anchor i =
    let r = Block_map.anchor bm (Types.Block_id.of_int i) in
    (match Hashtbl.find_opt anchored i with
    | Some first when first != r ->
      QCheck.Test.fail_reportf "anchor %d: a second record" i
    | Some _ -> ()
    | None -> Hashtbl.replace anchored i r);
    r
  in
  List.iter
    (function
      | `Anchor i when i >= block_map_cap -> (
        match Block_map.anchor bm (Types.Block_id.of_int i) with
        | _ -> QCheck.Test.fail_reportf "anchor %d: out of range accepted" i
        | exception Invalid_argument _ -> ())
      | `Anchor i -> ignore (anchor i)
      | `Flag i ->
        (anchor i).Lld_core.Record.alloc <- true;
        Hashtbl.replace flagged i ()
      | `Alloc -> (
        match Block_map.alloc_id bm with
        | Some b -> Hashtbl.replace held (Types.Block_id.to_int b) ()
        | None -> ())
      | `Release i ->
        Block_map.release_id bm (Types.Block_id.of_int i);
        Hashtbl.remove held i)
    ops;
  let visited = ref [] in
  Block_map.iter bm (fun r ->
      visited := Types.Block_id.to_int r.Lld_core.Record.id :: !visited);
  let visited = List.rev !visited in
  let expected =
    List.sort Int.compare (Hashtbl.fold (fun i _ acc -> i :: acc) anchored [])
  in
  if visited <> expected then
    QCheck.Test.fail_reportf "iter visited [%s], anchored [%s]"
      (String.concat ";" (List.map string_of_int visited))
      (String.concat ";" (List.map string_of_int expected));
  if Block_map.allocated_count bm <> Hashtbl.length held then
    QCheck.Test.fail_reportf "allocated_count %d, model holds %d"
      (Block_map.allocated_count bm)
      (Hashtbl.length held);
  Block_map.rebuild_free bm;
  let expected_free =
    List.filter
      (fun i -> not (Hashtbl.mem flagged i))
      (List.init block_map_cap Fun.id)
  in
  let drained =
    List.filter_map
      (fun _ -> Option.map Types.Block_id.to_int (Block_map.alloc_id bm))
      expected_free
  in
  if drained <> expected_free then
    QCheck.Test.fail_reportf "after rebuild drained [%s], free [%s]"
      (String.concat ";" (List.map string_of_int drained))
      (String.concat ";" (List.map string_of_int expected_free));
  Block_map.alloc_id bm = None

let block_map_anchor_ops =
  let open QCheck.Gen in
  let id = int_range 0 (block_map_cap - 1) in
  let op =
    frequency
      [
        (3, map (fun i -> `Anchor i) (int_range 0 (block_map_cap + 3)));
        (2, map (fun i -> `Flag i) id);
        (2, return `Alloc);
        (1, map (fun i -> `Release i) id);
      ]
  in
  let print_op = function
    | `Anchor i -> Printf.sprintf "anchor %d" i
    | `Flag i -> Printf.sprintf "flag %d" i
    | `Alloc -> "alloc"
    | `Release i -> Printf.sprintf "release %d" i
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    (list_size (int_range 0 80) op)

let block_map_anchors =
  QCheck.Test.make ~name:"Block_map builds each anchor once, on first touch"
    ~count:300 block_map_anchor_ops block_map_anchor_scenario

(* ------------------------------------------------------------------ *)
(* Sharded placement: the pure id-striping maps behind {!Shard} must be
   total (every identifier routes to exactly one shard and back),
   dense (the k-th global id landing on a shard is that shard's k-th
   local id — what lets each shard run its own lowest-free allocator
   unchanged), and balanced (round-robin striping keeps per-shard
   counts within one of each other). *)

module Shard = Lld_core.Shard

let placement_total =
  QCheck.Test.make ~name:"shard placement total: roundtrip and range"
    ~count:500
    QCheck.(pair (int_range 1 8) (int_range 0 10_000))
    (fun (shards, g) ->
      let bs = Shard.block_shard ~shards g in
      let bl = Shard.block_local ~shards g in
      let lg = g + 1 (* list ids are 1-based *) in
      let ls = Shard.list_shard ~shards lg in
      let ll = Shard.list_local ~shards lg in
      0 <= bs && bs < shards && 0 <= bl
      && Shard.block_global ~shards ~shard:bs bl = g
      && 0 <= ls && ls < shards && 1 <= ll
      && Shard.list_global ~shards ~shard:ls ll = lg)

let placement_dense =
  QCheck.Test.make
    ~name:"shard placement dense: locals enumerate 0..k-1 per shard"
    ~count:200
    QCheck.(pair (int_range 1 8) (int_range 1 500))
    (fun (shards, n) ->
      (* walking globals in order, each shard must see its locals in
         order 0,1,2,…  (lists: 1,2,3,…) with no gaps — the per-shard
         lowest-free-id allocator depends on it *)
      let next_b = Array.make shards 0 in
      let next_l = Array.make shards 1 in
      let ok = ref true in
      for g = 0 to n - 1 do
        let s = Shard.block_shard ~shards g in
        if Shard.block_local ~shards g <> next_b.(s) then ok := false;
        next_b.(s) <- next_b.(s) + 1
      done;
      for g = 1 to n do
        let s = Shard.list_shard ~shards g in
        if Shard.list_local ~shards g <> next_l.(s) then ok := false;
        next_l.(s) <- next_l.(s) + 1
      done;
      !ok)

let placement_balanced =
  QCheck.Test.make ~name:"shard placement balanced: max/min <= 2"
    ~count:200
    QCheck.(pair (int_range 1 8) (int_range 1 2_000))
    (fun (shards, n) ->
      QCheck.assume (n >= shards);
      let bc = Array.make shards 0 and lc = Array.make shards 0 in
      for g = 0 to n - 1 do
        bc.(Shard.block_shard ~shards g) <- bc.(Shard.block_shard ~shards g) + 1
      done;
      for g = 1 to n do
        lc.(Shard.list_shard ~shards g) <- lc.(Shard.list_shard ~shards g) + 1
      done;
      let spread c =
        let mx = Array.fold_left max 0 c
        and mn = Array.fold_left min max_int c in
        mn > 0 && mx <= 2 * mn
      in
      spread bc && spread lc)

(* The 2PC protocol as a pure state machine: a cross-shard ARU spanning
   P participants commits as [Shard] emits it — one Prepare seal per
   non-coordinator participant in ascending order, then the single
   Decide seal on the coordinator (the commit point), then lazy Decide
   records.  Recovery resolves each participant from its durable
   prefix: own Decide ⇒ committed; dangling Prepare ⇒ the union
   decision oracle over every shard's log, presumed abort when absent;
   nothing durable ⇒ no effects.  The property: at EVERY crash cut of
   that event order the resolved outcome is all-or-nothing — no cut
   exists where one participant applies the ARU and another drops
   it. *)
let two_pc_atomic =
  QCheck.Test.make
    ~name:"2PC resolution is all-or-nothing at every crash cut" ~count:500
    QCheck.(pair (int_range 2 6) (int_range 0 10_000))
    (fun (p, cut_seed) ->
      let parts = List.init p Fun.id in
      let coord = 0 (* Shard picks the lowest participant *) in
      let events =
        List.filter_map
          (fun s -> if s <> coord then Some (s, `Prepare) else None)
          parts
        @ [ (coord, `Decide) ]
        @ List.filter_map
            (fun s -> if s <> coord then Some (s, `Decide) else None)
            parts
      in
      let cut = cut_seed mod (List.length events + 1) in
      let durable = List.filteri (fun i _ -> i < cut) events in
      let oracle_commit = List.exists (fun (_, e) -> e = `Decide) durable in
      let applies s =
        let has e = List.mem (s, e) durable in
        if has `Decide then true
        else if has `Prepare then oracle_commit
        else false
      in
      let outcomes = List.map applies parts in
      (* all-or-nothing, and committed exactly when the coordinator's
         decision survived the cut *)
      (List.for_all Fun.id outcomes || List.for_all not outcomes)
      && List.for_all Fun.id outcomes = oracle_commit)

let () =
  Alcotest.run "lld_props"
    [
      ( "model",
        [
          QCheck_alcotest.to_alcotest model_equivalence;
          QCheck_alcotest.to_alcotest sequential_model;
          QCheck_alcotest.to_alcotest block_map_model;
          QCheck_alcotest.to_alcotest block_map_anchors;
        ] );
      ( "crash-fuzz",
        [
          QCheck_alcotest.to_alcotest atomicity_fuzz;
          QCheck_alcotest.to_alcotest accounting_fuzz;
        ] );
      ( "codecs",
        [
          QCheck_alcotest.to_alcotest entry_roundtrip;
          QCheck_alcotest.to_alcotest snapshot_roundtrip;
          QCheck_alcotest.to_alcotest delta_overlay;
        ] );
      ( "robustness",
        [
          QCheck_alcotest.to_alcotest segment_parse_total;
          QCheck_alcotest.to_alcotest summary_decode_total;
          QCheck_alcotest.to_alcotest checkpoint_decode_total;
        ] );
      ( "sharding",
        [
          QCheck_alcotest.to_alcotest placement_total;
          QCheck_alcotest.to_alcotest placement_dense;
          QCheck_alcotest.to_alcotest placement_balanced;
          QCheck_alcotest.to_alcotest two_pc_atomic;
        ] );
      ( "cost-model",
        [ QCheck_alcotest.to_alcotest cost_independence ] );
    ]
