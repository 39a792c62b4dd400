module Obs = Lld_obs.Obs
module Tr = Lld_obs.Trace

type report = {
  checkpoint_id : int;
  checkpoint_region : int;  (* region of the generation restored *)
  full_region : int;  (* region of the full base that generation rests on *)
  superblock_epoch : int;  (* newest valid superblock generation (0: none) *)
  covered_seq : int;
  segments_replayed : int;
  segments_skipped : int;
  replay_groups : int;
  parallel_replay : bool;
  invalid_segments : int;
  entries_applied : int;
  arus_committed : int;
  arus_discarded : int;
  entries_discarded : int;
  replay_skips : int;
  blocks_scavenged : int;
  lists_scavenged : int;
  disk_reads : int;
  prepares_committed : int;
  prepares_aborted : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>checkpoint %d (covers seq %d)@,\
     segments: %d replayed, %d skipped, %d invalid (%d disk reads)@,\
     entries applied %d (skipped %d)@,\
     ARUs: %d committed, %d discarded (%d entries)@,\
     prepares: %d committed, %d aborted@,\
     scavenged: %d blocks, %d lists@]"
    r.checkpoint_id r.covered_seq r.segments_replayed r.segments_skipped
    r.invalid_segments r.disk_reads r.entries_applied r.replay_skips r.arus_committed r.arus_discarded
    r.entries_discarded r.prepares_committed r.prepares_aborted
    r.blocks_scavenged r.lists_scavenged

type restored = {
  r_blocks : Block_map.t;
  r_lists : List_table.t;
  r_next_seq : int;
  r_stamp : int;
  r_next_aru : int;
  r_next_gid : int;
  r_report : report;
}

(* ------------------------------------------------------------------ *)
(* REDO replay of summary entries, shared by both logical disks: LLD's
   log tail ([recover] below) and Jld's journal replay.  It writes only
   the records its splice context reaches and what the storage effects
   touch, reads no clock and charges only the context's
   [on_pred_hop]. *)

type 'p effects = {
  on_alloc : Record.block -> unit;
  on_write : Record.block -> slot:int -> 'p -> unit;
  on_free : Record.block -> unit;
}

type 'p replay = {
  ctx : Splice.ctx;
  fx : 'p effects;
  buffers : (int, (Summary.op * 'p) list) Hashtbl.t; (* reverse order *)
  committed : (int, unit) Hashtbl.t;
  prepared : (int, int * int) Hashtbl.t; (* aru -> (gid, coordinator) *)
  mutable applied : int;
  mutable skips : int;
  mutable ncommitted : int;
  mutable max_stamp : int;
  mutable max_aru : int; (* 1 + highest ARU id an In_aru entry named *)
  mutable max_gid : int; (* 1 + highest 2PC transaction id seen *)
}

let replay ctx fx =
  {
    ctx;
    fx;
    buffers = Hashtbl.create 4;
    committed = Hashtbl.create 4;
    prepared = Hashtbl.create 4;
    applied = 0;
    skips = 0;
    ncommitted = 0;
    max_stamp = 0;
    max_aru = 0;
    max_gid = 1;
  }

let max_stamp st = st.max_stamp
let next_aru st = st.max_aru
let outcomes st = (st.applied, st.skips)

let note_stamp st stamp = if stamp > st.max_stamp then st.max_stamp <- stamp
let note_gid st gid = if gid >= st.max_gid then st.max_gid <- gid + 1

let count_outcome st = function
  | `Applied -> st.applied <- st.applied + 1
  | `Skipped -> st.skips <- st.skips + 1

(* A block allocated or deallocated anew: no list, no data yet. *)
let reset_block (r : Record.block) ~alloc ~stamp =
  r.Record.alloc <- alloc;
  r.Record.member_of <- None;
  r.Record.successor <- None;
  r.Record.phys <- None;
  r.Record.stamp <- stamp

(* Apply one data or list operation to the persistent state.  This
   function mirrors the committed-state semantics of the runtime exactly
   (see Splice).  Lld and Jld write commit records only on the [Simple]
   stream, so one found among an ARU's buffered entries is skipped. *)
let apply_data st payload op =
  match op with
  | Summary.Alloc { block; list = _; stamp } ->
    let r = st.ctx.Splice.get_block block in
    reset_block r ~alloc:true ~stamp;
    st.fx.on_alloc r;
    note_stamp st stamp;
    count_outcome st `Applied
  | Summary.Write { block; slot; stamp } ->
    let r = st.ctx.Splice.get_block block in
    if r.Record.alloc && stamp >= r.Record.stamp then begin
      st.fx.on_write r ~slot payload;
      r.Record.stamp <- stamp;
      count_outcome st `Applied
    end
    else count_outcome st `Skipped;
    note_stamp st stamp
  | Summary.Link { list; block; pred } ->
    count_outcome st (Splice.insert st.ctx ~list ~block ~pred)
  | Summary.Unlink { list; block } ->
    count_outcome st (Splice.unlink st.ctx ~list ~block)
  | Summary.New_list { list; stamp; owner } ->
    let r = st.ctx.Splice.get_list list in
    r.Record.exists <- true;
    r.Record.first <- None;
    r.Record.last <- None;
    r.Record.lstamp <- stamp;
    r.Record.l_owner <- owner;
    note_stamp st stamp;
    count_outcome st `Applied
  | Summary.Delete_list { list } ->
    let dealloc br =
      br.Record.phys <- None;
      st.fx.on_free br
    in
    count_outcome st (Splice.delete_list st.ctx ~list ~dealloc)
  | Summary.Dealloc { block; stamp } ->
    let r = st.ctx.Splice.get_block block in
    if r.Record.alloc then begin
      (* a block is deallocated together with its list membership; a
         Dealloc entry follows the Unlink (or stands alone for a block
         never linked) *)
      reset_block r ~alloc:false ~stamp;
      st.fx.on_free r;
      count_outcome st `Applied
    end
    else count_outcome st `Skipped;
    note_stamp st stamp
  | Summary.Commit _ | Summary.Commit_group _ | Summary.Prepare _
  | Summary.Decide _ ->
    count_outcome st `Skipped

let commit_aru st aru =
  let key = Types.Aru_id.to_int aru in
  let buffered = Option.value ~default:[] (Hashtbl.find_opt st.buffers key) in
  Hashtbl.remove st.buffers key;
  Hashtbl.replace st.committed key ();
  List.iter (fun (op, payload) -> apply_data st payload op) (List.rev buffered);
  st.ncommitted <- st.ncommitted + 1;
  count_outcome st `Applied

(* Apply one [Simple] entry: a commit record commits its ARUs' buffered
   entries, anything else applies at once. *)
let apply_op st payload op =
  match op with
  | Summary.Commit { aru } -> commit_aru st aru
  | Summary.Commit_group { arus } ->
    (* a batched commit record: one Commit per contained ARU, in list
       order — each ARU's buffered entries take effect independently *)
    List.iter (commit_aru st) arus
  | Summary.Prepare { aru; gid; coordinator } ->
    (* the ARU's buffered entries stay buffered: prepared is not
       committed.  The mark survives so [recover] can consult the
       coordinator's decision if no [Decide] follows in this log. *)
    note_gid st gid;
    Hashtbl.replace st.prepared (Types.Aru_id.to_int aru) (gid, coordinator);
    count_outcome st `Applied
  | Summary.Decide { aru; gid; committed } ->
    note_gid st gid;
    Hashtbl.remove st.prepared (Types.Aru_id.to_int aru);
    if committed then commit_aru st aru
    else begin
      Hashtbl.remove st.buffers (Types.Aru_id.to_int aru);
      count_outcome st `Applied
    end
  | ( Summary.Alloc _ | Summary.Write _ | Summary.Link _ | Summary.Unlink _
    | Summary.New_list _ | Summary.Delete_list _ | Summary.Dealloc _ ) as op ->
    apply_data st payload op

let replay_entry st payload (entry : Summary.t) =
  match entry.Summary.stream with
  | Summary.Simple -> apply_op st payload entry.Summary.op
  | Summary.In_aru a ->
    let key = Types.Aru_id.to_int a in
    if key >= st.max_aru then st.max_aru <- key + 1;
    let prev = Option.value ~default:[] (Hashtbl.find_opt st.buffers key) in
    Hashtbl.replace st.buffers key ((entry.Summary.op, payload) :: prev)

(* The consistency sweep (paper §3.3), once every record holds its
   final replay state.  A block allocated but on no list is the remains
   of an allocation inside an ARU that never committed, and is freed; so
   is a list such an ARU created and left empty.  Every owner mark goes:
   its ARU either committed or is dead, and a dead ARU's list that a
   later simple operation gave a member survives.  Returns the blocks
   and the lists freed. *)
let sweep_counts st blocks lists =
  let nblocks = ref 0 and nlists = ref 0 in
  Block_map.iter blocks (fun (r : Record.block) ->
      if r.Record.alloc && r.Record.member_of = None then begin
        r.Record.alloc <- false;
        r.Record.successor <- None;
        r.Record.phys <- None;
        st.fx.on_free r;
        incr nblocks
      end);
  List_table.iter lists (fun (r : Record.list_r) ->
      match r.Record.l_owner with
      | None -> ()
      | Some o ->
        r.Record.l_owner <- None;
        if
          (not (Hashtbl.mem st.committed (Types.Aru_id.to_int o)))
          && r.Record.exists && r.Record.first = None
        then begin
          r.Record.exists <- false;
          incr nlists
        end);
  (!nblocks, !nlists)

let sweep st blocks lists = ignore (sweep_counts st blocks lists)

(* ------------------------------------------------------------------ *)
(* LLD recovery.  An entry's payload is the disk segment whose summary
   held it: a written block's data lives at the entry's slot there. *)

let lld_effects =
  {
    on_alloc = ignore;
    on_write =
      (fun r ~slot seg -> r.Record.phys <- Some { Record.seg_index = seg; slot });
    on_free = ignore;
  }

let recover ?(obs = Obs.null) ?(sweep = true) ?(decisions = fun _ -> None) disk
    =
  (* Generational superblock gate: a formatted disk always carries at
     least one valid slot.  Both slots invalid while a checkpoint still
     parses (or vice versa) is media corruption of a formatted image —
     a typed error, distinct from the unformatted-disk [Corrupt]. *)
  let sb_epoch =
    match Superblock.best disk with
    | Some s -> s.Superblock.epoch
    | None -> 0
  in
  let best =
    Obs.timed obs Tr.Recovery "checkpoint_restore" @@ fun () ->
    match Checkpoint.read_best disk with
    | None ->
      if sb_epoch > 0 then
        raise (Errors.Corruption Errors.All_generations_corrupted)
      else Errors.corrupt "no valid checkpoint: disk not formatted"
    | Some b ->
      if sb_epoch = 0 then
        raise (Errors.Corruption Errors.All_generations_corrupted)
      else b
  in
  let snap = best.Checkpoint.best_snap in
  let blocks = best.Checkpoint.best_blocks in
  let lists = best.Checkpoint.best_lists in
  (* Find the log tail (Seglog.read_tail): read along the checkpoint's
     recorded free-segment order until the sequence numbers stop being
     contiguous.  A checkpoint written while the free queue was empty (a
     full disk) records no order; the tail is then found by scanning the
     whole partition.  Only this phase reads the log from disk — the
     replay after it is pure CPU. *)
  let { Seglog.segments; next_seq = tail_end; invalid; reads } =
    Obs.timed obs Tr.Recovery "replay" (fun () ->
        Seglog.read_tail disk ~order:snap.Checkpoint.free_order
          ~after:snap.Checkpoint.covered_seq)
  in
  let st = replay (Versions.anchor_ctx blocks lists) lld_effects in
  (* The checkpoint carries the entries of ARUs still open when it was
     taken, and their prepared marks: a Prepare record's segment may be
     covered (retired), so the mark would otherwise not be replayed.  A
     later Decide in the tail clears or commits it as usual. *)
  List.iter
    (fun (aru, pes) ->
      Hashtbl.replace st.buffers aru
        (List.rev_map
           (fun (pe : Checkpoint.pending_entry) -> (pe.pe_op, pe.pe_seg))
           pes))
    snap.Checkpoint.pending;
  List.iter
    (fun (aru, gid, coordinator) ->
      Hashtbl.replace st.prepared aru (gid, coordinator);
      note_gid st gid)
    snap.Checkpoint.prepared;
  Obs.timed obs Tr.Recovery "apply" (fun () ->
      List.iter (fun (seg, es) -> List.iter (replay_entry st seg) es) segments);
  (* Resolve dangling prepares: an ARU whose Prepare record survives
     with no Decide commits iff the coordinator shard logged a commit
     decision for its transaction — otherwise presumed abort (its
     buffered entries are then discarded below).  In ARU-id order, so
     the tallies are deterministic. *)
  let prepares_committed, prepares_aborted =
    Obs.timed obs Tr.Recovery "resolve_prepared" @@ fun () ->
    let dangling =
      Hashtbl.fold (fun aru (gid, _) acc -> (aru, gid) :: acc) st.prepared []
    in
    List.fold_left
      (fun (committed, aborted) (aru, gid) ->
        Hashtbl.remove st.prepared aru;
        match decisions gid with
        | Some true ->
          commit_aru st (Types.Aru_id.of_int aru);
          (committed + 1, aborted)
        | Some false | None -> (committed, aborted + 1))
      (0, 0)
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) dangling)
  in
  let entries_discarded =
    Hashtbl.fold (fun _ entries n -> n + List.length entries) st.buffers 0
  in
  let blocks_scavenged, lists_scavenged =
    Obs.timed obs Tr.Recovery "sweep" (fun () ->
        if sweep then sweep_counts st blocks lists else (0, 0))
  in
  Block_map.rebuild_free blocks;
  List_table.rebuild_free lists;
  let report =
    {
      checkpoint_id = snap.Checkpoint.ckpt_id;
      checkpoint_region = best.Checkpoint.best_region;
      full_region = best.Checkpoint.best_full_region;
      superblock_epoch = sb_epoch;
      covered_seq = snap.Checkpoint.covered_seq;
      segments_replayed = List.length segments;
      segments_skipped = snap.Checkpoint.covered_seq;
      replay_groups = 1;
      parallel_replay = false;
      invalid_segments = invalid;
      entries_applied = st.applied;
      arus_committed = st.ncommitted;
      arus_discarded = Hashtbl.length st.buffers;
      entries_discarded;
      replay_skips = st.skips;
      blocks_scavenged;
      lists_scavenged;
      disk_reads = reads;
      prepares_committed;
      prepares_aborted;
    }
  in
  {
    r_blocks = blocks;
    r_lists = lists;
    r_next_seq = max snap.Checkpoint.next_seq tail_end;
    r_stamp = max snap.Checkpoint.stamp st.max_stamp + 1;
    r_next_aru = max snap.Checkpoint.next_aru st.max_aru;
    r_next_gid = max snap.Checkpoint.next_gid st.max_gid;
    r_report = report;
  }
