module Disk = Lld_disk.Disk
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
     replay: %d groups%s@,\
     entries applied %d (skipped %d)@,\
     ARUs: %d committed, %d discarded (%d entries)@,\
     prepares: %d committed, %d aborted@,\
     scavenged: %d blocks, %d lists@]"
    r.checkpoint_id r.covered_seq r.segments_replayed r.segments_skipped
    r.invalid_segments r.disk_reads r.replay_groups
    (if r.parallel_replay then " (parallel)" else "")
    r.entries_applied r.replay_skips r.arus_committed r.arus_discarded
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
(* REDO replay of summary entries, shared by both logical disks: this
   module's group replay and Jld's journal replay.  It writes only the
   records its splice context reaches and what the storage effects
   touch, reads no clock and charges only the context's [on_pred_hop];
   over a context that charges nothing, replays of disjoint records may
   run on separate domains. *)

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

(* Apply one operation to the persistent state.  This function mirrors
   the committed-state semantics of the runtime exactly (see Splice). *)
let rec apply_op st payload op =
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
  | Summary.Commit { aru } -> commit_aru st aru
  | Summary.Commit_group { arus } ->
    (* a batched commit record: one Commit per contained ARU, in list
       order — each ARU's buffered entries take effect independently *)
    List.iter (commit_aru st) arus
  | Summary.Prepare { aru; gid; coordinator } ->
    (* the ARU's buffered entries stay buffered: prepared is not
       committed.  The mark survives so [finish] can consult the
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

and commit_aru st aru =
  let key = Types.Aru_id.to_int aru in
  let buffered = Option.value ~default:[] (Hashtbl.find_opt st.buffers key) in
  Hashtbl.remove st.buffers key;
  Hashtbl.replace st.committed key ();
  List.iter (fun (op, payload) -> apply_op st payload op) (List.rev buffered);
  st.ncommitted <- st.ncommitted + 1;
  count_outcome st `Applied

let replay_entry st payload (entry : Summary.t) =
  match entry.Summary.stream with
  | Summary.Simple -> apply_op st payload entry.Summary.op
  | Summary.In_aru a ->
    let key = Types.Aru_id.to_int a in
    if key >= st.max_aru then st.max_aru <- key + 1;
    let prev = Option.value ~default:[] (Hashtbl.find_opt st.buffers key) in
    Hashtbl.replace st.buffers key ((entry.Summary.op, payload) :: prev)

(* The consistency sweep's rule for one record (paper §3.3), taken once
   the record holds its final replay state.  A block allocated but on no
   list is the remains of an allocation inside an ARU that never
   committed, and is freed; so is a list such an ARU created and left
   empty.  Every owner mark goes: its ARU either committed or is dead,
   and a dead ARU's list that a later simple operation gave a member
   survives.  Each returns whether it freed the record. *)
let sweep_block fx (r : Record.block) =
  if r.Record.alloc && r.Record.member_of = None then begin
    r.Record.alloc <- false;
    r.Record.successor <- None;
    r.Record.phys <- None;
    fx.on_free r;
    true
  end
  else false

let sweep_list ~committed (r : Record.list_r) =
  match r.Record.l_owner with
  | None -> false
  | Some o ->
    r.Record.l_owner <- None;
    let dead = (not (committed o)) && r.Record.exists && r.Record.first = None in
    if dead then r.Record.exists <- false;
    dead

let sweep_tables fx ~committed blocks lists =
  let nblocks = ref 0 and nlists = ref 0 in
  Block_map.iter blocks (fun r -> if sweep_block fx r then incr nblocks);
  List_table.iter lists (fun r -> if sweep_list ~committed r then incr nlists);
  (!nblocks, !nlists)

let sweep st blocks lists =
  let committed o = Hashtbl.mem st.committed (Types.Aru_id.to_int o) in
  ignore (sweep_tables st.fx ~committed blocks lists)

(* ------------------------------------------------------------------ *)
(* Per-group replay.  Replay is partitioned by dependency: all entries
   naming the same logical block / list / ARU land in the same group, so
   groups touch disjoint sets of persistent records and can be applied
   on separate domains without synchronisation.  An entry's payload is
   the disk segment whose summary held it: a written block's data lives
   at the entry's slot there. *)

let lld_effects =
  {
    on_alloc = ignore;
    on_write =
      (fun r ~slot seg -> r.Record.phys <- Some { Record.seg_index = seg; slot });
    on_free = ignore;
  }

type group = {
  gr_entries : (int * Summary.t) array;  (* (disk segment, entry), log order *)
  gr_state : int replay;
  mutable gr_applied : bool;
}

(* ------------------------------------------------------------------ *)
(* Dependency partitioning: union-find over block / list / ARU nodes.
   Two entries end up in the same group iff a chain of shared
   identifiers connects them — including identifiers related only
   through checkpoint state (list membership, owner marks, pending ARU
   entries), so operations that walk a list chain (Unlink's predecessor
   search, Delete_list's full-chain deallocation) stay within their
   group. *)

module Uf = struct
  type t = { mutable parent : int array; mutable rank : int array; mutable n : int }

  let create () = { parent = Array.make 256 0; rank = Array.make 256 0; n = 0 }

  let fresh t =
    if t.n = Array.length t.parent then begin
      let parent = Array.make (2 * t.n) 0 and rank = Array.make (2 * t.n) 0 in
      Array.blit t.parent 0 parent 0 t.n;
      Array.blit t.rank 0 rank 0 t.n;
      t.parent <- parent;
      t.rank <- rank
    end;
    let i = t.n in
    t.parent.(i) <- i;
    t.n <- t.n + 1;
    i

  let rec find t i =
    let p = t.parent.(i) in
    if p = i then i
    else begin
      let root = find t p in
      t.parent.(i) <- root;
      root
    end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then
      if t.rank.(ra) < t.rank.(rb) then t.parent.(ra) <- rb
      else begin
        t.parent.(rb) <- ra;
        if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1
      end
end

type node_key = Nblock of int | Nlist of int | Naru of int

type partition = {
  uf : Uf.t;
  nodes : (node_key, int) Hashtbl.t;
  pa_blocks : Block_map.t;
  pa_lists : List_table.t;
}

(* The checkpoint edge above an identifier, read off its anchor: a
   block's list (membership), a list's ARU (owner mark).  These edges
   form a forest, block -> list -> ARU, so only the identifiers the tail
   names and their ancestors need nodes: an identifier the tail never
   names joins the tail's classes only through its parent.
   [List_table.find_anchor] creates no anchor for a list never seen. *)
let ckpt_parent p = function
  | Nblock b ->
    let b = Types.Block_id.of_int b in
    if not (Block_map.in_range p.pa_blocks b) then None
    else
      Option.map
        (fun l -> Nlist (Types.List_id.to_int l))
        (Block_map.anchor p.pa_blocks b).Record.member_of
  | Nlist l -> (
    match List_table.find_anchor p.pa_lists (Types.List_id.of_int l) with
    | Some { Record.l_owner = Some o; _ } -> Some (Naru (Types.Aru_id.to_int o))
    | Some _ | None -> None)
  | Naru _ -> None

(* A node joins its checkpoint parent when it is created.  Nodes are
   created only while [prepare] partitions, when every anchor still
   holds its restored checkpoint state. *)
let rec node p key =
  match Hashtbl.find_opt p.nodes key with
  | Some i -> i
  | None ->
    let i = Uf.fresh p.uf in
    Hashtbl.replace p.nodes key i;
    Option.iter (fun parent -> Uf.union p.uf i (node p parent)) (ckpt_parent p key);
    i

(* The node whose class an identifier belongs to: its own, or for an
   identifier the tail never names, the first ancestor's that has one.
   The climb reads the current anchors; a replay can only cut an
   unnamed identifier's edge (a deleted list drops its members) after
   applying the group the edge led to. *)
let rec find_node p key =
  match Hashtbl.find_opt p.nodes key with
  | Some _ as n -> n
  | None -> Option.bind (ckpt_parent p key) (find_node p)

(* All identifiers an operation names directly.  Chain walks (Unlink,
   Delete_list) reach blocks the entry does not name; those blocks are
   connected to the list through their own Link entries, or belong to
   its class through their checkpoint membership ([find_node] climbs
   it), so the walk stays within the list's group. *)
let op_nodes p = function
  | Summary.Alloc { block; list; _ } ->
    [ node p (Nblock (Types.Block_id.to_int block));
      node p (Nlist (Types.List_id.to_int list)) ]
  | Summary.Write { block; _ } | Summary.Dealloc { block; _ } ->
    [ node p (Nblock (Types.Block_id.to_int block)) ]
  | Summary.Link { list; block; pred } ->
    node p (Nlist (Types.List_id.to_int list))
    :: node p (Nblock (Types.Block_id.to_int block))
    ::
    (match pred with
    | Summary.Head -> []
    | Summary.After b -> [ node p (Nblock (Types.Block_id.to_int b)) ])
  | Summary.Unlink { list; block } ->
    [ node p (Nlist (Types.List_id.to_int list));
      node p (Nblock (Types.Block_id.to_int block)) ]
  | Summary.New_list { list; owner; _ } ->
    node p (Nlist (Types.List_id.to_int list))
    ::
    (match owner with
    | None -> []
    | Some a -> [ node p (Naru (Types.Aru_id.to_int a)) ])
  | Summary.Delete_list { list } ->
    [ node p (Nlist (Types.List_id.to_int list)) ]
  | Summary.Commit { aru } | Summary.Prepare { aru; _ } | Summary.Decide { aru; _ }
    ->
    [ node p (Naru (Types.Aru_id.to_int aru)) ]
  | Summary.Commit_group { arus } ->
    List.map (fun a -> node p (Naru (Types.Aru_id.to_int a))) arus

let union_all p = function
  | [] | [ _ ] -> ()
  | first :: rest -> List.iter (fun n -> Uf.union p.uf first n) rest

(* ------------------------------------------------------------------ *)
(* The lazy recovery handle: checkpoint restored and log tail scanned,
   replay organised into independent groups but not necessarily applied
   yet.  [touch_*] recovers one logical identifier on demand (early
   open); [finish] applies everything left, sweeps and reports. *)

type pending = {
  p_obs : Obs.t;
  p_sweep : bool;
  p_parallel : bool;
  p_decisions : int -> bool option;
      (* cross-shard decision lookup for dangling prepares (gid ->
         verdict); [None] everywhere for a standalone disk *)
  p_blocks : Block_map.t;
  p_lists : List_table.t;
  p_snap : Checkpoint.snapshot;  (* effective snapshot restored *)
  p_region : int;
  p_full_region : int;
  p_groups : group array;
  p_partition : partition;
  p_group_of_root : (int, int) Hashtbl.t;  (* UF root -> index in p_groups *)
  p_sb_epoch : int;
  p_next_seq : int;
  p_segments_replayed : int;
  p_invalid_segments : int;
  p_disk_reads : int;
  mutable p_blocks_scavenged : int;
  mutable p_lists_scavenged : int;
  mutable p_used_domains : bool;
  mutable p_finished : restored option;
}

let tables p = (p.p_blocks, p.p_lists)
let pending_groups p =
  Array.fold_left (fun acc g -> if g.gr_applied then acc else acc + 1) 0 p.p_groups

let group_of p key =
  match find_node p.p_partition key with
  | None -> None
  | Some n -> (
    match Hashtbl.find_opt p.p_group_of_root (Uf.find p.p_partition.uf n) with
    | None -> None
    | Some i -> Some p.p_groups.(i))

let apply_group g =
  if not g.gr_applied then begin
    g.gr_applied <- true;
    Array.iter (fun (seg, entry) -> replay_entry g.gr_state seg entry) g.gr_entries
  end

let aru_committed p o =
  match group_of p (Naru (Types.Aru_id.to_int o)) with
  | None -> false
  | Some g -> Hashtbl.mem g.gr_state.committed (Types.Aru_id.to_int o)

(* On-demand recovery of one identifier: its group is applied, so the
   record holds its final replay state, the sweep rule decides exactly
   as the global sweep would, and sweeping it again later is a no-op. *)
let touch p key ~what ~id =
  match group_of p key with
  | Some g when not g.gr_applied ->
    Obs.instant p.p_obs Tr.Recovery "on_demand" [ (what, Tr.I id) ];
    apply_group g
  | Some _ | None -> ()

let touch_block p b =
  if Block_map.in_range p.p_blocks b then begin
    let id = Types.Block_id.to_int b in
    touch p (Nblock id) ~what:"block" ~id;
    if p.p_sweep && sweep_block lld_effects (Block_map.anchor p.p_blocks b) then
      p.p_blocks_scavenged <- p.p_blocks_scavenged + 1
  end

let touch_list p l =
  let id = Types.List_id.to_int l in
  touch p (Nlist id) ~what:"list" ~id;
  if p.p_sweep then
    Option.iter
      (fun r ->
        if sweep_list ~committed:(aru_committed p) r then
          p.p_lists_scavenged <- p.p_lists_scavenged + 1)
      (List_table.find_anchor p.p_lists l)

(* ------------------------------------------------------------------ *)

let prepare ?(obs = Obs.null) ?(sweep = true) ?(parallel = true)
    ?(decisions = fun _ -> None) disk =
  let geom = Disk.geometry disk in
  (* Generational superblock gate: a formatted disk always carries at
     least one valid slot.  Both slots invalid while a checkpoint still
     parses (or vice versa) is media corruption of a formatted image —
     a typed error, distinct from the unformatted-disk [Corrupt]. *)
  let sb_epoch =
    match Superblock.best disk with
    | Some s -> s.Superblock.epoch
    | None -> 0
  in
  let best, blocks, lists =
    Obs.timed obs Tr.Recovery "checkpoint_restore" @@ fun () ->
    let best =
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
    let blocks = Block_map.create ~capacity:(Disk_layout.block_capacity geom) in
    let lists = List_table.create ~max_lists:(Disk_layout.max_lists geom) in
    Versions.restore best.Checkpoint.best_snap blocks lists;
    (best, blocks, lists)
  in
  let snap = best.Checkpoint.best_snap in
  (* Find the log tail (Seglog.read_tail): read along the checkpoint's
     recorded free-segment order until the sequence numbers stop being
     contiguous.  A checkpoint written while the free queue was empty (a
     full disk) records no order; the tail is then found by scanning the
     whole partition.  Only this phase reads the log from disk — the
     later apply is pure CPU. *)
  let { Seglog.segments; next_seq = tail_end; invalid; reads } =
    Obs.timed obs Tr.Recovery "replay" (fun () ->
        Seglog.read_tail disk ~order:snap.Checkpoint.free_order
          ~after:snap.Checkpoint.covered_seq)
  in
  let replayed = List.length segments in
  let entries =
    Array.of_list
      (List.concat_map
         (fun (seg, es) -> List.map (fun e -> (seg, e)) es)
         segments)
  in
  (* Partition the tail into dependency-independent groups. *)
  let partition, groups, group_of_root =
    Obs.span obs Tr.Recovery "partition" @@ fun () ->
    (* edges from checkpoint state (membership ties a block, and hence a
       whole chain, to its list; an owner mark ties a list to its ARU)
       join each node as [node] creates it *)
    let p =
      { uf = Uf.create (); nodes = Hashtbl.create 256; pa_blocks = blocks;
        pa_lists = lists }
    in
    (* edges from pending ARU entries carried by the checkpoint *)
    List.iter
      (fun (aru, pes) ->
        let a = node p (Naru aru) in
        List.iter
          (fun (pe : Checkpoint.pending_entry) ->
            union_all p (a :: op_nodes p pe.pe_op))
          pes)
      snap.Checkpoint.pending;
    (* edges from the tail entries themselves *)
    Array.iter
      (fun ((_, entry) : int * Summary.t) ->
        let ns = op_nodes p entry.Summary.op in
        let ns =
          match entry.Summary.stream with
          | Summary.Simple -> ns
          | Summary.In_aru a -> node p (Naru (Types.Aru_id.to_int a)) :: ns
        in
        union_all p ns)
      entries;
    (* bucket entries (and pending seeds) per group root, in log order *)
    let root_of_op entry =
      let ns =
        match entry.Summary.stream with
        | Summary.In_aru a -> [ node p (Naru (Types.Aru_id.to_int a)) ]
        | Summary.Simple -> op_nodes p entry.Summary.op
      in
      match ns with
      | n :: _ -> Uf.find p.uf n
      | [] -> assert false (* every op names at least one identifier *)
    in
    let group_of_root = Hashtbl.create 64 in
    let buckets : (int, (int * Summary.t) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let nbuckets = ref 0 in
    let bucket_index root =
      match Hashtbl.find_opt group_of_root root with
      | Some i -> i
      | None ->
        let i = !nbuckets in
        Hashtbl.replace group_of_root root i;
        Hashtbl.replace buckets i (ref []);
        incr nbuckets;
        i
    in
    let bucket i = Hashtbl.find buckets i in
    Array.iter
      (fun ((_, entry) as tagged) ->
        let b = bucket (bucket_index (root_of_op entry)) in
        b := tagged :: !b)
      entries;
    (* pending ARUs from the checkpoint get a group even when the tail
       holds none of their entries, so [finish] still discards them *)
    List.iter
      (fun (aru, _) -> ignore (bucket_index (Uf.find p.uf (node p (Naru aru)))))
      snap.Checkpoint.pending;
    (* same for prepared ARUs: a prepared transaction may have an empty
       buffer (its merge emitted nothing) yet still needs resolution *)
    List.iter
      (fun (aru, _, _) ->
        ignore (bucket_index (Uf.find p.uf (node p (Naru aru)))))
      snap.Checkpoint.prepared;
    (* one anchor context for every group: it charges nothing *)
    let ctx = Versions.anchor_ctx blocks lists in
    let groups =
      Array.init !nbuckets (fun i ->
          {
            gr_entries = Array.of_list (List.rev !(bucket i));
            gr_state = replay ctx lld_effects;
            gr_applied = false;
          })
    in
    let state_of aru =
      groups.(Hashtbl.find group_of_root (Uf.find p.uf (node p (Naru aru))))
        .gr_state
    in
    (* seed each group's buffers with its pending ARU entries *)
    List.iter
      (fun (aru, pes) ->
        Hashtbl.replace (state_of aru).buffers aru
          (List.rev_map
             (fun (pe : Checkpoint.pending_entry) -> (pe.pe_op, pe.pe_seg))
             pes))
      snap.Checkpoint.pending;
    (* seed prepared marks carried across the checkpoint: the Prepare
       record's segment may be covered (retired), so the mark would
       otherwise not be replayed.  A later Decide in the tail clears or
       commits it as usual. *)
    List.iter
      (fun (aru, gid, coordinator) ->
        let st = state_of aru in
        Hashtbl.replace st.prepared aru (gid, coordinator);
        note_gid st gid)
      snap.Checkpoint.prepared;
    (* every list named anywhere gets its anchor created now, on this
       thread: List_table.anchor allocates lazily and is not safe to
       call concurrently from domains *)
    Hashtbl.iter
      (fun key _ ->
        match key with
        | Nlist l -> ignore (List_table.anchor lists (Types.List_id.of_int l))
        | Nblock _ | Naru _ -> ())
      p.nodes;
    (p, groups, group_of_root)
  in
  {
    p_obs = obs;
    p_sweep = sweep;
    p_parallel = parallel;
    p_decisions = decisions;
    p_blocks = blocks;
    p_lists = lists;
    p_snap = snap;
    p_region = best.Checkpoint.best_region;
    p_full_region = best.Checkpoint.best_full_region;
    p_groups = groups;
    p_partition = partition;
    p_group_of_root = group_of_root;
    p_sb_epoch = sb_epoch;
    p_next_seq = max snap.Checkpoint.next_seq tail_end;
    p_segments_replayed = replayed;
    p_invalid_segments = invalid;
    p_disk_reads = reads;
    p_blocks_scavenged = 0;
    p_lists_scavenged = 0;
    p_used_domains = false;
    p_finished = None;
  }

let base_report p =
  {
    checkpoint_id = p.p_snap.Checkpoint.ckpt_id;
    checkpoint_region = p.p_region;
    full_region = p.p_full_region;
    superblock_epoch = p.p_sb_epoch;
    covered_seq = p.p_snap.Checkpoint.covered_seq;
    segments_replayed = p.p_segments_replayed;
    segments_skipped = p.p_snap.Checkpoint.covered_seq;
    replay_groups = Array.length p.p_groups;
    parallel_replay = p.p_used_domains;
    invalid_segments = p.p_invalid_segments;
    entries_applied = 0;
    arus_committed = 0;
    arus_discarded = 0;
    entries_discarded = 0;
    replay_skips = 0;
    blocks_scavenged = 0;
    lists_scavenged = 0;
    disk_reads = p.p_disk_reads;
    prepares_committed = 0;
    prepares_aborted = 0;
  }

let preliminary_report = base_report

(* Apply every not-yet-applied group.  Groups touch disjoint records by
   construction and the apply phase never reads the disk or the clock,
   so running them on domains is invisible to both the recovered state
   and the cost model. *)
let apply_remaining p =
  let remaining = ref [] in
  Array.iteri
    (fun i g -> if not g.gr_applied then remaining := (i, g) :: !remaining)
    p.p_groups;
  let remaining = List.rev !remaining in
  let n = List.length remaining in
  if n = 0 then ()
  else if (not p.p_parallel) || n < 2 then
    List.iter (fun (_, g) -> apply_group g) remaining
  else begin
    let ndomains = min 4 (min n (Domain.recommended_domain_count ())) in
    if ndomains < 2 then List.iter (fun (_, g) -> apply_group g) remaining
    else begin
      p.p_used_domains <- true;
      let shard d =
        List.filteri (fun i _ -> i mod ndomains = d) remaining
      in
      let worker d () =
        List.fold_left
          (fun first_exn (i, g) ->
            match apply_group g with
            | () -> first_exn
            | exception e when first_exn = None -> Some (i, e)
            | exception _ -> first_exn)
          None (shard d)
      in
      let handles =
        List.init (ndomains - 1) (fun d -> Domain.spawn (worker (d + 1)))
      in
      let results = worker 0 () :: List.map Domain.join handles in
      (* deterministic failure choice: lowest group index wins, matching
         where a sequential left-to-right apply would have stopped *)
      match
        List.fold_left
          (fun acc r ->
            match (acc, r) with
            | None, r -> r
            | Some _, None -> acc
            | Some (i, _), Some (j, _) -> if j < i then r else acc)
          None results
      with
      | None -> ()
      | Some (_, e) -> raise e
    end
  end

let finish p =
  match p.p_finished with
  | Some r -> r
  | None ->
    Obs.timed p.p_obs Tr.Recovery "apply" (fun () -> apply_remaining p);
    (* resolve dangling prepares: an ARU whose Prepare record survives
       with no Decide commits iff the coordinator shard logged a commit
       decision for its transaction — otherwise presumed abort (the
       buffered entries then fall through to the dangling-ARU discard
       below).  Sorted by ARU id for deterministic tallies. *)
    let resolved_commit = ref 0 and resolved_abort = ref 0 in
    (Obs.timed p.p_obs Tr.Recovery "resolve_prepared" @@ fun () ->
     let dangling = ref [] in
     Array.iter
       (fun g ->
         Hashtbl.iter
           (fun aru (gid, _coord) -> dangling := (aru, gid, g.gr_state) :: !dangling)
           g.gr_state.prepared)
       p.p_groups;
     List.iter
       (fun (aru, gid, st) ->
         Hashtbl.remove st.prepared aru;
         match p.p_decisions gid with
         | Some true ->
           commit_aru st (Types.Aru_id.of_int aru);
           incr resolved_commit
         | Some false | None -> incr resolved_abort)
       (List.sort
          (fun (a, _, _) (b, _, _) -> Int.compare a b)
          !dangling));
    (* merge the per-group tallies, in group order (deterministic) *)
    let applied = ref 0
    and skips = ref 0
    and committed = ref 0
    and max_stamp = ref p.p_snap.Checkpoint.stamp
    and max_aru = ref p.p_snap.Checkpoint.next_aru
    and max_gid = ref p.p_snap.Checkpoint.next_gid
    and discarded_arus = ref 0
    and discarded_entries = ref 0 in
    Array.iter
      (fun g ->
        let st = g.gr_state in
        applied := !applied + st.applied;
        skips := !skips + st.skips;
        committed := !committed + st.ncommitted;
        if st.max_stamp > !max_stamp then max_stamp := st.max_stamp;
        if st.max_aru > !max_aru then max_aru := st.max_aru;
        if st.max_gid > !max_gid then max_gid := st.max_gid;
        Hashtbl.iter
          (fun _ entries ->
            incr discarded_arus;
            discarded_entries := !discarded_entries + List.length entries)
          st.buffers)
      p.p_groups;
    (* global consistency sweep: identifiers already swept on demand are
       no-ops here, so the totals match an eager recovery exactly *)
    (Obs.timed p.p_obs Tr.Recovery "sweep" @@ fun () ->
     if p.p_sweep then begin
       let blocks, lists =
         sweep_tables lld_effects ~committed:(aru_committed p) p.p_blocks
           p.p_lists
       in
       p.p_blocks_scavenged <- p.p_blocks_scavenged + blocks;
       p.p_lists_scavenged <- p.p_lists_scavenged + lists
     end);
    Block_map.rebuild_free p.p_blocks;
    List_table.rebuild_free p.p_lists;
    let report =
      {
        (base_report p) with
        parallel_replay = p.p_used_domains;
        entries_applied = !applied;
        arus_committed = !committed;
        arus_discarded = !discarded_arus;
        entries_discarded = !discarded_entries;
        replay_skips = !skips;
        blocks_scavenged = p.p_blocks_scavenged;
        lists_scavenged = p.p_lists_scavenged;
        prepares_committed = !resolved_commit;
        prepares_aborted = !resolved_abort;
      }
    in
    let restored =
      {
        r_blocks = p.p_blocks;
        r_lists = p.p_lists;
        r_next_seq = p.p_next_seq;
        r_stamp = !max_stamp + 1;
        r_next_aru = !max_aru;
        r_next_gid = !max_gid;
        r_report = report;
      }
    in
    p.p_finished <- Some restored;
    restored
