module Clock = Lld_sim.Clock
module Cost = Lld_sim.Cost
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Blk = Lld_util.Blk
module Arena = Lld_util.Arena
module Obs = Lld_obs.Obs
module Tr = Lld_obs.Trace

(* An ARU sitting between its [Prepare] and [Decide] records under
   two-phase commit: the merge already ran, but the collected records
   must stay at durable_seq = max_int (never promoted) until the
   transaction's decision stamps them. *)
type prepared_commit = {
  pc_gid : int;
  pc_coordinator : int;
  pc_seq : int; (* seq of the segment holding the Prepare + merge *)
  pc_blocks : Record.block list ref;
  pc_lists : Record.list_r list ref;
}

type t = {
  config : Config.t;
  disk : Disk.t;
  geom : Geometry.t;
  clock : Clock.t;
  log : Seglog.t;
  v : Versions.t; (* the tables, the active ARUs and the views over them *)
  ops : Ld_ops.t; (* the LD operation bodies, over [v], through [sink] *)
  mutable committed_blocks : Record.block option;
  mutable committed_lists : Record.list_r option;
  mutable next_gid : int;
  (* cross-shard transaction-id watermark (persisted in checkpoints so
     gids stay unique across incarnations) *)
  prepared_commits : (int, prepared_commit) Hashtbl.t;
  (* ARUs prepared under two-phase commit and not yet decided *)
  mutable seq_aru : Aru.t option; (* sequential mode's single open ARU *)
  victim_flag : bool array; (* per disk segment: picked in current batch *)
  live : Live_index.t; (* seg -> persistent block slots referenced *)
  arena : Arena.t; (* block-sized slots backing shadow data versions *)
  sb_slots : Superblock.slot option array;
  (* in-memory mirror of the two superblock generations, the scrubber's
     repair source for a rotted slot *)
  counters : Counters.t;
  mutable ckpt_id : int;
  mutable full_region : int; (* region holding the newest durable full *)
  mutable full_ckpt_id : int; (* its ckpt_id; 0 = no full written yet *)
  dirty_blocks : (int, unit) Hashtbl.t; (* anchors touched since last full *)
  dirty_lists : (int, unit) Hashtbl.t;
  mutable sealed_since_ckpt : int;
  pending : (int, Checkpoint.pending_entry list) Hashtbl.t;
  (* reversed emission order; mirrors recovery's per-ARU buffers *)
  commit_q : int Queue.t;
  (* group commit: ARUs whose commit intent is queued, FIFO *)
  commit_enq_ns : (int, int) Hashtbl.t;
  (* per queued ARU: virtual enqueue time; its keys are exactly the
     members of [commit_q], and the head's entry starts the window *)
  mutable in_cleaning : bool;
  mutable in_checkpoint : bool;
  mutable warming : Recovery.restored option;
  (* early open: the tables are recovered, but the live index, the free
     queue and the post-recovery checkpoint wait for the first mutating
     operation *)
  mutable obs : Obs.t; (* observability handle; Obs.null = every probe a no-op *)
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let cost t = t.config.Config.cost
let cpu t ns = Clock.charge t.clock Clock.Cpu ns
let concurrent t = t.config.Config.mode = Config.Concurrent

let block_bytes t = t.geom.Geometry.block_bytes
let bps t = Geometry.blocks_per_segment t.geom
let counters t = t.counters
let clock t = t.clock
let config t = t.config
let cost_model t = t.config.Config.cost
let disk t = t.disk
let capacity t = Block_map.capacity t.v.Versions.blocks
let allocated_blocks t = Block_map.allocated_count t.v.Versions.blocks
let free_segments t = Seglog.free_count t.log

(* Dirty tracking for incremental checkpoints: every site that mutates a
   persistent anchor — or hands out a committed record that will be
   promoted into one — marks the identifier.  Over-marking only enlarges
   the next delta, never breaks it; the sets are cleared when a full
   checkpoint commits. *)
let dirty_block t b = Hashtbl.replace t.dirty_blocks (Types.Block_id.to_int b) ()
let dirty_list t l = Hashtbl.replace t.dirty_lists (Types.List_id.to_int l) ()

let dirty_count t =
  Hashtbl.length t.dirty_blocks + Hashtbl.length t.dirty_lists

(* Copy accounting for the zero-copy data path: [copied] tallies bytes
   physically duplicated (compat-wrapper conversions, the shadow-write
   arena copy), [elide] marks a spot where the pre-view implementation
   copied and this one hands out an O(1) view instead. *)
let copied t n = t.counters.Counters.bytes_copied <- t.counters.Counters.bytes_copied + n

let elide t =
  t.counters.Counters.copy_elisions <- t.counters.Counters.copy_elisions + 1

(* Arena-backed ownership of a record's in-memory data version: the
   record owns its slot until [drop_data] recycles it.  [set_data]
   copies, because the caller's view stays the caller's. *)
let set_data t (r : Record.block) v =
  (match r.Record.data with
  | Some old -> Arena.free t.arena old
  | None -> ());
  let slot = Arena.alloc t.arena in
  Blk.blit v 0 slot 0 (Blk.length v);
  copied t (Blk.length v);
  r.Record.data <- Some slot

let drop_data t (r : Record.block) =
  match r.Record.data with
  | Some old ->
    Arena.free t.arena old;
    r.Record.data <- None
  | None -> ()

(* Live-index maintenance: every persistent-anchor [phys] change goes
   through one of these, keeping [t.live] an exact reverse map. *)
let live_count t seg = Live_index.live t.live seg

let live_add t seg b =
  t.counters.Counters.live_index_updates <-
    t.counters.Counters.live_index_updates + 1;
  Live_index.add t.live ~seg ~block:(Types.Block_id.to_int b)

let live_remove t b =
  t.counters.Counters.live_index_updates <-
    t.counters.Counters.live_index_updates + 1;
  Live_index.remove t.live ~block:(Types.Block_id.to_int b)

(* Durability bookkeeping for committed records touched by simple
   operations: the record may be promoted once the given segment is on
   disk.  A fresh alternative record carries [max_int] ("not yet
   determined"), which the first note replaces. *)
let set_durable_block (r : Record.block) seq =
  r.Record.durable_seq <-
    (if r.Record.durable_seq = max_int then seq else max r.Record.durable_seq seq)

let set_durable_list (r : Record.list_r) seq =
  r.Record.l_durable_seq <-
    (if r.Record.l_durable_seq = max_int then seq
     else max r.Record.l_durable_seq seq)

(* ------------------------------------------------------------------ *)
(* Emitting summary entries                                            *)

(* An ARU's entries also wait in [pending] until its commit record, so a
   checkpoint can carry them. *)
let pending_push t stream op seg =
  match stream with
  | Summary.In_aru aru ->
    let key = Types.Aru_id.to_int aru in
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.pending key) in
    Hashtbl.replace t.pending key ({ Checkpoint.pe_op = op; pe_seg = seg } :: prev)
  | Summary.Simple -> ()

let emit_entry t ~stream op =
  let seq, seg = Seglog.emit_entry t.log { Summary.stream; op } in
  pending_push t stream op seg;
  seq

let emit_write t ?charge_copy ~allow_cross_scope ~stream ~block ~data ~stamp () =
  let seq, phys =
    Seglog.emit_write t.log ?charge_copy ~allow_cross_scope ~stream ~block ~data
      ~stamp ()
  in
  pending_push t stream
    (Summary.Write { block; slot = phys.Record.slot; stamp })
    phys.Record.seg_index;
  (seq, phys)

(* ------------------------------------------------------------------ *)
(* Committed records                                                   *)

(* The committed record a mutation writes: found on the same-id chain,
   or created there and pushed onto the committed same-state chain that
   promotion walks.  In sequential mode the anchor is the single
   authoritative record. *)
let committed_get t b =
  dirty_block t b;
  let anchor = Block_map.anchor t.v.Versions.blocks b in
  if not (concurrent t) then anchor
  else begin
    let r, hops = Record.find_block ~anchor Record.Committed in
    Versions.hops_charge t.v hops;
    match r with
    | Some r -> r
    | None ->
      let alt = Record.alt_block Record.Committed ~from:anchor in
      Record.insert_alt_block ~anchor alt;
      alt.Record.next_same_state <- t.committed_blocks;
      t.committed_blocks <- Some alt;
      Versions.record_created t.v;
      alt
  end

let committed_get_list t l =
  dirty_list t l;
  let anchor = List_table.anchor t.v.Versions.lists l in
  if not (concurrent t) then anchor
  else begin
    let r, hops = Record.find_list ~anchor Record.Committed in
    Versions.hops_charge t.v hops;
    match r with
    | Some r -> r
    | None ->
      let alt = Record.alt_list Record.Committed ~from:anchor in
      Record.insert_alt_list ~anchor alt;
      alt.Record.l_next_same_state <- t.committed_lists;
      t.committed_lists <- Some alt;
      Versions.record_created t.v;
      alt
  end

(* ------------------------------------------------------------------ *)
(* The storage sink of the LD operations, and splice contexts          *)

(* A committed data write of a simple operation: zero-copy into the
   open segment ([put_block] blits the caller's view straight into the
   slot), then the committed record points at it. *)
let write_committed t stream block data ~stamp =
  elide t;
  let seq, phys =
    emit_write t ~allow_cross_scope:(stream = Summary.Simple) ~stream ~block
      ~data ~stamp ()
  in
  let r = committed_get t block in
  if not (concurrent t) then live_add t phys.Record.seg_index block
  else set_durable_block r seq;
  r.Record.phys <- Some phys;
  drop_data t r;
  r.Record.stamp <- stamp

(* The LD operations' storage effects, for the handle [self] is about to
   become.  A simple operation's committed records may be promoted once
   the segment holding its entry is on disk; the sequential prototype
   updates its anchors, so nothing waits and a freed block leaves the
   live index at once. *)
let sink ~config v (self : t Lazy.t) =
  let concurrent = config.Config.mode = Config.Concurrent in
  let t () = Lazy.force self in
  {
    Ld_ops.committed_block = (fun b -> committed_get (t ()) b);
    committed_list = (fun l -> committed_get_list (t ()) l);
    committed_ctx =
      {
        Splice.peek_block = (fun b -> Versions.committed_peek v b);
        get_block =
          (fun b ->
            let t = t () in
            let r = committed_get t b in
            if concurrent then set_durable_block r (Seglog.current_seq t.log);
            r);
        peek_list = (fun l -> Versions.committed_peek_list v l);
        get_list =
          (fun l ->
            let t = t () in
            let r = committed_get_list t l in
            if concurrent then set_durable_list r (Seglog.current_seq t.log);
            r);
        on_pred_hop = Versions.pred_hop v;
      };
    log =
      (fun stream op durable ->
        let seq = emit_entry (t ()) ~stream op in
        if concurrent then
          match durable with
          | Ld_ops.Block r -> set_durable_block r seq
          | Ld_ops.List r -> set_durable_list r seq
          | Ld_ops.No_record -> ());
    write_data =
      (fun stream b data ~stamp -> write_committed (t ()) stream b data ~stamp);
    forget =
      (fun r ->
        let t = t () in
        (if not concurrent then
           match r.Record.phys with
           | Some _ -> live_remove t r.Record.id
           | None -> ());
        drop_data t r);
    allocated = (fun r -> drop_data (t ()) r);
    hold_data =
      (fun r data ->
        (* the one unavoidable copy: the shadow version must outlive the
           caller's buffer, so it moves into an arena slot *)
        set_data (t ()) r data);
    drop_data = (fun r -> drop_data (t ()) r);
  }

(* Splice context over the committed state during commit replay: every
   touched record is collected so EndARU can stamp it with the commit
   record's segment. *)
let commit_ctx t collected_b collected_l =
  {
    Splice.peek_block = (fun b -> Versions.committed_peek t.v b);
    get_block =
      (fun b ->
        let r = committed_get t b in
        r.Record.durable_seq <- max_int;
        collected_b := r :: !collected_b;
        r);
    peek_list = (fun l -> Versions.committed_peek_list t.v l);
    get_list =
      (fun l ->
        let r = committed_get_list t l in
        r.Record.l_durable_seq <- max_int;
        collected_l := r :: !collected_l;
        r);
    on_pred_hop = Versions.pred_hop t.v;
  }

(* ------------------------------------------------------------------ *)
(* Promotion and checkpoints                                           *)

(* Promote committed records whose durability requirement is met:
   the committed -> persistent transition (paper §3.1). *)
let promote_upto t upto_seq =
  let c = cost t in
  let promote_block (r : Record.block) =
    dirty_block t r.Record.id;
    let anchor = Block_map.anchor t.v.Versions.blocks r.Record.id in
    (match anchor.Record.phys with
    | Some _ -> live_remove t r.Record.id
    | None -> ());
    if r.Record.alloc then begin
      anchor.Record.alloc <- true;
      anchor.Record.member_of <- r.Record.member_of;
      anchor.Record.successor <- r.Record.successor;
      anchor.Record.phys <- r.Record.phys;
      (match r.Record.phys with
      | Some p -> live_add t p.Record.seg_index r.Record.id
      | None -> ());
      anchor.Record.stamp <- r.Record.stamp;
      anchor.Record.alloc_owner <- r.Record.alloc_owner
    end
    else begin
      anchor.Record.alloc <- false;
      anchor.Record.member_of <- None;
      anchor.Record.successor <- None;
      anchor.Record.phys <- None;
      anchor.Record.stamp <- r.Record.stamp;
      anchor.Record.alloc_owner <- None
    end;
    Record.remove_alt_block ~anchor r;
    t.counters.Counters.record_transitions <-
      t.counters.Counters.record_transitions + 1;
    cpu t c.Cost.record_transition_ns
  in
  let promote_list (r : Record.list_r) =
    dirty_list t r.Record.lid;
    let anchor = List_table.anchor t.v.Versions.lists r.Record.lid in
    anchor.Record.exists <- r.Record.exists;
    anchor.Record.first <- r.Record.first;
    anchor.Record.last <- r.Record.last;
    anchor.Record.lstamp <- r.Record.lstamp;
    anchor.Record.l_owner <- (if r.Record.exists then r.Record.l_owner else None);
    Record.remove_alt_list ~anchor r;
    t.counters.Counters.record_transitions <-
      t.counters.Counters.record_transitions + 1;
    cpu t c.Cost.record_transition_ns
  in
  let rec filter_blocks node =
    match node with
    | None -> None
    | Some (r : Record.block) ->
      let rest = filter_blocks r.Record.next_same_state in
      if r.Record.durable_seq <= upto_seq then begin
        promote_block r;
        r.Record.next_same_state <- None;
        rest
      end
      else begin
        r.Record.next_same_state <- rest;
        Some r
      end
  in
  let rec filter_lists node =
    match node with
    | None -> None
    | Some (r : Record.list_r) ->
      let rest = filter_lists r.Record.l_next_same_state in
      if r.Record.l_durable_seq <= upto_seq then begin
        promote_list r;
        r.Record.l_next_same_state <- None;
        rest
      end
      else begin
        r.Record.l_next_same_state <- rest;
        Some r
      end
  in
  t.committed_blocks <- filter_blocks t.committed_blocks;
  t.committed_lists <- filter_lists t.committed_lists

(* Write a checkpoint of the persistent state (plus pending ARU
   entries); see Checkpoint.  A periodic checkpoint is an incremental
   delta (the anchors dirtied since the last full, plus tombstones)
   while the dirty set stays small; [force_full] — mkfs, recovery, and
   cleaning — writes the complete image.  Cleaning MUST force a full:
   its reclaimed segments join the free queue right afterwards, and if a
   later torn delta made recovery fall back to an older full, segments
   reused in between would tear a hole in that full's sequence walk.

   Region discipline: every checkpoint (either kind) targets the region
   NOT holding the newest durable full, so a torn write can never
   destroy the fallback generation.  A completed full takes that region
   over; deltas are cumulative against the full and keep overwriting the
   same region. *)
let checkpoint_internal ?(extra_free = []) ?(force_full = false) t =
  t.in_checkpoint <- true;
  Fun.protect ~finally:(fun () -> t.in_checkpoint <- false) @@ fun () ->
  let delta =
    (not force_full) && t.full_ckpt_id > 0
    && t.config.Config.checkpoint_dirty_threshold > 0
    && dirty_count t <= t.config.Config.checkpoint_dirty_threshold
  in
  let target = 1 - t.full_region in
  Obs.timed t.obs Tr.Checkpoint "write"
    ~args:
      [
        ("ckpt_id", Tr.I (t.ckpt_id + 1));
        ("region", Tr.I target);
        ("delta", Tr.I (if delta then 1 else 0));
        ("dirty", Tr.I (dirty_count t));
      ]
  @@ fun () ->
  Seglog.seal t.log;
  let pending =
    Hashtbl.fold (fun aru rev acc -> (aru, List.rev rev) :: acc) t.pending []
  in
  let sorted tbl =
    List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
  in
  t.ckpt_id <- t.ckpt_id + 1;
  let snap =
    {
      Checkpoint.ckpt_id = t.ckpt_id;
      kind =
        (if delta then
           Checkpoint.Delta
             {
               base_id = t.full_ckpt_id;
               blocks = sorted t.dirty_blocks;
               lists = sorted t.dirty_lists;
             }
         else Checkpoint.Full);
      covered_seq = Seglog.next_seq t.log - 1;
      next_seq = Seglog.next_seq t.log;
      stamp = t.ops.Ld_ops.stamp;
      next_aru = t.ops.Ld_ops.next_aru;
      next_gid = t.next_gid;
      pending;
      free_order = Seglog.free_order t.log @ extra_free;
      prepared =
        List.sort
          (fun (a, _, _) (b, _, _) -> Int.compare a b)
          (Hashtbl.fold
             (fun aru pc acc -> (aru, pc.pc_gid, pc.pc_coordinator) :: acc)
             t.prepared_commits []);
    }
  in
  Checkpoint.write t.disk ~region:target
    ~owner_active:(Versions.owner_active t.v)
    t.v.Versions.blocks t.v.Versions.lists snap;
  (* advance the generational superblock: epoch = ckpt_id, so parity
     alternates and the previous generation's slot survives a torn
     write of this one *)
  let sb = { Superblock.epoch = t.ckpt_id; region = target } in
  Superblock.write_slot t.disk sb;
  t.sb_slots.(Superblock.slot_for ~epoch:t.ckpt_id) <- Some sb;
  if not delta then begin
    t.full_region <- target;
    t.full_ckpt_id <- t.ckpt_id;
    Hashtbl.reset t.dirty_blocks;
    Hashtbl.reset t.dirty_lists
  end;
  t.sealed_since_ckpt <- 0;
  t.counters.Counters.checkpoints <- t.counters.Counters.checkpoints + 1

let maybe_auto_checkpoint t =
  let interval = t.config.Config.checkpoint_interval_segments in
  if
    interval > 0
    && t.sealed_since_ckpt >= interval
    && (not t.in_checkpoint) && (not t.in_cleaning)
    && t.seq_aru = None
  then checkpoint_internal t

(* Seglog's hook after every seal: the segment is durable, so records
   waiting on it are promoted, then the periodic checkpoint runs if due. *)
let after_seal t seq =
  t.sealed_since_ckpt <- t.sealed_since_ckpt + 1;
  promote_upto t seq;
  maybe_auto_checkpoint t

let flush_log t =
  t.counters.Counters.flushes <- t.counters.Counters.flushes + 1;
  Seglog.seal t.log

(* Segments emptied by the cleaner or the scrubber rejoin the free queue
   right after a checkpoint whose free order already lists them, in the
   order they will be reused; forced full so no earlier generation
   recovery could fall back to predates their reuse. *)
let retire t idxs =
  checkpoint_internal t ~extra_free:idxs ~force_full:true;
  Seglog.retire t.log idxs

(* Rewrite one live block through the ordinary log path, preserving its
   stamp so replay ordering is untouched (cleaner and scrub). *)
let relocate_block t bid (anchor : Record.block) data =
  let seq, phys =
    emit_write t ~allow_cross_scope:true ~stream:Summary.Simple ~block:bid
      ~data ~stamp:anchor.Record.stamp ()
  in
  if concurrent t then begin
    let r = committed_get t bid in
    r.Record.phys <- Some phys;
    r.Record.stamp <- anchor.Record.stamp;
    set_durable_block r seq
  end
  else begin
    live_add t phys.Record.seg_index bid;
    anchor.Record.phys <- Some phys;
    dirty_block t bid
  end

(* Visit segment [seg]'s live blocks with their anchor and slot.  The
   walk runs over a snapshot of the live index: relocation can seal and
   promote, mutating anchors mid-walk, so each anchor is re-checked
   against [seg] at visit time. *)
let iter_live t seg f =
  List.iter
    (fun bi ->
      let bid = Types.Block_id.of_int bi in
      let anchor = Block_map.anchor t.v.Versions.blocks bid in
      match anchor.Record.phys with
      | Some p when p.Record.seg_index = seg -> f bid anchor p.Record.slot
      | Some _ | None -> ())
    (Live_index.blocks t.live seg)

(* ------------------------------------------------------------------ *)
(* Segment cleaning                                                    *)

(* Copy every live block out of the victim segment into the open
   stream, preserving stamps so replay ordering is untouched.

   The live index names the victim's blocks directly (O(live(victim)),
   no block-map scan), and their data comes from the LRU cache when
   present, else from ONE batched segment-sized read that is lazily
   fetched and then serves every remaining slot. *)
let relocate_live_blocks t victim =
  Obs.timed t.obs Tr.Clean "relocate"
    ~args:
      [ ("segment", Tr.I victim); ("live", Tr.I (live_count t victim)) ]
  @@ fun () ->
  let c = cost t in
  let parsed =
    lazy
      (let _, parsed = Seglog.load t.disk victim in
       t.counters.Counters.clean_disk_reads <-
         t.counters.Counters.clean_disk_reads + 1;
       match parsed with
       | Some p -> p
       | None ->
         raise
           (Errors.Corruption
              (Errors.Invalid_checksum { what = "segment"; index = victim })))
  in
  let slot_data slot =
    match Seglog.cached t.log ~seg:victim ~slot with
    | Some data ->
      t.counters.Counters.clean_cache_hits <-
        t.counters.Counters.clean_cache_hits + 1;
      elide t;
      data
    | None ->
      (* checksum-verified view into the batched read *)
      Segment.parsed_slot t.geom (Lazy.force parsed) ~slot
  in
  iter_live t victim (fun bid anchor slot ->
      relocate_block t bid anchor (slot_data slot);
      t.counters.Counters.blocks_copied_clean <-
        t.counters.Counters.blocks_copied_clean + 1;
      cpu t c.Cost.record_lookup_ns)

let clean_internal t ~target_free =
  if t.in_cleaning then ()
  else begin
    t.in_cleaning <- true;
    Fun.protect ~finally:(fun () -> t.in_cleaning <- false) @@ fun () ->
    Obs.timed t.obs Tr.Clean "pass"
      ~args:
        [
          ("target_free", Tr.I target_free);
          ("free_now", Tr.I (Seglog.free_count t.log));
        ]
    @@ fun () ->
    if t.seq_aru <> None then
      (* the sequential prototype cannot checkpoint (and therefore not
         clean) with an open ARU; DESIGN.md §5.3 *)
      raise Errors.Disk_full;
    flush_log t;
    (* Clean in batches.  A batch's relocation copies must fit in the
       space that is free right now (minus one spare segment), or the
       relocation itself would run out of segments mid-way. *)
    let progress = ref true in
    while Seglog.free_count t.log < target_free && !progress do
      let victims = ref [] in
      let n_victims = ref 0 in
      let copies = ref 0 in
      let budget = max 0 ((Seglog.free_count t.log - 1) * bps t) in
      (* Segments at or past the oldest prepared transaction's position
         are pinned: a prepared ARU's merge (data slots included) is
         sealed but NOT yet in the live index — its records sit at
         durable_seq = max_int until the decision — so the cleaner would
         see the segment as dead and reuse it, destroying a slice the
         coordinator may yet commit. *)
      let prepared_floor =
        Hashtbl.fold
          (fun _ pc acc -> min acc pc.pc_seq)
          t.prepared_commits max_int
      in
      let is_candidate idx =
        Seglog.is_sealed t.log idx
        && (not t.victim_flag.(idx))
        && Seglog.seal_seq t.log idx < prepared_floor
      in
      (* Victim score, higher is better.  Greedy reproduces the paper's
         least-live choice; cost-benefit is the Sprite-LFS ratio
         (1-u)*age/(1+u), preferring cold segments whose free space is
         worth the copying (DESIGN.md §5.6). *)
      let score idx =
        match t.config.Config.clean_policy with
        | Config.Greedy -> -.float_of_int (live_count t idx)
        | Config.Cost_benefit ->
          let u = float_of_int (live_count t idx) /. float_of_int (bps t) in
          let age =
            float_of_int
              (max 1 (Seglog.next_seq t.log - Seglog.seal_seq t.log idx))
          in
          (1. -. u) *. age /. (1. +. u)
      in
      let pick () =
        let best = ref None in
        let best_score = ref neg_infinity in
        for idx = Disk_layout.log_first t.geom
            to t.geom.Geometry.num_segments - 1 do
          if is_candidate idx then begin
            t.counters.Counters.victim_scans <-
              t.counters.Counters.victim_scans + 1;
            let s = score idx in
            if s > !best_score then begin
              best := Some idx;
              best_score := s
            end
          end
        done;
        (match !best with
        | Some _ ->
          t.counters.Counters.clean_picks <- t.counters.Counters.clean_picks + 1
        | None -> ());
        !best
      in
      let batch_full = ref false in
      while
        (not !batch_full)
        && Seglog.free_count t.log + !n_victims
           - ((!copies + bps t - 1) / bps t)
           < target_free
      do
        match pick () with
        | Some idx
          when live_count t idx < bps t && !copies + live_count t idx <= budget
          ->
          t.victim_flag.(idx) <- true;
          victims := idx :: !victims;
          incr n_victims;
          copies := !copies + live_count t idx
        | Some _ | None -> batch_full := true
      done;
      (* a batch that reclaims nothing net makes no progress *)
      let gain = !n_victims - ((!copies + bps t - 1) / bps t) in
      if !victims = [] || gain <= 0 then progress := false
      else begin
        Obs.event t.obs Tr.Clean "batch"
          [
            ("victims", Tr.I !n_victims);
            ("copies", Tr.I !copies);
            ("gain", Tr.I gain);
          ];
        List.iter (relocate_live_blocks t) !victims;
        flush_log t;
        List.iter
          (fun idx ->
            if live_count t idx <> 0 then
              Errors.corrupt
                (Printf.sprintf "cleaner: segment %d still has %d live blocks"
                   idx (live_count t idx)))
          !victims;
        retire t !victims;
        t.counters.Counters.segments_cleaned <-
          t.counters.Counters.segments_cleaned + !n_victims
      end;
      List.iter (fun idx -> t.victim_flag.(idx) <- false) !victims
    done;
    if Seglog.free_count t.log = 0 then raise Errors.Disk_full
  end

(* ------------------------------------------------------------------ *)
(* The run-time structures recovery rebuilds from the recovered tables
   (live index, sealed flags, free queue), at once or, under early open,
   at the first mutation.  Ends with a forced full checkpoint — the only
   disk writes recovery performs. *)

let finalize_recovery t (restored : Recovery.restored) =
  let report = restored.Recovery.r_report in
  t.ops.Ld_ops.stamp <- restored.Recovery.r_stamp;
  t.ops.Ld_ops.next_aru <- restored.Recovery.r_next_aru;
  t.next_gid <- restored.Recovery.r_next_gid;
  t.ckpt_id <- report.Recovery.checkpoint_id;
  (* rebuild segment liveness from the recovered block map; seal
     sequences are unknown after a crash, so they stay 0 — recovered
     segments look maximally old to the cost-benefit policy, which is
     the conservative choice (clean them first) *)
  Block_map.iter t.v.Versions.blocks (fun r ->
      match r.Record.phys with
      | Some p -> live_add t p.Record.seg_index r.Record.id
      | None -> ());
  Seglog.restore t.log ~next_seq:restored.Recovery.r_next_seq
    ~in_use:(fun i -> live_count t i > 0);
  t.counters.Counters.recovery_replayed_segments <-
    report.Recovery.segments_replayed;
  t.counters.Counters.recovery_skipped_segments <-
    report.Recovery.segments_skipped;
  t.counters.Counters.recovery_replay_disk_reads <- report.Recovery.disk_reads;
  (* a fresh full checkpoint makes every unreferenced log segment free;
     it must target the region NOT holding the full base just recovered
     from, or a crash during this write would lose both generations *)
  t.full_region <- report.Recovery.full_region;
  t.full_ckpt_id <- 0;
  checkpoint_internal t ~force_full:true

let complete_recovery t =
  match t.warming with
  | None -> None
  | Some restored ->
    t.warming <- None;
    finalize_recovery t restored;
    Some restored.Recovery.r_report

let warm t = if t.warming <> None then ignore (complete_recovery t)

(* ------------------------------------------------------------------ *)

(* Every public LD operation is timed once, at its definition: on the
   virtual clock into an ["op.<name>"] histogram and as an [op] trace
   span.  Inside the span a mutation first completes an early-open
   recovery ([warm]).  With {!Obs.null} attached (the default) this is
   one field read and a direct call — the cost model never sees it. *)
let op t name f = Obs.timed t.obs Tr.Op name f

(* ------------------------------------------------------------------ *)
(* The LD interface                                                    *)

let begin_aru t =
  op t "begin_aru" @@ fun () ->
  warm t;
  Versions.dispatch t.v;
  if t.config.Config.mode = Config.Sequential && t.seq_aru <> None then
    raise Errors.Aru_already_active;
  let a = Ld_ops.begin_aru t.ops in
  if not (concurrent t) then t.seq_aru <- Some a;
  a.Aru.id

let new_list t ?aru () =
  op t "new_list" @@ fun () ->
  warm t;
  Ld_ops.new_list t.ops ?aru ()

let new_block t ?aru ~list ~pred () =
  op t "new_block" @@ fun () ->
  warm t;
  Ld_ops.new_block t.ops ?aru ~list ~pred ()

let write_view t ?aru block data =
  op t "write" @@ fun () ->
  warm t;
  if Blk.length data <> block_bytes t then
    invalid_arg "Lld.write: data must be exactly one block";
  Ld_ops.write t.ops ?aru block data

let write t ?aru block data =
  copied t (Bytes.length data);
  write_view t ?aru block (Blk.of_bytes data)

let read_view t ?aru block =
  op t "read" @@ fun () ->
  let r = Ld_ops.read t.ops ?aru block in
  match r.Record.data with
  | Some d ->
    elide t;
    d
  | None -> (
    match r.Record.phys with
    | Some p -> Seglog.read_slot t.log p
    | None -> Blk.create (block_bytes t))

let read t ?aru block =
  let v = read_view t ?aru block in
  copied t (Blk.length v);
  Blk.to_bytes v

let delete_block t ?aru block =
  op t "delete_block" @@ fun () ->
  warm t;
  Ld_ops.delete_block t.ops ?aru block

let delete_list t ?aru list =
  op t "delete_list" @@ fun () ->
  warm t;
  Ld_ops.delete_list t.ops ?aru list

(* ------------------------------------------------------------------ *)
(* Commit and abort                                                    *)

(* The commit makes this ARU's list allocations ordinary committed
   lists: clear the owner marks so scavengers leave them alone, and mark
   the lists for the next delta checkpoint.  Shared by every commit path
   (immediate and group-commit flusher). *)
let clear_owner_marks t (a : Aru.t) =
  List.iter
    (fun (r : Record.list_r) -> dirty_list t r.Record.lid)
    a.Aru.owned_lists;
  Versions.clear_owner_marks t.v a

(* Reservation: the whole merge — replayed entries, shadow data and
   the commit record — must land in one segment, or the merge must
   start on a fresh segment it has to itself.  Either way no sealed
   segment can carry this ARU's slot overwrites without its commit
   record, which is what makes cross-scope slot coalescing sound
   (see Segment.scope).  [extra_entry_bytes] widens the margin for the
   group-commit flusher, whose batched commit record grows with the
   sub-batch. *)
let commit_room t (a : Aru.t) ~extra_entry_bytes =
  let data_bound = Aru.shadow_block_count a in
  let entry_bound =
    (32 * (Link_log.length a.Aru.log + data_bound)) + 64 + extra_entry_bytes
  in
  Seglog.has_room t.log ~data_blocks:data_bound ~entry_bytes:entry_bound

(* Phases 1–2 of a concurrent commit: replay the list-operation log
   and merge the shadow data versions into the committed state.
   Everything the merge touches is collected with [durable_seq =
   max_int] ("not yet durable"), so a seal between the merge and the
   commit record never promotes half-committed records; the caller
   stamps the collections once the (possibly batched) commit record
   has a segment. *)
let commit_merge ?(cross_scope = true) t (a : Aru.t) aid =
  let collected_b = ref [] in
  let collected_l = ref [] in
  let ctx = commit_ctx t collected_b collected_l in
  (* 1. replay the list-operation log in the committed state,
     generating the summary entries (paper §4) *)
  Obs.timed t.obs Tr.Aru "commit.replay_log"
    ~args:
      [
        ("aru", Tr.I (Types.Aru_id.to_int aid));
        ("ops", Tr.I (Link_log.length a.Aru.log));
      ]
    (fun () -> Ld_ops.replay_log t.ops a ctx);
  (* 2. merge shadow data versions into the committed state; the shadow
     buffer is donated to the segment *)
  Obs.timed t.obs Tr.Aru "commit.merge_shadow"
    ~args:
      [
        ("aru", Tr.I (Types.Aru_id.to_int aid));
        ("shadow_blocks", Tr.I (Aru.shadow_block_count a));
      ]
    (fun () ->
      Ld_ops.merge_shadow t.ops a ~write:(fun block data ~stamp ->
          let _seq, phys =
            emit_write t ~charge_copy:false ~allow_cross_scope:cross_scope
              ~stream:(Summary.In_aru aid) ~block ~data ~stamp ()
          in
          let c = ctx.Splice.get_block block in
          c.Record.phys <- Some phys;
          drop_data t c;
          c.Record.stamp <- stamp));
  (collected_b, collected_l)

(* Post-record bookkeeping of one committed ARU: everything the commit
   touched becomes durable together with the commit record. *)
let commit_finish t (a : Aru.t) aid ~commit_seq collected_b collected_l =
  Hashtbl.remove t.pending (Types.Aru_id.to_int aid);
  List.iter
    (fun (r : Record.block) -> r.Record.durable_seq <- commit_seq)
    !collected_b;
  List.iter
    (fun (r : Record.list_r) -> r.Record.l_durable_seq <- commit_seq)
    !collected_l;
  clear_owner_marks t a;
  Hashtbl.remove t.v.Versions.arus (Types.Aru_id.to_int aid);
  t.counters.Counters.arus_committed <- t.counters.Counters.arus_committed + 1

let commit_pending t aid =
  Hashtbl.mem t.commit_enq_ns (Types.Aru_id.to_int aid)

(* The immediate commit path, untimed: [end_aru] times it, and a
   degenerate [submit_commit] takes it inside its own span. *)
let commit_immediate t aid =
  Versions.dispatch t.v;
  if commit_pending t aid then raise (Errors.Commit_pending aid);
  let a = Versions.find_aru t.v aid in
  match t.config.Config.mode with
  | Config.Sequential ->
    (* the old prototype: operations already ran in the single merged
       stream; the commit record makes them atomic *)
    cpu t ((cost t).Cost.aru_commit_ns / 4);
    ignore (emit_entry t ~stream:Summary.Simple (Summary.Commit { aru = aid }));
    Hashtbl.remove t.pending (Types.Aru_id.to_int aid);
    List.iter (Block_map.release_id t.v.Versions.blocks) a.Aru.freed_blocks;
    List.iter (List_table.release_id t.v.Versions.lists) a.Aru.freed_lists;
    t.seq_aru <- None;
    clear_owner_marks t a;
    Hashtbl.remove t.v.Versions.arus (Types.Aru_id.to_int aid);
    t.counters.Counters.arus_committed <- t.counters.Counters.arus_committed + 1
  | Config.Concurrent ->
    cpu t (cost t).Cost.aru_commit_ns;
    if not (commit_room t a ~extra_entry_bytes:0) then Seglog.seal t.log;
    let collected_b, collected_l = commit_merge t a aid in
    (* 3. the commit record *)
    let commit_seq =
      Obs.timed t.obs Tr.Aru "commit.record"
        ~args:[ ("aru", Tr.I (Types.Aru_id.to_int aid)) ]
        (fun () ->
          emit_entry t ~stream:Summary.Simple (Summary.Commit { aru = aid }))
    in
    (* 4. *)
    commit_finish t a aid ~commit_seq collected_b collected_l

let end_aru t aid = op t "end_aru" @@ fun () -> commit_immediate t aid

(* A queued commit intent is withdrawn, not rejected: the ARU leaves
   [commit_q] and [commit_enq_ns] and aborts like any other. *)
let commit_dequeue t aid =
  let key = Types.Aru_id.to_int aid in
  Hashtbl.remove t.commit_enq_ns key;
  let q = Queue.create () in
  Queue.iter (fun k -> if k <> key then Queue.push k q) t.commit_q;
  Queue.clear t.commit_q;
  Queue.transfer q t.commit_q;
  t.counters.Counters.commit_queue_aborts <-
    t.counters.Counters.commit_queue_aborts + 1;
  Obs.event t.obs
    ~flow:(Tr.Flow_end, key)
    Tr.Aru "commit"
    [ ("aru", Tr.I key); ("stage", Tr.S "abort") ]

let abort_aru t aid =
  op t "abort_aru" @@ fun () ->
  Versions.dispatch t.v;
  if t.config.Config.mode = Config.Sequential then
    invalid_arg "Lld.abort_aru: not supported by the sequential prototype";
  if commit_pending t aid then commit_dequeue t aid;
  Ld_ops.abort t.ops aid

(* ------------------------------------------------------------------ *)
(* Group commit (DESIGN.md §5.11).  [submit_commit] queues a commit
   intent instead of paying a seal per ARU; [flush_commits] drains the
   queue in FIFO order, merges every queued ARU into the committed
   state, packs the batch's commit records into one [Commit_group]
   summary entry and pays ONE seal — and therefore one barrier — for
   the whole batch.  With [group_commit_window = 0] (or in sequential
   mode) [submit_commit] degenerates to the immediate [end_aru] path,
   bit-identically. *)

let pending_commits t = Queue.length t.commit_q

let commit_due t =
  match Queue.peek_opt t.commit_q with
  | None -> false
  | Some head ->
    Queue.length t.commit_q >= t.config.Config.group_commit_batch
    || Clock.now_ns t.clock - Hashtbl.find t.commit_enq_ns head
       >= t.config.Config.group_commit_window

let submit_commit t aid =
  op t "submit_commit" @@ fun () ->
  if t.config.Config.group_commit_window <= 0 || not (concurrent t) then
    (* degenerate batches of one: the immediate commit path *)
    commit_immediate t aid
  else begin
    Versions.dispatch t.v;
    let key = Types.Aru_id.to_int aid in
    if commit_pending t aid then raise (Errors.Commit_pending aid);
    ignore (Versions.find_aru t.v aid);
    Queue.push key t.commit_q;
    Hashtbl.replace t.commit_enq_ns key (Clock.now_ns t.clock);
    t.counters.Counters.commits_submitted <-
      t.counters.Counters.commits_submitted + 1;
    Obs.event t.obs
      ~flow:(Tr.Flow_start, key)
      Tr.Aru "commit"
      [
        ("aru", Tr.I key);
        ("stage", Tr.S "submit");
        ("queued", Tr.I (Queue.length t.commit_q));
      ]
  end

let flush_commits t =
  op t "flush_commits" @@ fun () ->
  if Queue.is_empty t.commit_q then 0
  else
    Obs.timed t.obs Tr.Aru "commit.group"
      ~args:[ ("queued", Tr.I (Queue.length t.commit_q)) ]
    @@ fun () ->
    (* sub-batch accumulated in reverse: (aid, aru, blocks, lists,
       merge time — feeds the batch-residency stage histogram) *)
    let subbatch = ref [] in
    let subbatch_n = ref 0 in
    let close_subbatch () =
      match List.rev !subbatch with
      | [] -> ()
      | batch ->
        let arus = List.map (fun (aid, _, _, _, _) -> aid) batch in
        let n = List.length arus in
        (* the batched commit record goes in BEFORE the seal: the
           reservation kept room for it, and the seal's auto-checkpoint
           must already see the batch as committed *)
        let commit_seq =
          Obs.timed t.obs Tr.Aru "commit.record"
            ~args:[ ("batch", Tr.I n) ]
            (fun () ->
              emit_entry t ~stream:Summary.Simple
                (Summary.Commit_group { arus }))
        in
        let record_ns = Clock.now_ns t.clock in
        List.iter
          (fun (aid, a, cb, cl, merge_ns) ->
            commit_finish t a aid ~commit_seq cb cl;
            t.counters.Counters.group_commits <-
              t.counters.Counters.group_commits + 1;
            Obs.observe t.obs "aru.commit.batch_residency"
              (max 0 (record_ns - merge_ns)))
          batch;
        (* one seal makes the whole batch durable *)
        Obs.timed t.obs Tr.Aru "commit.barrier"
          ~args:[ ("batch", Tr.I n) ]
          (fun () -> Seglog.seal t.log);
        t.counters.Counters.commit_batches <-
          t.counters.Counters.commit_batches + 1;
        t.counters.Counters.commit_barriers <-
          t.counters.Counters.commit_barriers + 1;
        Obs.observe t.obs "commit.batch_size" n;
        List.iter
          (fun (aid, _, _, _, _) ->
            let key = Types.Aru_id.to_int aid in
            Obs.event t.obs
              ~flow:(Tr.Flow_step, key)
              Tr.Aru "commit"
              [ ("aru", Tr.I key); ("stage", Tr.S "sealed") ])
          batch;
        subbatch := [];
        subbatch_n := 0
    in
    let committed = ref 0 in
    while not (Queue.is_empty t.commit_q) do
      let key = Queue.pop t.commit_q in
      let enq = Hashtbl.find t.commit_enq_ns key in
      Hashtbl.remove t.commit_enq_ns key;
      match Hashtbl.find_opt t.v.Versions.arus key with
      | None -> () (* unreachable: queued ARUs stay active until drained *)
      | Some a ->
        let aid = Types.Aru_id.of_int key in
        if Obs.recording t.obs then begin
          let wait = max 0 (Clock.now_ns t.clock - enq) in
          Obs.observe t.obs "aru.commit.queue_wait" wait;
          Obs.complete t.obs Tr.Aru "commit.queue_wait" ~ts_ns:enq
            ~dur_ns:wait
            [ ("aru", Tr.I key) ];
          Obs.event t.obs
            ~flow:(Tr.Flow_step, key)
            Tr.Aru "commit"
            [ ("aru", Tr.I key); ("stage", Tr.S "batch") ]
        end;
        cpu t (cost t).Cost.aru_commit_ns;
        if !subbatch_n >= t.config.Config.group_commit_batch then
          close_subbatch ();
        (* group-record growth: stream byte + op tag + count + one u32
           per ARU already merged, plus this one *)
        let extra = 4 * (!subbatch_n + 2) in
        if not (commit_room t a ~extra_entry_bytes:extra) then begin
          (* no room for this ARU's whole merge: close what we have
             (its record still fits the margin the earlier reservations
             kept), then let the merge start on a fresh segment *)
          close_subbatch ();
          if not (commit_room t a ~extra_entry_bytes:extra) then
            Seglog.seal t.log
        end;
        let merge_ns = Clock.now_ns t.clock in
        let cb, cl = commit_merge t a aid in
        subbatch := (aid, a, cb, cl, merge_ns) :: !subbatch;
        incr subbatch_n;
        incr committed
    done;
    close_subbatch ();
    !committed

(* ------------------------------------------------------------------ *)
(* Two-phase commit across shards (DESIGN.md §5.14).  The sharded
   front-end commits a multi-shard ARU with one [prepare_commit] per
   non-coordinator participant (merge + Prepare record + seal — the
   prepare barrier), then one [decide_commit] on the coordinator (merge
   + Decide record + seal — the transaction's single commit point), then
   lazy [commit_prepared] on each participant (Decide record, no
   barrier: durability rides on the next natural seal, and until then
   recovery resolves the dangling prepare against the coordinator's
   log).  Between prepare and decide the merged records stay at
   durable_seq = max_int, so seals and auto-checkpoints never promote a
   half-decided transaction; checkpoints carry the prepared marks and
   the cleaner pins the prepare segments instead. *)

let note_gid t gid = if gid >= t.next_gid then t.next_gid <- gid + 1

let require_commit_ready t aid =
  if not (concurrent t) then
    invalid_arg "Lld: two-phase commit requires concurrent mode";
  if commit_pending t aid then raise (Errors.Commit_pending aid);
  if Hashtbl.mem t.prepared_commits (Types.Aru_id.to_int aid) then
    raise (Errors.Commit_pending aid);
  Versions.find_aru t.v aid

let prepare_commit t aid ~gid ~coordinator =
  op t "prepare_commit" @@ fun () ->
  Versions.dispatch t.v;
  let a = require_commit_ready t aid in
  cpu t (cost t).Cost.aru_commit_ns;
  note_gid t gid;
  if not (commit_room t a ~extra_entry_bytes:0) then Seglog.seal t.log;
  (* [cross_scope:false]: the commit-room argument for cross-scope slot
     coalescing — "no sealed segment carries this ARU's slot overwrites
     without its commit record" — does not hold for a prepare, whose
     decision record lives on the COORDINATOR's log.  If this shard's
     merge reused the slot of a committed version and the transaction
     were then presumed aborted, the dropped In_aru entries would leave
     the committed Write pointing at a slot now holding the aborted
     data.  Fresh slots keep the committed versions intact under
     abort. *)
  let cb, cl = commit_merge ~cross_scope:false t a aid in
  let prepare_seq =
    Obs.timed t.obs Tr.Aru "commit.prepare"
      ~args:[ ("aru", Tr.I (Types.Aru_id.to_int aid)); ("gid", Tr.I gid) ]
      (fun () ->
        emit_entry t ~stream:Summary.Simple
          (Summary.Prepare { aru = aid; gid; coordinator }))
  in
  Hashtbl.replace t.prepared_commits (Types.Aru_id.to_int aid)
    {
      pc_gid = gid;
      pc_coordinator = coordinator;
      pc_seq = prepare_seq;
      pc_blocks = cb;
      pc_lists = cl;
    };
  (* the prepare barrier: this shard's slice (and the promise to honour
     the coordinator's decision) is durable before anyone may decide *)
  Seglog.seal t.log;
  t.counters.Counters.prepare_barriers <-
    t.counters.Counters.prepare_barriers + 1

let decide_commit t aid ~gid =
  op t "decide_commit" @@ fun () ->
  Versions.dispatch t.v;
  let a = require_commit_ready t aid in
  cpu t (cost t).Cost.aru_commit_ns;
  note_gid t gid;
  if not (commit_room t a ~extra_entry_bytes:0) then Seglog.seal t.log;
  let cb, cl = commit_merge t a aid in
  let commit_seq =
    Obs.timed t.obs Tr.Aru "commit.decide"
      ~args:[ ("aru", Tr.I (Types.Aru_id.to_int aid)); ("gid", Tr.I gid) ]
      (fun () ->
        emit_entry t ~stream:Summary.Simple
          (Summary.Decide { aru = aid; gid; committed = true }))
  in
  commit_finish t a aid ~commit_seq cb cl;
  (* the decision barrier: once this seal returns, the transaction is
     committed on every shard regardless of later crashes *)
  Seglog.seal t.log;
  t.counters.Counters.cross_shard_commits <-
    t.counters.Counters.cross_shard_commits + 1

let commit_prepared t aid =
  op t "commit_prepared" @@ fun () ->
  Versions.dispatch t.v;
  let key = Types.Aru_id.to_int aid in
  match Hashtbl.find_opt t.prepared_commits key with
  | None -> raise (Errors.Unknown_aru aid)
  | Some pc ->
    let a = Versions.find_aru t.v aid in
    Hashtbl.remove t.prepared_commits key;
    let commit_seq =
      emit_entry t ~stream:Summary.Simple
        (Summary.Decide { aru = aid; gid = pc.pc_gid; committed = true })
    in
    commit_finish t a aid ~commit_seq pc.pc_blocks pc.pc_lists

let abort_prepared t aid =
  op t "abort_prepared" @@ fun () ->
  let key = Types.Aru_id.to_int aid in
  match Hashtbl.find_opt t.prepared_commits key with
  | None -> raise (Errors.Unknown_aru aid)
  | Some pc ->
    Hashtbl.remove t.prepared_commits key;
    ignore
      (emit_entry t ~stream:Summary.Simple
         (Summary.Decide { aru = aid; gid = pc.pc_gid; committed = false }));
    (* the merge already cloned committed records; drop them so they are
       never stamped durable, then abort the ARU like any other *)
    List.iter
      (fun (r : Record.block) ->
        let anchor = Block_map.anchor t.v.Versions.blocks r.Record.id in
        Record.remove_alt_block ~anchor r)
      !(pc.pc_blocks);
    List.iter
      (fun (r : Record.list_r) ->
        let anchor = List_table.anchor t.v.Versions.lists r.Record.lid in
        Record.remove_alt_list ~anchor r)
      !(pc.pc_lists);
    Hashtbl.remove t.pending key;
    (match Hashtbl.find_opt t.v.Versions.arus key with
    | Some a ->
      clear_owner_marks t a;
      Hashtbl.remove t.v.Versions.arus key
    | None -> ());
    t.counters.Counters.arus_aborted <- t.counters.Counters.arus_aborted + 1

let prepared_arus t =
  List.sort Int.compare
    (Hashtbl.fold (fun aru _ acc -> aru :: acc) t.prepared_commits [])

let next_gid t = t.next_gid

let flush t =
  op t "flush" @@ fun () ->
  warm t;
  flush_log t

let with_aru t f =
  let aru = begin_aru t in
  match f aru with
  | v ->
    end_aru t aru;
    v
  | exception e ->
    (match t.config.Config.mode with
    | Config.Concurrent -> abort_aru t aru
    | Config.Sequential -> end_aru t aru);
    raise e

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

(* The walks are Versions'; a whole-table walk first completes an
   early-open recovery. *)
let list_exists t ?aru list = Versions.list_exists t.v ?aru list
let block_allocated t ?aru block = Versions.block_allocated t.v ?aru block

let block_phys t block =
  if not (Block_map.in_range t.v.Versions.blocks block) then None
  else
    match (Block_map.anchor t.v.Versions.blocks block).Record.phys with
    | Some p -> Some (p.Record.seg_index, p.Record.slot)
    | None -> None

let block_member t ?aru block = Versions.block_member t.v ?aru block
let list_blocks t ?aru list = Versions.list_blocks t.v ?aru list

let lists t =
  warm t;
  Versions.lists t.v

let aru_active t aid = Versions.owner_active t.v aid

let active_arus t =
  Hashtbl.fold
    (fun k _ acc -> Types.Aru_id.of_int k :: acc)
    t.v.Versions.arus []
  |> List.sort Types.Aru_id.compare

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)

let checkpoint t =
  if t.config.Config.mode = Config.Sequential && t.seq_aru <> None then
    raise Errors.Aru_already_active;
  warm t;
  checkpoint_internal t

let clean t ~target_free =
  warm t;
  clean_internal t ~target_free

(* ------------------------------------------------------------------ *)
(* Scrub: walk the on-disk image, verify every checksum that protects
   live data, and repair what redundancy allows (DESIGN.md §5.13).

   Superblock: a slot that fails its CRC is rewritten from the
   in-memory generation mirror (or synthesised from the checkpoint
   counters — only the epoch matters for the mount gate; the region
   byte is a hint, {!Checkpoint.read_best} stays authoritative).

   Segments: only slots referenced by live persistent blocks are
   checked — reused or torn segments legitimately fail their old CRCs
   and carry no live data.  A bad slot is repaired by {e relocation}:
   the pristine copy still held by the LRU cache (segment seals park
   their blocks there) is rewritten through the ordinary log path, so
   the repair is crash-safe like any other write.  When the cache has
   no copy but only the segment's {e meta} region rotted (the image no
   longer parses), the raw slot bytes are salvaged unverified.  A slot
   whose own CRC fails with no cached copy is lost — reported, never
   silently re-written.  Fully evacuated unparsable segments rejoin the
   free queue behind a forced full checkpoint, exactly like cleaning
   victims. *)

type scrub_report = {
  scrub_segments : int;
  scrub_bad_slots : int;
  scrub_repaired : int;
  scrub_salvaged : int;
  scrub_lost : int;
  scrub_superblock_repaired : int;
}

let pp_scrub_report ppf r =
  Format.fprintf ppf
    "@[<v>segments scanned %d@,\
     bad slots %d (%d repaired, %d salvaged, %d lost)@,\
     superblock slots repaired %d@]"
    r.scrub_segments r.scrub_bad_slots r.scrub_repaired r.scrub_salvaged
    r.scrub_lost r.scrub_superblock_repaired

let scrub t =
  warm t;
  flush t;
  Obs.timed t.obs Tr.Checkpoint "scrub" @@ fun () ->
  (* 1. the generational superblock *)
  let sb_repaired = ref 0 in
  for k = 0 to 1 do
    match Superblock.read_slot t.disk k with
    | Some s -> t.sb_slots.(k) <- Some s
    | None ->
      let replacement =
        match t.sb_slots.(k) with
        | Some _ as s -> s
        | None ->
          let epoch =
            if t.ckpt_id mod 2 = k then t.ckpt_id else t.ckpt_id - 1
          in
          if epoch >= 1 then
            Some { Superblock.epoch; region = t.full_region }
          else None
      in
      (match replacement with
      | Some s ->
        Superblock.write_slot t.disk s;
        t.sb_slots.(k) <- Some s;
        incr sb_repaired
      | None -> ())
  done;
  (* 2. live log segments *)
  let segments = ref 0 in
  let bad = ref 0 in
  let repaired = ref 0 in
  let salvaged = ref 0 in
  let lost = ref 0 in
  let unparsable = ref [] in
  let bb = block_bytes t in
  for idx = Disk_layout.log_first t.geom to t.geom.Geometry.num_segments - 1 do
    if Seglog.is_sealed t.log idx && live_count t idx > 0 then begin
      incr segments;
      let image, parsed = Seglog.load t.disk idx in
      if parsed = None then unparsable := idx :: !unparsable;
      iter_live t idx (fun bid anchor slot ->
          let ok =
            match parsed with
            | Some pr -> Segment.verify_slot t.geom pr ~slot
            | None -> false
          in
          if not ok then begin
            incr bad;
            match Seglog.cached t.log ~seg:idx ~slot with
            | Some v ->
              relocate_block t bid anchor v;
              incr repaired
            | None when parsed = None ->
              (* only the meta region is known bad; the slot bytes
                 themselves may well be intact *)
              relocate_block t bid anchor (Blk.sub image (slot * bb) bb);
              incr salvaged
            | None -> incr lost
          end)
    end
  done;
  (* 3. make the repairs durable and retire evacuated carcasses *)
  if !repaired + !salvaged > 0 || !unparsable <> [] then begin
    flush t;
    retire t
      (List.filter
         (fun idx -> Seglog.is_sealed t.log idx && live_count t idx = 0)
         (List.rev !unparsable))
  end;
  {
    scrub_segments = !segments;
    scrub_bad_slots = !bad;
    scrub_repaired = !repaired;
    scrub_salvaged = !salvaged;
    scrub_lost = !lost;
    scrub_superblock_repaired = !sb_repaired;
  }

let orphan_blocks t =
  warm t;
  flush t;
  Versions.orphan_blocks t.v

(* Recovery invariant probes (crash-consistency checking).  The committed
   state is inspected through the persistent anchors, exactly like
   [orphan_blocks]/[scavenge]: meaningful right after [recover], before
   any new operations run. *)
let recovery_invariant_errors t =
  warm t;
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n_arus = Hashtbl.length t.v.Versions.arus in
  if n_arus <> 0 then err "%d ARU(s) active immediately after recovery" n_arus;
  (* walk every committed list, recording which list each block is on *)
  let member = Hashtbl.create 256 in
  List.iter
    (fun l ->
      List.iter
        (fun b ->
          let bi = Types.Block_id.to_int b in
          match Hashtbl.find_opt member bi with
          | Some l0 ->
            err "block %d linked into lists %d and %d" bi
              (Types.List_id.to_int l0) (Types.List_id.to_int l)
          | None -> Hashtbl.replace member bi l)
        (list_blocks t l))
    (lists t);
  Block_map.iter t.v.Versions.blocks (fun anchor ->
      let bi = Types.Block_id.to_int anchor.Record.id in
      if anchor.Record.alloc then begin
        match Hashtbl.find_opt member bi with
        | Some l -> (
          match anchor.Record.member_of with
          | Some l' when Types.List_id.equal l' l -> ()
          | Some l' ->
            err "block %d reached from list %d but member_of says %d" bi
              (Types.List_id.to_int l) (Types.List_id.to_int l')
          | None ->
            err "block %d reached from list %d but member_of says none" bi
              (Types.List_id.to_int l))
        | None ->
          err "leaked allocation: block %d is allocated but on no list%s" bi
            (match anchor.Record.alloc_owner with
            | None -> ""
            | Some o ->
              Printf.sprintf " (allocated by ARU %d)" (Types.Aru_id.to_int o))
      end
      else if Hashtbl.mem member bi then
        err "unallocated block %d is linked into list %d" bi
          (Types.List_id.to_int (Hashtbl.find member bi)));
  List_table.iter t.v.Versions.lists (fun lr ->
      match lr.Record.l_owner with
      | Some o when lr.Record.exists && not (Versions.owner_active t.v o) ->
        err "leaked list: %d still owned by inactive ARU %d"
          (Types.List_id.to_int lr.Record.lid)
          (Types.Aru_id.to_int o)
      | Some _ | None -> ());
  List.rev !errs

let scavenge t =
  warm t;
  flush t;
  let freed = ref 0 in
  List.iter
    (fun lid ->
      delete_list t lid;
      incr freed)
    (Versions.abandoned_lists t.v);
  Block_map.iter t.v.Versions.blocks (fun anchor ->
      if Versions.orphaned t.v anchor then begin
        Ld_ops.free_orphan t.ops anchor.Record.id;
        incr freed
      end);
  !freed

(* ------------------------------------------------------------------ *)
(* Gauges and observability attachment                                 *)

let open_arus t = Hashtbl.length t.v.Versions.arus
let sealed_segments t = Seglog.sealed_count t.log

let live_blocks t =
  let total = ref 0 in
  for i = 0 to t.geom.Geometry.num_segments - 1 do
    total := !total + live_count t i
  done;
  !total

let shadow_versions t =
  Hashtbl.fold
    (fun _ a acc -> acc + Aru.shadow_block_count a)
    t.v.Versions.arus 0

let link_log_entries t =
  Hashtbl.fold
    (fun _ (a : Aru.t) acc -> acc + Link_log.length a.Aru.log)
    t.v.Versions.arus 0

let obs t = t.obs

let set_obs t obs =
  t.obs <- obs;
  Disk.set_obs t.disk obs;
  if Obs.active obs then begin
    Obs.register_gauge obs ~name:"free_segments"
      ~help:"segments on the free queue" (fun () -> free_segments t);
    Obs.register_gauge obs ~name:"sealed_segments"
      ~help:"segments written and not yet freed" (fun () -> sealed_segments t);
    Obs.register_gauge obs ~name:"allocated_blocks"
      ~help:"logical blocks currently allocated" (fun () ->
        allocated_blocks t);
    Obs.register_gauge obs ~name:"live_blocks"
      ~help:"persistent block slots referenced by the live index" (fun () ->
        live_blocks t);
    Obs.register_gauge obs ~name:"cache_blocks"
      ~help:"blocks resident in the LRU cache" (fun () ->
        Seglog.cache_blocks t.log);
    Obs.register_gauge obs ~name:"cache_capacity"
      ~help:"LRU cache capacity in blocks" (fun () ->
        Seglog.cache_capacity t.log);
    Obs.register_gauge obs ~name:"open_arus" ~help:"ARUs begun and not yet ended"
      (fun () -> open_arus t);
    Obs.register_gauge obs ~name:"shadow_versions"
      ~help:"shadow block versions held by open ARUs (mesh depth)" (fun () ->
        shadow_versions t);
    Obs.register_gauge obs ~name:"link_log_entries"
      ~help:"buffered list operations across open ARU link logs" (fun () ->
        link_log_entries t);
    Obs.register_gauge obs ~name:"pending_commits"
      ~help:"commit intents waiting in the group-commit queue" (fun () ->
        Queue.length t.commit_q);
    (* every operation counter becomes a registry counter, so the
       OpenMetrics exposition (and forensics bundles) carry them *)
    List.iter
      (fun (name, get, _) ->
        Obs.register_counter obs ~name ~help:"operation counter" (fun () ->
            get t.counters))
      Counters.fields
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* Before the log takes a free segment: refill the cleaner's reserve. *)
let auto_clean t =
  if
    (not t.in_cleaning) && t.config.Config.auto_clean
    && Seglog.free_count t.log < t.config.Config.clean_reserve_segments
  then clean_internal t ~target_free:(t.config.Config.clean_reserve_segments * 2)

(* A handle over fresh tables with mkfs's counters, which recovery's
   [finalize_recovery] replaces.  The log's hooks close over the handle
   under construction; the log runs them only after [make] returns. *)
let make ~config ~disk ~blocks ~lists =
  let geom = Disk.geometry disk in
  let counters = Counters.create () in
  let v =
    Versions.create
      ~layers:
        (match config.Config.mode with
        | Config.Sequential -> Versions.Anchors
        | Config.Concurrent -> Versions.Anchors_committed_shadows)
      ~visibility:config.Config.visibility ~clock:(Disk.clock disk)
      ~cost:config.Config.cost ~counters blocks lists
  in
  let rec self =
    lazy
      {
        config;
        disk;
        geom;
        clock = Disk.clock disk;
        log =
          Seglog.create ~config ~counters disk
            ~before_take:(fun () -> auto_clean (Lazy.force self))
            ~after_seal:(fun seq -> after_seal (Lazy.force self) seq);
        v;
        ops = Ld_ops.create ~name:"Lld" v (sink ~config v self);
        committed_blocks = None;
        committed_lists = None;
        next_gid = 1;
        prepared_commits = Hashtbl.create 4;
        seq_aru = None;
        victim_flag = Array.make geom.Geometry.num_segments false;
        live =
          Live_index.create ~num_segments:geom.Geometry.num_segments
            ~capacity:(Block_map.capacity blocks);
        arena = Arena.create ~slot_bytes:geom.Geometry.block_bytes ();
        sb_slots = [| None; None |];
        counters;
        ckpt_id = 0;
        full_region = 1;
        (* so the first full checkpoint targets region 0 *)
        full_ckpt_id = 0;
        dirty_blocks = Hashtbl.create 256;
        dirty_lists = Hashtbl.create 64;
        sealed_since_ckpt = 0;
        pending = Hashtbl.create 16;
        commit_q = Queue.create ();
        commit_enq_ns = Hashtbl.create 16;
        in_cleaning = false;
        in_checkpoint = false;
        warming = None;
        obs = Obs.null;
      }
  in
  Lazy.force self

let create ?(config = Config.default) ?(obs = Obs.null) disk =
  let obs = Obs.env_default ~clock:(Disk.clock disk) obs in
  let geom = Disk.geometry disk in
  (* a reused disk may hold stale segments with arbitrary sequence
     numbers; start above all of them so recovery never replays relics *)
  let stale =
    Seglog.fold_log disk ~init:0 (fun acc _ -> function
      | Some p -> max acc p.Segment.p_seq
      | None -> acc)
  in
  let blocks = Block_map.create ~capacity:(Disk_layout.block_capacity geom) in
  let lists = List_table.create ~max_lists:(Disk_layout.max_lists geom) in
  let t = make ~config ~disk ~blocks ~lists in
  (* the free queue must be populated before the first checkpoint: its
     order is what recovery follows to find the log tail *)
  Seglog.restore t.log ~next_seq:(stale + 1) ~in_use:(fun _ -> false);
  set_obs t obs;
  (* both regions get the empty state (as fulls) so no stale checkpoint
     survives *)
  checkpoint_internal t ~force_full:true;
  checkpoint_internal t ~force_full:true;
  t

let recover ?(config = Config.default) ?(obs = Obs.null) ?decisions disk =
  let obs = Obs.env_default ~clock:(Disk.clock disk) obs in
  Lld_disk.Fault.reset_after_recovery (Disk.fault disk);
  Disk.set_obs disk obs;
  let restored =
    Recovery.recover ~obs ~sweep:config.Config.recovery_sweep ?decisions disk
  in
  let mirror_superblock t =
    let a, b = Superblock.read_slots disk in
    t.sb_slots.(0) <- a;
    t.sb_slots.(1) <- b;
    if config.Config.scrub_on_mount then ignore (scrub t)
  in
  let t =
    make ~config ~disk ~blocks:restored.Recovery.r_blocks
      ~lists:restored.Recovery.r_lists
  in
  set_obs t obs;
  (* early open serves reads from the recovered tables at once; the
     first mutating operation (or [complete_recovery]) rebuilds the rest
     and writes the post-recovery checkpoint *)
  if config.Config.recovery_early_open then t.warming <- Some restored
  else finalize_recovery t restored;
  mirror_superblock t;
  (t, restored.Recovery.r_report)
