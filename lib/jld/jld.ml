module Blk = Lld_util.Blk
module Lru = Lld_util.Lru
module Clock = Lld_sim.Clock
module Cost = Lld_sim.Cost
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Types = Lld_core.Types
module Errors = Lld_core.Errors
module Summary = Lld_core.Summary
module Record = Lld_core.Record
module Splice = Lld_core.Splice
module Aru = Lld_core.Aru
module Block_map = Lld_core.Block_map
module List_table = Lld_core.List_table
module Counters = Lld_core.Counters
module Versions = Lld_core.Versions
module Ld_ops = Lld_core.Ld_ops
module Recovery = Lld_core.Recovery

(* JLD runs one configuration: the paper's cost model, an 8 MB LRU over
   in-place reads, journal chunks flushed every 64 data blocks (group
   commit), a quarter of the partition as journal, and a checkpoint once
   2048 blocks of committed data wait to be written home (the
   write-back bound of a real buffer cache). *)
let cost = Cost.sparc5_70
let cache_blocks = 2048
let buffer_blocks = 64
let journal_fraction = 0.25
let dirty_limit_blocks = 2048

(* ------------------------------------------------------------------ *)
(* On-disk layout (all units are blocks)                               *)

type layout = {
  journal_first : int;
  journal_blocks : int;
  table_blocks : int; (* per region *)
  table_a_first : int;
  table_b_first : int;
  data_first : int;
  capacity : int;
}

let sb_magic = 0x4a4c4421 (* "JLD!" *)

let layout_of ~total_blocks =
  let journal_blocks = max 16 (int_of_float (float_of_int total_blocks *. journal_fraction)) in
  (* worst-case table payload, as in Disk_layout: 31 B per block entry,
     22 B per list entry, plus chunk header slack *)
  let bb = 4096 in
  let cap_bound = total_blocks in
  let table_blocks = ((cap_bound * (31 + 22)) + 4096 + bb - 1) / bb in
  let journal_first = 1 in
  let table_a_first = journal_first + journal_blocks in
  let table_b_first = table_a_first + table_blocks in
  let data_first = table_b_first + table_blocks in
  let capacity = total_blocks - data_first in
  if capacity < 16 then invalid_arg "Jld: partition too small";
  {
    journal_first;
    journal_blocks;
    table_blocks;
    table_a_first;
    table_b_first;
    data_first;
    capacity;
  }

let encode_superblock bb l =
  let b = Bytes.make bb '\000' in
  Blk.set_u32_bytes b 0 sb_magic;
  Blk.set_u32_bytes b 4 1 (* version *);
  Blk.set_u32_bytes b 8 l.journal_first;
  Blk.set_u32_bytes b 12 l.journal_blocks;
  Blk.set_u32_bytes b 16 l.table_blocks;
  Blk.set_u32_bytes b 20 l.table_a_first;
  Blk.set_u32_bytes b 24 l.table_b_first;
  Blk.set_u32_bytes b 28 l.data_first;
  Blk.set_u32_bytes b 32 l.capacity;
  b

let decode_superblock b =
  if Blk.get_u32_bytes b 0 <> sb_magic then
    raise (Errors.Corrupt "no JLD superblock");
  {
    journal_first = Blk.get_u32_bytes b 8;
    journal_blocks = Blk.get_u32_bytes b 12;
    table_blocks = Blk.get_u32_bytes b 16;
    table_a_first = Blk.get_u32_bytes b 20;
    table_b_first = Blk.get_u32_bytes b 24;
    data_first = Blk.get_u32_bytes b 28;
    capacity = Blk.get_u32_bytes b 32;
  }

(* ------------------------------------------------------------------ *)

type t = {
  disk : Disk.t;
  geom : Geometry.t;
  clock : Clock.t;
  layout : layout;
  v : Versions.t; (* the anchors ARE the committed state *)
  committed : Splice.ctx; (* over the anchors *)
  ops : Ld_ops.t; (* the LD operation bodies, over [v], through [sink] *)
  (* journal *)
  mutable epoch : int;
  mutable jptr : int; (* blocks used within the journal region *)
  mutable jseq : int; (* next chunk sequence number *)
  mutable pend : (Summary.t * bytes option) list; (* reversed *)
  mutable pend_entries : int;
  mutable pend_entry_bytes : int;
  mutable pend_data : int;
  (* committed data not yet written home *)
  dirty : (int, bytes) Hashtbl.t;
  zeroed : (int, unit) Hashtbl.t;
  (* allocated blocks not yet written: they read zeros, whatever an
     earlier incarnation left in the cache or at the home location, and
     the next checkpoint writes zeros home *)
  cache : bytes Lru.t;
  counters : Counters.t;
  mutable in_commit : bool;
  mutable obs : Lld_obs.Obs.t;
}

let clock t = t.clock
let cost_model _ = cost
let counters t = t.counters
let obs t = t.obs

let set_obs t obs =
  t.obs <- obs;
  Disk.set_obs t.disk obs
let capacity t = t.layout.capacity
let allocated_blocks t = Block_map.allocated_count t.v.Versions.blocks
let block_bytes t = t.geom.Geometry.block_bytes

let cpu t ns = Clock.charge t.clock Clock.Cpu ns

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let chunk_header_bytes = 36 (* magic, epoch, seq, entry_count, entries_len, data_count *)
let chunk_trailer_bytes = 8

let pend_chunk_blocks t =
  let bb = block_bytes t in
  let bytes =
    chunk_header_bytes + t.pend_entry_bytes + (t.pend_data * bb)
    + chunk_trailer_bytes
  in
  (bytes + bb - 1) / bb

(* A reserve so that one full buffer can always be flushed before a
   checkpoint frees the journal. *)
let journal_reserve = buffer_blocks + 4

let journal_remaining t = t.layout.journal_blocks - t.jptr

let flush_chunk t =
  if t.pend_entries > 0 then begin
    let bb = block_bytes t in
    let entries = List.rev t.pend in
    let w = Blk.Writer.create ~capacity:(t.pend_entry_bytes + 64) () in
    List.iter (fun (e, _) -> Summary.encode w e) entries;
    let encoded = Blk.to_bytes (Blk.Writer.contents w) in
    let blocks = pend_chunk_blocks t in
    if blocks > journal_remaining t then
      (* the reserve invariant should make this impossible *)
      raise Errors.Disk_full;
    let image = Bytes.make (blocks * bb) '\000' in
    Blk.set_u32_bytes image 0 0x4a43484b (* "JCHK" *);
    Bytes.set_int64_le image 4 (Int64.of_int t.epoch);
    Bytes.set_int64_le image 12 (Int64.of_int t.jseq);
    Blk.set_u32_bytes image 20 t.pend_entries;
    Blk.set_u32_bytes image 24 (Bytes.length encoded);
    Blk.set_u32_bytes image 28 t.pend_data;
    Bytes.blit encoded 0 image chunk_header_bytes (Bytes.length encoded);
    let data_off = chunk_header_bytes + Bytes.length encoded in
    let idx = ref 0 in
    List.iter
      (fun (_, payload) ->
        match payload with
        | Some d ->
          Bytes.blit d 0 image (data_off + (!idx * bb)) bb;
          incr idx
        | None -> ())
      entries;
    let sum_off = Bytes.length image - chunk_trailer_bytes in
    Bytes.set_int64_le image sum_off (Blk.hash64 ~len:sum_off (Blk.of_bytes image));
    Disk.write t.disk
      ~offset:((t.layout.journal_first + t.jptr) * bb)
      image;
    (* WAL ordering: the journal chunk (and the commit records in it)
       must be durable before later chunks or the checkpoint tables. *)
    Disk.barrier t.disk;
    t.jptr <- t.jptr + blocks;
    t.jseq <- t.jseq + 1;
    t.counters.Counters.segments_written <-
      t.counters.Counters.segments_written + 1;
    t.pend <- [];
    t.pend_entries <- 0;
    t.pend_entry_bytes <- 0;
    t.pend_data <- 0
  end

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)

let table_magic = 0x4a544142 (* "JTAB" *)

let write_tables t =
  let bb = block_bytes t in
  let snap =
    {
      Lld_core.Checkpoint.ckpt_id = t.epoch + 1;
      kind = Lld_core.Checkpoint.Full;
      covered_seq = 0;
      next_seq = 1;
      stamp = t.ops.Ld_ops.stamp;
      next_aru = t.ops.Ld_ops.next_aru;
      next_gid = 1;
      pending = [];
      free_order = [];
      prepared = [];
    }
  in
  let payload =
    Blk.to_bytes
      (Lld_core.Checkpoint.encode
         ~owner_active:(Versions.owner_active t.v)
         t.v.Versions.blocks t.v.Versions.lists snap)
  in
  let header = 16 in
  let total = header + Bytes.length payload + 8 in
  let region_bytes = t.layout.table_blocks * bb in
  if total > region_bytes then raise Errors.Disk_full;
  let image = Bytes.make ((total + bb - 1) / bb * bb) '\000' in
  Blk.set_u32_bytes image 0 table_magic;
  Bytes.set_int64_le image 4 (Int64.of_int (t.epoch + 1));
  Blk.set_u32_bytes image 12 (Bytes.length payload);
  Bytes.blit payload 0 image header (Bytes.length payload);
  let sum_off = header + Bytes.length payload in
  Bytes.set_int64_le image sum_off (Blk.hash64 ~len:sum_off (Blk.of_bytes image));
  let region =
    if (t.epoch + 1) mod 2 = 0 then t.layout.table_a_first
    else t.layout.table_b_first
  in
  Disk.write t.disk ~offset:(region * bb) image

let read_tables disk bb layout region =
  let head = Disk.read disk ~offset:(region * bb) ~length:bb in
  if Blk.get_u32_bytes head 0 <> table_magic then None
  else begin
    let epoch = Int64.to_int (Bytes.get_int64_le head 4) in
    let len = Blk.get_u32_bytes head 12 in
    let total = 16 + len + 8 in
    if total > layout.table_blocks * bb then None
    else begin
      let image = Disk.read_view disk ~offset:(region * bb) ~length:total in
      let sum_off = 16 + len in
      let stored = Blk.get_u64 image sum_off in
      if not (Int64.equal stored (Blk.hash64 ~len:sum_off image)) then None
      else Some (epoch, Blk.sub image 16 len)
    end
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint: flush, write home, persist tables, restart journal      *)

let apply_home t =
  let bb = block_bytes t in
  let zeros = Bytes.make bb '\000' in
  let dirty =
    Hashtbl.fold (fun b () acc -> (b, zeros) :: acc) t.zeroed
      (Hashtbl.fold (fun b d acc -> (b, d) :: acc) t.dirty [])
  in
  List.iter
    (fun (b, d) ->
      Disk.write t.disk ~offset:((t.layout.data_first + b) * bb) d;
      Lru.add t.cache b (Bytes.copy d))
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) dirty);
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.zeroed

let checkpoint t =
  if t.in_commit then
    raise (Errors.Corrupt "Jld.checkpoint: called during a commit");
  flush_chunk t;
  apply_home t;
  (* home-location data must be durable before the table epoch flips
     and the journal space is reused *)
  Disk.barrier t.disk;
  write_tables t;
  Disk.barrier t.disk;
  t.epoch <- t.epoch + 1;
  t.jptr <- 0;
  t.jseq <- 1;
  t.counters.Counters.checkpoints <- t.counters.Counters.checkpoints + 1

(* Ensure room for [blocks] more journal blocks (checkpointing if
   needed, which is forbidden mid-commit — end_aru reserves ahead). *)
let ensure_journal_room t blocks =
  if journal_remaining t - journal_reserve < blocks then begin
    if t.in_commit then raise Errors.Disk_full;
    checkpoint t
  end

let append t ?payload entry =
  t.pend <- (entry, payload) :: t.pend;
  t.pend_entries <- t.pend_entries + 1;
  t.pend_entry_bytes <- t.pend_entry_bytes + Summary.encoded_size entry;
  (match payload with
  | Some _ ->
    t.pend_data <- t.pend_data + 1;
    cpu t cost.Cost.block_copy_ns
  | None -> ());
  t.counters.Counters.summary_entries <- t.counters.Counters.summary_entries + 1;
  cpu t cost.Cost.summary_entry_ns;
  if t.pend_data >= buffer_blocks then begin
    ensure_journal_room t (pend_chunk_blocks t);
    flush_chunk t
  end

let flush t =
  t.counters.Counters.flushes <- t.counters.Counters.flushes + 1;
  ensure_journal_room t (pend_chunk_blocks t);
  flush_chunk t

(* A freed block's committed data is gone. *)
let forget t b =
  Hashtbl.remove t.dirty (Types.Block_id.to_int b);
  Hashtbl.remove t.zeroed (Types.Block_id.to_int b)

(* Committed data write: journal entry + payload, dirty map update.
   When too much committed data is waiting to go home, checkpoint (the
   write-back bound a real buffer cache would impose). *)
let committed_write t stream b data ~stamp =
  if
    (not t.in_commit)
    && Hashtbl.length t.dirty >= dirty_limit_blocks
  then checkpoint t;
  (* the slot is the payload's index among the chunk's data blocks,
     where journal replay finds it *)
  let slot = t.pend_data in
  append t ~payload:(Blk.to_bytes data)
    { Summary.stream; op = Summary.Write { block = b; slot; stamp } };
  Hashtbl.replace t.dirty (Types.Block_id.to_int b) (Blk.to_bytes data);
  Hashtbl.remove t.zeroed (Types.Block_id.to_int b);
  Lru.remove t.cache (Types.Block_id.to_int b);
  let anchor = Block_map.anchor t.v.Versions.blocks b in
  anchor.Record.stamp <- stamp

(* ------------------------------------------------------------------ *)
(* The LD interface                                                    *)

let begin_aru t =
  Versions.dispatch t.v;
  (Ld_ops.begin_aru t.ops).Aru.id

let new_list t ?aru () = Ld_ops.new_list t.ops ?aru ()

let new_block t ?aru ~list ~pred () =
  Ld_ops.new_block t.ops ?aru ~list ~pred ()

let write t ?aru block data =
  if Bytes.length data <> block_bytes t then
    invalid_arg "Jld.write: data must be exactly one block";
  Ld_ops.write t.ops ?aru block (Blk.of_bytes data)

let read t ?aru block =
  let r = Ld_ops.read t.ops ?aru block in
  match r.Record.data with
  | Some d -> Blk.to_bytes d
  | None -> (
    let key = Types.Block_id.to_int block in
    match Hashtbl.find_opt t.dirty key with
    | Some d -> Bytes.copy d
    | None when Hashtbl.mem t.zeroed key -> Bytes.make (block_bytes t) '\000'
    | None -> (
      match Lru.find t.cache key with
      | Some d ->
        t.counters.Counters.cache_hits <- t.counters.Counters.cache_hits + 1;
        Bytes.copy d
      | None ->
        t.counters.Counters.cache_misses <- t.counters.Counters.cache_misses + 1;
        let bb = block_bytes t in
        let d =
          Disk.read t.disk ~offset:((t.layout.data_first + key) * bb) ~length:bb
        in
        Lru.add t.cache key (Bytes.copy d);
        d))

let delete_block t ?aru block = Ld_ops.delete_block t.ops ?aru block
let delete_list t ?aru list = Ld_ops.delete_list t.ops ?aru list

(* ------------------------------------------------------------------ *)
(* Commit / abort                                                      *)

let end_aru t aid =
  Versions.dispatch t.v;
  let a = Versions.find_aru t.v aid in
  cpu t cost.Cost.aru_commit_ns;
  (* reserve journal room for the whole commit before starting it *)
  let data_bound = Aru.shadow_block_count a in
  ensure_journal_room t
    (pend_chunk_blocks t + data_bound + 2 + buffer_blocks);
  t.in_commit <- true;
  Fun.protect ~finally:(fun () -> t.in_commit <- false) @@ fun () ->
  Ld_ops.replay_log t.ops a t.committed;
  Ld_ops.merge_shadow t.ops a
    ~write:(committed_write t (Summary.In_aru aid));
  append t { Summary.stream = Summary.Simple; op = Summary.Commit { aru = aid } };
  Versions.clear_owner_marks t.v a;
  Hashtbl.remove t.v.Versions.arus (Types.Aru_id.to_int aid);
  t.counters.Counters.arus_committed <- t.counters.Counters.arus_committed + 1

let abort_aru t aid =
  Versions.dispatch t.v;
  Ld_ops.abort t.ops aid

(* JLD has no group-commit engine: a submitted commit applies
   immediately, so the queue is always empty and a flush commits
   nothing.  This matches the [Ld_intf.S] contract's degenerate case. *)
let submit_commit t aid = end_aru t aid
let flush_commits _t = 0

let with_aru t f =
  Lld_core.Ld_intf.with_aru ~begin_aru ~end_aru ~undo:abort_aru t f

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let list_exists t = Versions.list_exists t.v
let block_allocated t = Versions.block_allocated t.v
let block_member t = Versions.block_member t.v
let list_blocks t = Versions.list_blocks t.v
let lists t = Versions.lists t.v
let orphan_blocks t = Versions.orphan_blocks t.v

let scavenge t =
  let freed = ref 0 in
  List.iter
    (fun lid ->
      delete_list t lid;
      incr freed)
    (Versions.abandoned_lists t.v);
  List.iter
    (fun bid ->
      let anchor = Block_map.anchor t.v.Versions.blocks bid in
      anchor.Record.alloc_owner <- None;
      delete_block t bid;
      incr freed)
    (orphan_blocks t);
  !freed

(* ------------------------------------------------------------------ *)
(* Construction and recovery                                           *)

(* The LD operations' storage effects, for the handle [self] is about to
   become: the anchors are the committed records, every entry goes to
   the journal, committed data waits in [dirty] for its home location,
   and a shadow record keeps its own copy of its data. *)
let sink v committed (self : t Lazy.t) =
  let t () = Lazy.force self in
  {
    Ld_ops.committed_block = Block_map.anchor v.Versions.blocks;
    committed_list = List_table.anchor v.Versions.lists;
    committed_ctx = committed;
    log = (fun stream op _ -> append (t ()) { Summary.stream; op });
    write_data =
      (fun stream b data ~stamp -> committed_write (t ()) stream b data ~stamp);
    forget = (fun r -> forget (t ()) r.Record.id);
    allocated =
      (fun r -> Hashtbl.replace (t ()).zeroed (Types.Block_id.to_int r.Record.id) ());
    hold_data = (fun r data -> r.Record.data <- Some (Blk.copy data));
    drop_data = (fun r -> r.Record.data <- None);
  }

let make disk layout =
  let geom = Disk.geometry disk in
  let counters = Counters.create () in
  let v =
    Versions.create ~layers:Versions.Anchors_shadows
      ~visibility:Lld_core.Config.Own_shadow ~clock:(Disk.clock disk)
      ~cost ~counters
      (Block_map.create ~capacity:layout.capacity)
      (List_table.create ~max_lists:layout.capacity)
  in
  let committed =
    Versions.anchor_ctx ~on_pred_hop:(Versions.pred_hop v) v.Versions.blocks
      v.Versions.lists
  in
  let rec self =
    lazy
      {
        disk;
        geom;
        clock = Disk.clock disk;
        layout;
        v;
        committed;
        ops = Ld_ops.create ~name:"Jld" v (sink v committed self);
        epoch = 0;
        jptr = 0;
        jseq = 1;
        pend = [];
        pend_entries = 0;
        pend_entry_bytes = 0;
        pend_data = 0;
        dirty = Hashtbl.create 256;
        zeroed = Hashtbl.create 64;
        cache = Lru.create ~capacity:cache_blocks;
        counters;
        in_commit = false;
        obs = Lld_obs.Obs.null;
      }
  in
  Lazy.force self

let create disk =
  let geom = Disk.geometry disk in
  let bb = geom.Geometry.block_bytes in
  let total_blocks = Geometry.total_bytes geom / bb in
  let layout = layout_of ~total_blocks in
  let t = make disk layout in
  Disk.write disk ~offset:0 (encode_superblock bb layout);
  (* epoch 1 tables on both regions so stale state never resurfaces *)
  write_tables t;
  t.epoch <- 1;
  write_tables t;
  t.epoch <- 2;
  t

(* Journal replay: chunks in order, every entry through the shared REDO
   replay ([Recovery.replay]), whose splice context is the committed one,
   so predecessor searches are charged as at run time.  An entry's
   payload is its chunk's data: a Write's slot indexes it. *)
let replay_journal t =
  let bb = block_bytes t in
  let key r = Types.Block_id.to_int r.Record.id in
  let st =
    Recovery.replay t.committed
      {
        Recovery.on_alloc = (fun r -> Hashtbl.replace t.zeroed (key r) ());
        on_write =
          (fun r ~slot data ->
            Hashtbl.replace t.dirty (key r) (data slot);
            Hashtbl.remove t.zeroed (key r));
        on_free = (fun r -> forget t r.Record.id);
      }
  in
  let chunks = ref 0 in
  let stop = ref false in
  while not !stop do
    if t.jptr >= t.layout.journal_blocks then stop := true
    else begin
      let head =
        Disk.read t.disk ~offset:((t.layout.journal_first + t.jptr) * bb) ~length:bb
      in
      if Blk.get_u32_bytes head 0 <> 0x4a43484b then stop := true
      else begin
        let epoch = Int64.to_int (Bytes.get_int64_le head 4) in
        let seq = Int64.to_int (Bytes.get_int64_le head 12) in
        let entry_count = Blk.get_u32_bytes head 20 in
        let entries_len = Blk.get_u32_bytes head 24 in
        let data_count = Blk.get_u32_bytes head 28 in
        let total =
          chunk_header_bytes + entries_len + (data_count * bb)
          + chunk_trailer_bytes
        in
        let blocks = (total + bb - 1) / bb in
        if
          epoch <> t.epoch || seq <> t.jseq
          || t.jptr + blocks > t.layout.journal_blocks
        then stop := true
        else begin
          let image =
            Disk.read t.disk
              ~offset:((t.layout.journal_first + t.jptr) * bb)
              ~length:(blocks * bb)
          in
          let sum_off = Bytes.length image - chunk_trailer_bytes in
          let stored = Bytes.get_int64_le image sum_off in
          if not (Int64.equal stored (Blk.hash64 ~len:sum_off (Blk.of_bytes image)))
          then stop := true
          else begin
            let r =
              Blk.Reader.of_view ~pos:chunk_header_bytes ~len:entries_len
                (Blk.of_bytes image)
            in
            let data_off = chunk_header_bytes + entries_len in
            let data slot = Bytes.sub image (data_off + (slot * bb)) bb in
            List.iter
              (Recovery.replay_entry st data)
              (List.init entry_count (fun _ -> Summary.decode r));
            t.jptr <- t.jptr + blocks;
            t.jseq <- t.jseq + 1;
            incr chunks
          end
        end
      end
    end
  done;
  Recovery.sweep st t.v.Versions.blocks t.v.Versions.lists;
  t.ops.Ld_ops.stamp <- max t.ops.Ld_ops.stamp (Recovery.max_stamp st + 1);
  t.ops.Ld_ops.next_aru <- max t.ops.Ld_ops.next_aru (Recovery.next_aru st);
  !chunks

let recover disk =
  Lld_disk.Fault.reset_after_recovery (Disk.fault disk);
  let geom = Disk.geometry disk in
  let bb = geom.Geometry.block_bytes in
  let layout = decode_superblock (Disk.read disk ~offset:0 ~length:bb) in
  let a = read_tables disk bb layout layout.table_a_first in
  let b = read_tables disk bb layout layout.table_b_first in
  (* the higher epoch wins (region A on a tie); when its payload does
     not decode, a fresh handle takes the other region *)
  let restore (epoch, payload) =
    let t = make disk layout in
    match
      Lld_core.Checkpoint.decode_into t.v.Versions.blocks t.v.Versions.lists
        payload
    with
    | snap ->
      t.epoch <- epoch;
      t.ops.Ld_ops.stamp <- snap.Lld_core.Checkpoint.stamp;
      t.ops.Ld_ops.next_aru <- snap.Lld_core.Checkpoint.next_aru;
      Some t
    | exception Errors.Corrupt _ -> None
  in
  let newest_first =
    List.stable_sort
      (fun (ea, _) (eb, _) -> Int.compare eb ea)
      (List.filter_map Fun.id [ a; b ])
  in
  let t =
    match List.find_map restore newest_first with
    | Some t -> t
    | None -> raise (Errors.Corrupt "JLD: no valid tables")
  in
  let chunks = replay_journal t in
  Block_map.rebuild_free t.v.Versions.blocks;
  List_table.rebuild_free t.v.Versions.lists;
  (* a fresh checkpoint writes the recovered data home and restarts the
     journal under a new epoch *)
  checkpoint t;
  (t, chunks)
