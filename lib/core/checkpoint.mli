(** Checkpoints of the persistent state.

    A checkpoint bounds recovery: it captures the block-number-map and
    list-table as of a log position, so recovery restores it and replays
    only later segments.  It also enables cleaning — a log segment may
    be reused only once a checkpoint covers its summary (DESIGN.md
    §5.3).

    Checkpoints additionally capture the {e pending} ARU entries: the
    [In_aru] summary entries already emitted (in covered segments) whose
    commit record has not yet been written.  Recovery re-buffers them,
    so an ARU whose commit record lands after the checkpoint still
    commits atomically, and one that never commits is still discarded
    wholesale.

    Checkpoints come in two generations.  A {e full} checkpoint captures
    the complete block map and list table.  A {e delta} captures only
    the entries dirtied since the last full one (plus tombstones for
    entries that disappeared), and names that full's [ckpt_id] as its
    base; deltas are cumulative, so at most one full + one delta are
    ever live.  Two fixed regions at the front of the partition hold
    them: the full stays put while deltas overwrite the other region,
    and a new full takes the delta region over (the old full is the
    fallback while it is being written).  Each chunk carries a checksum,
    so a crash during any checkpoint write leaves the previous
    consistent generation intact, and {!read_best} performs the
    generation selection: newest consistent wins, a torn newest falls
    back.  Only the generation restored (and the full it rests on) is
    decoded. *)

type pending_entry = {
  pe_op : Summary.op;
  pe_seg : int;
      (** disk segment whose summary held the entry ([Write] slots are
          relative to it) *)
}

(** The entry fields carry the persistent record's own values, so
    taking an entry from a record and restoring a record from an entry
    share the option boxes (and the [phys] record) instead of copying
    them.  On disk each optional identifier is one u32 (0 for [None],
    the identifier plus one otherwise). *)
type block_entry = {
  b_id : int;
  b_member : Types.List_id.t option;
  b_succ : Types.Block_id.t option;
  b_phys : Record.phys option;
  b_stamp : int;
}

type list_entry = {
  l_id : int;
  l_first : Types.Block_id.t option;
  l_last : Types.Block_id.t option;
  l_stamp : int;
  l_owner : Types.Aru_id.t option;
      (** allocating ARU if it was still active at checkpoint time *)
}

type kind =
  | Full  (** complete block map + list table *)
  | Delta of { base_id : int }
      (** only entries dirtied since full checkpoint [base_id]
          (cumulative: each delta supersedes the previous one) *)

type snapshot = {
  ckpt_id : int;  (** monotonically increasing across checkpoints *)
  kind : kind;
  covered_seq : int;  (** all segments with seq <= this are captured *)
  next_seq : int;
  stamp : int;
  next_aru : int;
  next_gid : int;
      (** next cross-shard transaction id this shard will hand out or
          witness; persisting the watermark keeps gids globally unique
          across incarnations, so a stale [Decide] record in a
          not-yet-reused segment can never vouch for a new prepare *)
  blocks : block_entry list;  (** allocated blocks only (dirty only in a delta) *)
  lists : list_entry list;  (** existing lists only (dirty only in a delta) *)
  dead_blocks : int list;
      (** delta tombstones: blocks deallocated since the base full *)
  dead_lists : int list;
      (** delta tombstones: lists deleted since the base full *)
  pending : (int * pending_entry list) list;
      (** ARU id -> its buffered entries, in emission order *)
  free_order : int list;
      (** disk segment indices in the exact order the log will use them
          next; recovery reads only these (in order) to find the log
          tail instead of scanning the whole partition *)
  prepared : (int * int * int) list;
      (** [(aru, gid, coordinator)] for every ARU prepared under
          two-phase commit and not yet decided: a checkpoint may land
          between a shard's [Prepare] record and its (lazy) [Decide], so
          prepared status must survive the covered segments' retirement.
          The ARU's entries stay in [pending]; recovery resolves these
          against the coordinator shard's decisions (DESIGN.md §5.14). *)
}

val empty : snapshot
(** The snapshot written by [mkfs]: [ckpt_id = 1], nothing allocated. *)

val encode : snapshot -> Lld_util.Blk.t
val decode : Lld_util.Blk.t -> snapshot
(** Raises [Errors.Corrupt] on malformed input. *)

val chunk_capacity : Lld_disk.Geometry.t -> int
(** Payload bytes one region segment holds.  A payload of at most this
    many bytes is written as one chunk, and read back as a view of its
    segment's read; a longer one spans several chunks, stitched into
    one payload on read. *)

val write : Lld_disk.Disk.t -> region:int -> snapshot -> unit
(** Serialise into the region's segments.  Raises [Errors.Disk_full]
    when the payload exceeds the region (only possible with enormous
    pending-ARU state). *)

val read_region : Lld_disk.Disk.t -> region:int -> snapshot option
(** The region's checkpoint, read, checksummed and decoded: [None] when
    the region holds no complete, checksummed checkpoint or its payload
    does not decode. *)

type best = {
  best_snap : snapshot;
      (** effective (composed when a delta won) snapshot to restore *)
  best_region : int;  (** region of the winning generation *)
  best_full_region : int;
      (** region of the full base the winner depends on (equal to
          [best_region] when a full won) — the next full checkpoint must
          target the {e other} region or a torn write could destroy both
          generations at once *)
}

val read_best : Lld_disk.Disk.t -> best option
(** Generation selection over both regions: every decodable full is a
    candidate, a decodable delta is a candidate only if its exact base
    full is also decodable, and the candidate with the highest
    [ckpt_id] wins.  [None] when neither region yields a candidate.  The
    winner is chosen from each payload's header (version, kind, base id,
    [ckpt_id]), and only the winner is decoded, plus its base when a
    delta wins; the result is the same as decoding both regions first.
    A region whose read raises [Fault.Media_error] counts as empty, so
    recovery survives an unreadable region by falling back to the other
    generation.  Both regions are always read and checksummed. *)
