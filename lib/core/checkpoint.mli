(** Checkpoints of the persistent state.

    A checkpoint bounds recovery: it captures the block-number-map and
    list-table as of a log position, so recovery restores it and replays
    only later segments.  It also enables cleaning — a log segment may
    be reused only once a checkpoint covers its summary (DESIGN.md
    §5.3).  This module is the one that knows which anchor fields
    persist: the encoder reads them from the tables, and the decoder
    writes them straight back.

    Checkpoints additionally capture the {e pending} ARU entries: the
    [In_aru] summary entries already emitted (in covered segments) whose
    commit record has not yet been written.  Recovery re-buffers them,
    so an ARU whose commit record lands after the checkpoint still
    commits atomically, and one that never commits is still discarded
    wholesale.

    Checkpoints come in two generations.  A {e full} checkpoint captures
    every allocated block and existing list.  A {e delta} captures only
    the anchors dirtied since the last full one (a tombstone for each
    that is no longer allocated), and names that full's [ckpt_id] as its
    base; deltas are cumulative, so at most one full + one delta are
    ever live.  Two fixed regions at the front of the partition hold
    them: the full stays put while deltas overwrite the other region,
    and a new full takes the delta region over (the old full is the
    fallback while it is being written).  Each chunk carries a checksum,
    so a crash during any checkpoint write leaves the previous
    consistent generation intact, and {!read_best} performs the
    generation selection: newest consistent wins, a torn newest falls
    back.  Only the generation restored (and the full it rests on) is
    decoded: the base full into fresh tables, then the delta over it. *)

type pending_entry = {
  pe_op : Summary.op;
  pe_seg : int;
      (** disk segment whose summary held the entry ([Write] slots are
          relative to it) *)
}

type kind =
  | Full  (** every allocated block and existing list *)
  | Delta of { base_id : int; blocks : int list; lists : int list }
      (** the block and list ids dirtied since full checkpoint
          [base_id], ascending (cumulative: each delta supersedes the
          previous one).  An id whose anchor is allocated (exists) is
          written as an entry, any other as a tombstone. *)

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
(** What a checkpoint carries beside the tables. *)

val encode :
  owner_active:(Types.Aru_id.t -> bool) ->
  Block_map.t ->
  List_table.t ->
  snapshot ->
  Lld_util.Blk.t
(** The anchors [kind] names, then the snapshot's other fields.  A
    block entry is its id, [member_of], [successor], [phys] and
    [stamp]; a list entry its id, [first], [last], [lstamp] and
    [l_owner], kept only while [owner_active] holds for it.  On disk
    each optional identifier is one u32 (0 for [None], the identifier
    plus one otherwise).  A delta's ids must lie inside the tables. *)

val decode_into : Block_map.t -> List_table.t -> Lld_util.Blk.t -> snapshot
(** Write each entry's fields into its anchor, reset each tombstoned
    anchor to a fresh one's values, and return the rest; a delta's
    [kind] lists the ids it named.  Raises [Errors.Corrupt] on malformed
    input, an identifier outside the tables included, after writing any
    prefix of the entries. *)

val chunk_capacity : Lld_disk.Geometry.t -> int
(** Payload bytes one region segment holds.  A payload of at most this
    many bytes is written as one chunk, and read back as a view of its
    segment's read; a longer one spans several chunks, stitched into
    one payload on read. *)

val write :
  Lld_disk.Disk.t ->
  region:int ->
  owner_active:(Types.Aru_id.t -> bool) ->
  Block_map.t ->
  List_table.t ->
  snapshot ->
  unit
(** Serialise ({!encode}) into the region's segments.  Raises
    [Errors.Disk_full] when the payload exceeds the region (only
    possible with enormous pending-ARU state). *)

type best = {
  best_snap : snapshot;  (** the winning generation's fields *)
  best_blocks : Block_map.t;
  best_lists : List_table.t;
      (** the restored tables: the winner's, over its base when it is a
          delta *)
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
    [ckpt_id]), then decoded into fresh tables sized for the disk, its
    base full first when a delta wins; the result is the same as
    decoding both regions first.  A region whose read raises
    [Fault.Media_error] counts as empty, so recovery survives an
    unreadable region by falling back to the other generation.  Both
    regions are always read and checksummed. *)
