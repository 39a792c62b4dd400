(** Crash recovery: REDO-only replay of the log tail over the newest
    consistent checkpoint generation (paper §3.3, DESIGN.md §5.10).

    {!recover} runs in phases, each a [recovery] span:

    + {e checkpoint restore} — {!Checkpoint.read_best} picks the newest
      consistent generation (a full, or a delta over its full base; a
      torn newest falls back) and decodes it straight into a fresh
      block-number map and list table: the base full first, then the
      delta.  Both regions are read and checksummed, but only the
      generation restored (and its base) is decoded.  A region that
      raises a media error is treated as empty.
    + {e tail scan} ([replay]) — segments sealed after the checkpoint
      are read along the checkpoint's recorded free order until the
      sequence numbers stop being contiguous (a torn or unwritten
      segment ends the stream).  Everything at or below [covered_seq] is
      {e skipped} — restart cost is proportional to the work since the
      last checkpoint, not to the log length.
    + {e apply} — the tail's summary entries replay in log order through
      the {{!section:replay}summary-entry replay} below, seeded with the
      checkpoint's pending ARU entries and prepared marks: ARUs whose
      commit record never reached disk are discarded wholesale.
    + {e resolve prepared} — ARUs left prepared under two-phase commit
      with no [Decide] record are resolved in ARU-id order.
    + {e sweep} — the consistency sweep frees blocks that are allocated
      but on no list and still-empty lists of ARUs that never committed
      — the remains of their allocations (paper §3.3) — and drops every
      owner mark.  The free pools are then rebuilt.

    Only the first two phases read the disk; the rest is CPU work that
    charges nothing to the virtual clock. *)

type report = {
  checkpoint_id : int;
  checkpoint_region : int;
      (** region of the generation restored (the delta's region when a
          delta won) *)
  full_region : int;
      (** region of the full base that generation rests on; the next
          full checkpoint must target the {e other} region *)
  superblock_epoch : int;
      (** the newest valid superblock generation found at mount; a
          single corrupted slot is tolerated (the survivor carries the
          epoch and [lld scrub] rewrites the bad one), both slots
          invalid on a disk whose checkpoints still parse raises
          [Errors.Corruption All_generations_corrupted] *)
  covered_seq : int;  (** log position the checkpoint captured *)
  segments_replayed : int;
  segments_skipped : int;
      (** segments the checkpoint made it unnecessary to read
          (= [covered_seq]: every sealed segment at or below it) *)
  replay_groups : int;
      (** always 1: the tail replays in one pass.  Kept because the
          frozen benchmark reads it, and deleted once the benchmark
          stops reading it *)
  parallel_replay : bool;
      (** always [false]: replay never runs on domains.  Kept because
          the frozen benchmark reads it, and deleted once the benchmark
          stops reading it *)
  invalid_segments : int;  (** torn, unreadable, or stale *)
  entries_applied : int;
  arus_committed : int;  (** from buffered entries (incl. checkpoint-pending) *)
  arus_discarded : int;
  entries_discarded : int;
  replay_skips : int;  (** conflicting merge operations skipped, see {!Splice} *)
  blocks_scavenged : int;
  lists_scavenged : int;
      (** still-empty lists of ARUs that never committed *)
  disk_reads : int;
      (** [Disk.read] calls the tail scan issued: physically contiguous
          runs of the checkpoint's free order are fetched in one batched
          read each, so this is at most — and for a contiguous tail far
          below — [segments_replayed + 1] *)
  prepares_committed : int;
      (** dangling two-phase-commit prepares resolved as committed via
          the [decisions] lookup (a participant crash after the
          coordinator's decision but before the lazy [Decide]) *)
  prepares_aborted : int;
      (** dangling prepares resolved as aborted — no reachable commit
          decision, so presumed abort (DESIGN.md §5.14) *)
}

val pp_report : Format.formatter -> report -> unit

type restored = {
  r_blocks : Block_map.t;
  r_lists : List_table.t;
  r_next_seq : int;  (** sequence number for the next segment *)
  r_stamp : int;  (** operation timestamp to resume from *)
  r_next_aru : int;
  r_next_gid : int;
      (** cross-shard transaction-id watermark: max of the checkpoint's
          [next_gid] and every gid seen in the replayed tail, plus one *)
  r_report : report;
}

val recover :
  ?obs:Lld_obs.Obs.t -> ?sweep:bool -> ?decisions:(int -> bool option) ->
  Lld_disk.Disk.t -> restored
(** Recover the tables a crashed disk held.  Raises [Errors.Corrupt]
    when nothing on the disk parses (never formatted), and
    [Errors.Corruption All_generations_corrupted] when the superblock
    and the checkpoint regions contradict each other — a formatted
    image whose generation pointers (or both checkpoint generations)
    were destroyed.  [sweep] (default [true]) enables the consistency
    sweep; see {!Config.t.recovery_sweep} for the test-only reason to
    disable it.  [decisions] resolves an ARU left {e prepared} under
    two-phase commit with no [Decide] record in this log: [Some true]
    commits it, anything else aborts it (presumed abort).  The sharded
    front-end passes the union of the [Decide] records in every shard's
    log; the default resolves nothing, which is correct for a standalone
    disk.  [obs] (default {!Lld_obs.Obs.null}) records the [recovery]
    phase spans — [checkpoint_restore], [replay], [apply],
    [resolve_prepared], [sweep] — and their latency histograms. *)

(** {1:replay Summary-entry replay}

    The REDO semantics of a summary entry, written once for both
    logical disks: {!recover} replays LLD's log tail through it, and
    [Jld] its journal.  [Simple] entries apply at their position;
    an ARU's [In_aru] entries are buffered until its [Commit],
    [Commit_group] or committing [Decide] record, and those of an ARU
    with none are never applied.  ['p] is the payload an entry arrives
    with: the segment whose summary held it on LLD, the journal chunk's
    data on JLD. *)

type 'p effects = {
  on_alloc : Record.block -> unit;  (** an [Alloc] was applied *)
  on_write : Record.block -> slot:int -> 'p -> unit;
      (** a [Write] was applied: its data is at [slot] of the payload *)
  on_free : Record.block -> unit;
      (** a block was freed by [Dealloc], [Delete_list] or the sweep *)
}
(** The storage effects of a replay, fixed when it is built; the
    records themselves are updated by the shared code. *)

type 'p replay

val replay : Splice.ctx -> 'p effects -> 'p replay
(** A replay over the persistent records the context reaches (an anchor
    context).  It reads no clock and charges only the context's
    [on_pred_hop]. *)

val replay_entry : 'p replay -> 'p -> Summary.t -> unit

val max_stamp : 'p replay -> int
(** The largest stamp an entry carried (0 when none). *)

val next_aru : 'p replay -> int
(** One past the largest ARU id an [In_aru] entry named (0 when none). *)

val outcomes : 'p replay -> int * int
(** Entries applied and entries skipped so far ({!recover}'s
    [entries_applied] and [replay_skips]).  A commit record found among
    an ARU's buffered entries is skipped: Lld and Jld write commit
    records only on the [Simple] stream. *)

val sweep : 'p replay -> Block_map.t -> List_table.t -> unit
(** The consistency sweep (paper §3.3), once every entry is replayed: a
    block allocated but on no list is freed, and so is a list created by
    an ARU that never committed and left empty; every owner mark is
    dropped.  {!recover} sweeps by the same rule. *)
