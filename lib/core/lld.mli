(** The log-structured Logical Disk with concurrent atomic recovery
    units — the system the paper builds and evaluates.

    The interface is the LD interface of the paper (§2–§3): logical
    blocks organised into ordered lists, with [Read] / [Write] /
    [NewBlock] / [DeleteBlock] / [NewList] / [DeleteList] / [Flush],
    extended with [BeginARU] / [EndARU].  Passing [?aru] to an operation
    executes it inside that atomic recovery unit; omitting it makes the
    operation {e simple} — an ARU by itself.

    Failure semantics: after a crash, {!recover} restores exactly the
    most recent persistent state — every ARU whose commit record reached
    the disk in full, and no operation of any other ARU (except
    identifier allocations, which recovery's consistency sweep releases
    again; paper §3.3).

    Concurrency control is the client's responsibility (paper §3):
    the implementation is single-threaded and ARUs are isolated only in
    the visibility sense of {!Config.visibility}. *)

type t

(** {1 Formatting, mounting, recovering} *)

val create : ?config:Config.t -> ?obs:Lld_obs.Obs.t -> Lld_disk.Disk.t -> t
(** Format the disk (mkfs): writes initial checkpoints and starts an
    empty logical disk.  Previous contents become unreachable.  [obs]
    (default {!Lld_obs.Obs.null}) is attached as by {!set_obs}. *)

val recover :
  ?config:Config.t -> ?obs:Lld_obs.Obs.t ->
  ?decisions:(int -> bool option) -> Lld_disk.Disk.t ->
  t * Recovery.report
(** Mount after a crash (or clean shutdown): restores the most recent
    persistent state, discards uncommitted ARUs, runs the consistency
    sweep, and writes a fresh checkpoint.  Raises [Errors.Corrupt] on an
    unformatted disk.  [obs] is attached before recovery runs, so the
    [recovery] phase spans and the disk reads of the log-tail replay
    appear in the trace.

    Recovery finishes before this returns: the live-block index and
    the free-segment queue are rebuilt and the post-recovery checkpoint
    is written, so no later operation does recovery work. *)

(** {1 The LD interface} *)

val begin_aru : t -> Types.Aru_id.t
(** Open an atomic recovery unit.  In sequential mode raises
    [Errors.Aru_already_active] when one is already open. *)

val end_aru : t -> Types.Aru_id.t -> unit
(** Commit: replay the ARU's list-operation log in the committed state,
    merge its shadow data versions, and write the commit record (paper
    §4).  Raises [Errors.Unknown_aru] if not active,
    [Errors.Commit_pending] if queued by {!submit_commit}. *)

val abort_aru : t -> Types.Aru_id.t -> unit
(** Discard the ARU's shadow state.  Blocks and lists it allocated
    remain allocated (paper §3.3) until {!scavenge} or recovery frees
    them.  An ARU queued by {!submit_commit} is dequeued first (its
    commit intent is withdrawn — the batch it would have joined no
    longer contains it) and then aborts normally.  Concurrent mode
    only; raises [Invalid_argument] in sequential mode. *)

val submit_commit : t -> Types.Aru_id.t -> unit
(** Queue a commit intent for group commit (DESIGN.md §5.11): the ARU
    stops accepting operations and commits at the next
    {!flush_commits}, sharing one segment seal — one barrier — with
    every other ARU in the batch.  With
    {!Config.t.group_commit_window}[ = 0], or in sequential mode,
    degenerates to {!end_aru} (bit-identical log).  Raises
    [Errors.Unknown_aru] if not active, [Errors.Commit_pending] if
    already queued. *)

val flush_commits : t -> int
(** Drain the commit queue now, in FIFO order: merge every queued ARU
    into the committed state, write one batched [Commit_group] record
    per sub-batch (a sub-batch closes at
    {!Config.t.group_commit_batch} ARUs or when the open segment runs
    out of reserved room) and seal once per sub-batch.  Returns the
    number of ARUs committed (0 when the queue is empty — no seal is
    paid). *)

val commit_due : t -> bool
(** Whether the commit queue should be flushed now: it is non-empty
    and either {!Config.t.group_commit_batch} intents are queued or
    the oldest has waited {!Config.t.group_commit_window} virtual
    nanoseconds. *)

val commit_pending : t -> Types.Aru_id.t -> bool
(** Whether this ARU sits in the commit queue. *)

val pending_commits : t -> int
(** Commit intents currently queued. *)

(** {1 Two-phase commit across shards}

    The sharded front-end ({!Shard}) commits an ARU that touched
    several shards with one {!prepare_commit} per non-coordinator
    participant, one {!decide_commit} on the coordinator — the
    transaction's single commit point — and one lazy {!commit_prepared}
    per participant afterwards.  [gid] is the cross-shard transaction
    id (unique across incarnations, see {!next_gid}); [coordinator] is
    the coordinator's shard index, recorded in the [Prepare] record so
    recovery knows whose log to consult (DESIGN.md §5.14).  Concurrent
    mode only. *)

val prepare_commit :
  t -> Types.Aru_id.t -> gid:int -> coordinator:int -> unit
(** Phase 1 on a participant: merge the ARU into the committed state,
    write the [Prepare] record and seal (the prepare barrier).  The
    merged records stay un-promoted until the decision.  Raises
    [Errors.Unknown_aru] if not active, [Errors.Commit_pending] if
    queued or already prepared. *)

val decide_commit : t -> Types.Aru_id.t -> gid:int -> unit
(** The decision on the coordinator: merge its own slice, write the
    [Decide] record (commit) and seal.  The coordinator needs no
    prepare — its slice commits or dies with the decision record. *)

val commit_prepared : t -> Types.Aru_id.t -> unit
(** Phase 2 on a participant: write the lazy [Decide] record and stamp
    the prepared merge durable.  No seal — durability rides on the next
    natural barrier; until then recovery resolves the dangling prepare
    against the coordinator's log.  Raises [Errors.Unknown_aru] when the
    ARU is not prepared. *)

val abort_prepared : t -> Types.Aru_id.t -> unit
(** Abort a prepared ARU (coordinator refused or died before deciding,
    observed while still mounted): writes a [Decide] abort record,
    withdraws the merged records and aborts the ARU.  Raises
    [Errors.Unknown_aru] when the ARU is not prepared. *)

val prepared_arus : t -> int list
(** ARU ids currently sitting between [Prepare] and [Decide],
    ascending. *)

val next_gid : t -> int
(** The cross-shard transaction-id watermark (persisted in checkpoints,
    restored past every gid seen in the log). *)

val with_aru : t -> (Types.Aru_id.t -> 'a) -> 'a
(** [with_aru t f] brackets [f] in an ARU: commits on normal return,
    aborts (concurrent mode) and re-raises on exception.  In sequential
    mode an exception still commits the already-applied operations —
    the old prototype cannot undo (one more reason the paper built the
    new one). *)

val new_list : t -> ?aru:Types.Aru_id.t -> unit -> Types.List_id.t
(** Allocate a new, empty list.  Allocation always happens in the
    committed state, even inside an ARU.  Raises [Errors.Disk_full]. *)

val new_block :
  t ->
  ?aru:Types.Aru_id.t ->
  list:Types.List_id.t ->
  pred:Summary.pred ->
  unit ->
  Types.Block_id.t
(** Allocate a block and insert it into [list] at [pred].  The
    allocation is committed immediately; the insertion belongs to the
    ARU's shadow state when [?aru] is given (paper §3.3). *)

val write_view : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> Lld_util.Blk.t -> unit
(** Write one full block of data, zero-copy.  The committed path blits
    the caller's view straight into the open segment's write buffer; the
    shadow path (inside an ARU) copies it into the shadow arena — the
    version must outlive the caller's buffer until commit.  Either way
    the view is not retained: the caller may reuse its buffer as soon as
    the call returns.  Raises [Invalid_argument] on a wrong size,
    [Errors.Unallocated_block] when the block is not allocated in the
    addressed state. *)

val write : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> bytes -> unit
(** [bytes] compatibility wrapper over {!write_view}; counts one block
    of [Counters.t.bytes_copied] for the boundary conversion. *)

val read_view : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> Lld_util.Blk.t
(** Read a block according to the configured visibility (paper §3.3),
    zero-copy: the result aliases the LRU cache, the open segment's
    write buffer, or a shadow arena slot, and is valid only until the
    next mutating operation on [t] (write, commit, flush, clean,
    checkpoint, scrub).  Copy it ({!Lld_util.Blk.to_bytes} or
    [Blk.blit]) to keep it.  Never returns a short view.  A block that
    was never written reads as zeroes.  Raises
    [Errors.Corruption (Invalid_checksum _)] when the on-disk copy fails
    its CRC and no clean copy is cached — run {!scrub}. *)

val read : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> bytes
(** [bytes] compatibility wrapper over {!read_view}: a private copy,
    valid forever; counts one block of [Counters.t.bytes_copied]. *)

val delete_block : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> unit
(** Remove the block from its list (predecessor search!) and deallocate
    it. *)

val delete_list : t -> ?aru:Types.Aru_id.t -> Types.List_id.t -> unit
(** Deallocate every block still on the list (walking from the head — no
    predecessor searches), then the list.  The cheap deletion path of
    paper §5.3. *)

val flush : t -> unit
(** Ensure all committed data and meta-data are persistent: seals and
    writes the open segment (paper §2's [Flush]). *)

(** {1 Introspection} *)

val list_exists : t -> ?aru:Types.Aru_id.t -> Types.List_id.t -> bool
val block_allocated : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> bool

val block_member :
  t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> Types.List_id.t option

val block_phys : t -> Types.Block_id.t -> (int * int) option
(** The committed anchor's on-disk location, [(segment, slot)] — [None]
    while the latest version only lives in the open segment's buffer or
    was never written.  Diagnostic (scrub tests, [lld info]). *)

val list_blocks :
  t -> ?aru:Types.Aru_id.t -> Types.List_id.t -> Types.Block_id.t list
(** Members in list order.  Raises [Errors.Unallocated_list]. *)

val lists : t -> Types.List_id.t list
(** All lists existing in the committed state, ascending. *)

val aru_active : t -> Types.Aru_id.t -> bool
val active_arus : t -> Types.Aru_id.t list

val capacity : t -> int
(** Logical blocks this disk exposes. *)

val allocated_blocks : t -> int
val block_bytes : t -> int

(** {1 Maintenance} *)

val checkpoint : t -> unit
(** Flush, then write a checkpoint, bounding recovery replay.  Written
    as an incremental delta while the set of anchors dirtied since the
    last full checkpoint is at most
    {!Config.t.checkpoint_dirty_threshold}, as a full image otherwise
    (see {!Checkpoint}).  Safe at any time in concurrent mode (pending
    ARU entries travel with the checkpoint); in sequential mode raises
    [Errors.Aru_already_active] while an ARU is open — the old prototype
    must quiesce (DESIGN.md §5.3). *)

val clean : t -> target_free:int -> unit
(** Run the segment cleaner until at least [target_free] segments are
    free.  Raises [Errors.Disk_full] when nothing can be reclaimed. *)

type scrub_report = {
  scrub_segments : int;  (** sealed segments holding live data scanned *)
  scrub_bad_slots : int;  (** live block slots that failed their CRC *)
  scrub_repaired : int;  (** rewritten from the pristine cached copy *)
  scrub_salvaged : int;
      (** slot CRC table itself was gone (unparsable segment meta) but
          the raw slot bytes were recovered unverified *)
  scrub_lost : int;  (** bad slot, no redundant copy — data loss *)
  scrub_superblock_repaired : int;  (** superblock slots rewritten *)
}

val pp_scrub_report : Format.formatter -> scrub_report -> unit

val scrub : t -> scrub_report
(** Verify every checksum protecting live data and repair what
    redundancy allows (DESIGN.md §5.13): both superblock generation
    slots (a corrupt one is rewritten from the in-memory mirror, or
    synthesised from the checkpoint counters), and the CRC of every
    sealed-segment slot a live block points at.  Bad slots are relocated
    through the ordinary log path from the LRU cache's pristine copy
    when present; repairs conclude with a forced full checkpoint so the
    healed image is durable before the report returns.  Runs at mount
    when {!Config.t.scrub_on_mount} is set, or on demand ([lld scrub]).
    Unrepairable damage is only {e reported} ([scrub_lost]) — reads of
    those blocks keep raising [Errors.Corruption]. *)

val scavenge : t -> int
(** Free blocks left allocated by aborted ARUs (allocated, on no list,
    owner no longer active); returns how many were freed. *)

val orphan_blocks : t -> Types.Block_id.t list
(** The blocks {!scavenge} would free, without freeing them (flushes
    first so the committed state is authoritative). *)

val recovery_invariant_errors : t -> string list
(** Recovery invariant probe (used by [lib/crashcheck]): structural
    violations of the post-recovery committed state — active ARUs,
    allocated blocks on no list (a failed consistency sweep, paper
    §3.3), blocks linked into two lists or into lists disagreeing with
    their membership record, unallocated blocks still linked, and
    surviving empty lists owned by dead ARUs.  Empty right after a
    correct {!recover}; call before performing new operations. *)

(** {1 Measurement} *)

val counters : t -> Counters.t
val clock : t -> Lld_sim.Clock.t
val config : t -> Config.t

val cost_model : t -> Lld_sim.Cost.t
(** Equal to [(config t).cost]; part of {!Ld_intf.S}. *)

val disk : t -> Lld_disk.Disk.t
val free_segments : t -> int

(** {1 Observability}

    Probes are no-ops against the default {!Lld_obs.Obs.null} handle:
    attaching observability is strictly opt-in and never charges the
    virtual clock, so throughput numbers are identical with and without
    it (the bench driver asserts this). *)

val set_obs : t -> Lld_obs.Obs.t -> unit
(** Attach an observability handle to this instance and its disk:
    every public operation records an ["op.<name>"] latency histogram
    and an [op] trace span, commits record [aru] phase spans, the
    cleaner and checkpointer record [clean]/[checkpoint] spans, and the
    gauges below are registered on the handle's metrics registry. *)

val obs : t -> Lld_obs.Obs.t

val live_blocks : t -> int
(** Persistent block slots referenced by the per-segment live index. *)

val sealed_segments : t -> int
(** Segments written and not yet freed. *)

