(** Operation counters of a logical-disk instance.

    Counters record the meta-data work the cost model charges for, so
    tests can assert {e why} a configuration is slower (e.g. deletion
    performs predecessor searches; the improved policy performs fewer —
    paper §5.3). *)

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable new_blocks : int;
  mutable delete_blocks : int;
  mutable new_lists : int;
  mutable delete_lists : int;
  mutable arus_begun : int;
  mutable arus_committed : int;
  mutable arus_aborted : int;
  mutable record_creates : int;
  mutable record_transitions : int;
  mutable mesh_hops : int;
  mutable pred_search_hops : int;
  mutable summary_entries : int;
  mutable link_log_appends : int;
  mutable link_log_replays : int;
  mutable replay_skips : int;  (** conflicting merge operations skipped *)
  mutable segments_written : int;
  mutable segments_cleaned : int;
  mutable blocks_copied_clean : int;
  mutable clean_disk_reads : int;
      (** relocation segment reads (at most one per cleaned victim) *)
  mutable clean_cache_hits : int;
      (** relocated blocks served from the LRU cache *)
  mutable victim_scans : int;  (** segments examined by victim selection *)
  mutable clean_picks : int;  (** victims chosen by the cleaning policy *)
  mutable live_index_updates : int;
      (** mutations of the per-segment live-block reverse index *)
  mutable checkpoints : int;
  mutable commit_batches : int;
      (** group-commit batches flushed ({!Lld.flush_commits} sub-batches,
          each closed by one batched commit record and one barrier) *)
  mutable group_commits : int;
      (** ARUs committed through the group-commit queue (as opposed to
          the immediate {!Lld.end_aru} path) *)
  mutable commit_barriers : int;
      (** seals (segment write + barrier) issued to close commit
          batches; [commit_barriers / arus_committed] is the
          barriers-per-commit amortization ratio *)
  mutable commits_submitted : int;
      (** commit intents queued by {!Lld.submit_commit} (excludes the
          window=0 degeneration to the immediate path) *)
  mutable commit_queue_aborts : int;
      (** queued ARUs dequeued by {!Lld.abort_aru} before their batch
          flushed *)
  mutable commit_wakeups : int;
      (** parked engine clients woken by a drained (or aborted)
          commit *)
  mutable forced_flushes : int;
      (** {!Lld.flush_commits} drains forced by the engine (all clients
          parked, or leftovers at exit) rather than by the batch-size or
          window close conditions *)
  mutable recovery_replayed_segments : int;
      (** log-tail segments the last recovery actually replayed *)
  mutable recovery_skipped_segments : int;
      (** sealed segments the last recovery's checkpoint let it skip *)
  mutable recovery_replay_disk_reads : int;
      (** [Disk.read] calls the last recovery's log-tail scan issued;
          contiguous replayed segments are fetched in one batched read,
          so this is at most (and usually far below) the replayed
          segment count *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable readaheads : int;
  mutable flushes : int;
  mutable bytes_copied : int;
      (** block-data bytes physically duplicated on the data path: the
          [bytes] compatibility wrappers' boundary conversions plus the
          shadow-write copy into the arena.  The view API elides the
          boundary copies; Z1 gates on this staying strictly lower per
          operation *)
  mutable copy_elisions : int;
      (** data-path operations that handed out (or took in) a {!Lld_util.Blk.t}
          view where the pre-view implementation performed a copy *)
  mutable cross_shard_commits : int;
      (** two-phase commits this shard coordinated (the [Decide] record
          it wrote was a transaction's single commit point) *)
  mutable prepare_barriers : int;
      (** participant prepare seals (segment write + barrier) issued for
          cross-shard transactions; with [cross_shard_commits] this
          checks the ≤ P+1 barriers-per-cross-shard-commit budget *)
}

val fields : (string * (t -> int) * (t -> int -> unit)) list
(** [(name, get, set)] for every field, in declaration order — the
    single source of truth that {!reset}, {!copy} and {!to_alist} are
    derived from.  A field missing here is a bug;
    the coverage test asserts [List.length fields] matches the record
    width. *)

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val to_alist : t -> (string * int) list
(** [(name, value)] per field, in declaration order. *)
