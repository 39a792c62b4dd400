(** Configuration of a logical-disk instance. *)

(** Which LLD implementation to run (paper Table 1):
    [Sequential] is the original prototype — single stream, no shadow
    states, at most one open ARU; [Concurrent] is the paper's new
    prototype with full shadow/committed/persistent versioning. *)
type mode = Sequential | Concurrent

(** Read-visibility options for concurrent ARUs (paper §3.3, listed in
    increasing isolation): [Any_shadow] returns the most recent shadow
    version across all ARUs; [Committed_only] always returns the
    committed version; [Own_shadow] (the paper's choice, option 3)
    returns the reader's own shadow version inside an ARU and the
    committed version otherwise. *)
type visibility = Any_shadow | Committed_only | Own_shadow

(** Victim selection for the segment cleaner: [Greedy] picks the sealed
    segment with the fewest live blocks (the paper's behaviour, kept as
    an ablation); [Cost_benefit] maximises the Sprite-LFS benefit/cost
    ratio (1-u)*age/(1+u), where [u] is the victim's live fraction and
    [age] the number of segments sealed since it was written. *)
type clean_policy = Greedy | Cost_benefit

type t = {
  mode : mode;
  visibility : visibility;
  cost : Lld_sim.Cost.t;
  cache_blocks : int;  (** LRU capacity of the persistent-read cache *)
  readahead : bool;
      (** fetch the whole segment on a cache miss that continues a
          sequential physical read pattern *)
  auto_clean : bool;
  clean_policy : clean_policy;
  clean_reserve_segments : int;
      (** run the cleaner when free segments drop below this *)
  checkpoint_interval_segments : int;
      (** checkpoint after this many sealed segments (when no ARU is
          active); 0 disables periodic checkpoints (the cleaner still
          checkpoints) *)
  checkpoint_dirty_threshold : int;
      (** a periodic checkpoint is written as an incremental {e delta}
          (only the map/table entries dirtied since the last full
          checkpoint, plus tombstones) while the dirty-entry count stays
          at or below this; above it — or whenever a full image is
          required (mkfs, recovery, cleaning) — a full checkpoint is
          written instead.  0 forces every checkpoint to be full. *)
  recovery_sweep : bool;
      (** run recovery's consistency sweep (paper §3.3).  Test-only
          knob: disabling it deliberately breaks recovery — orphaned
          allocations of uncommitted ARUs survive — so the crash
          checker's violation reporting can be exercised.  Always [true]
          outside such tests. *)
  recovery_parallel : bool;
      (** ignored: recovery replays the log tail in one pass, never on
          domains.  Kept only because the frozen benchmark sets it, and
          deleted once the benchmark stops setting it. *)
  recovery_early_open : bool;
      (** ignored: {!Lld.recover} always finishes recovery, post-recovery
          checkpoint included, before it returns.  Kept only because the
          frozen benchmark sets it, and deleted once the benchmark stops
          setting it. *)
  group_commit_window : int;
      (** group-commit window in virtual nanoseconds: once the oldest
          queued commit intent ({!Lld.submit_commit}) has waited this
          long, {!Lld.commit_due} reports the batch ready.  0 disables
          group commit entirely — [submit_commit] degenerates to the
          immediate single-ARU commit path, bit-identical to
          {!Lld.end_aru} (the [LLD_GROUP_COMMIT_WINDOW=0] CI leg). *)
  group_commit_batch : int;
      (** close a commit batch as soon as this many ARUs are queued,
          even inside the window *)
  scrub_on_mount : bool;
      (** run {!Lld.scrub} right after recovery: verify every sealed
          segment's slot checksums and both superblock generations,
          repairing what redundancy allows.  Defaults to [false];
          [lld mount --scrub] and the corruption crashcheck workload
          switch it on. *)
}

val default : t
(** Concurrent mode, [Own_shadow] visibility, SPARC-5/70 cost model,
    8 MB cache, readahead on, auto-clean on.  Group commit closes
    batches of 32 within a 100 µs window; the [LLD_GROUP_COMMIT_WINDOW]
    environment variable (an integer, virtual nanoseconds) overrides
    the window. *)

val old_lld : t
(** The "old" baseline: sequential mode; everything else as {!default}. *)

val pp_mode : Format.formatter -> mode -> unit
val pp_visibility : Format.formatter -> visibility -> unit
val pp_clean_policy : Format.formatter -> clean_policy -> unit
