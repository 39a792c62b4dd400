(** Exhaustive crash-point enumeration checker for ARU failure
    atomicity, over one disk or S shards.

    The paper's claim (§3) is that after {e any} crash, recovery
    restores the most recent persistent state and every ARU is
    all-or-nothing.  The hand-picked crash points of the unit tests
    cannot establish that; this checker can, the way systematic recovery
    work validates itself (Lomet et al., arXiv:1105.4253; Sauer &
    Härder, arXiv:1409.3682):

    + {b record} the full disk-write trace of a workload (via the
      write-observer hook on {!Lld_disk.Disk}), together with an
      {!Lld_workload.Oracle} of expected atomic effects;
    + {b enumerate} every crash point — after each write index, and
      torn variants of each write at [keep_bytes] boundaries;
    + for each point, {b reconstruct} the disk images as of that crash,
      recover, and {b verify}:
      (a) every oracle unit is present in full or absent in full,
      (b) {!Lld_minixfs.Fsck} is clean on file-system workloads,
      (c) the consistency sweep leaked no allocations
          ({!Lld_core.Lld.recovery_invariant_errors}),
      (d) recovery is idempotent: crashing every disk right after
          recovery's own checkpoint write and recovering again
          reproduces the same state.

    One engine ({!Raw}) serves every target: a trace of one disk
    ({!record}, recovered with {!Lld_core.Lld.recover}) and a trace of S
    shards ({!record_sharded}, recovered with {!Lld_core.Shard.recover})
    differ only in how the recovered disks are mounted and judged.
    Exhaustive mode covers every point; budgeted mode samples a
    deterministic subset via {!Lld_sim.Rng} (for CI).  Failing points
    are shrunk to the earliest failing point — the minimal reproducer. *)

(** {1 Workload specifications} *)

(** Everything a traced workload may touch.  [cx_fs] is [Some] exactly
    for file-system specs. *)
type ctx = {
  cx_clock : Lld_sim.Clock.t;
  cx_disk : Lld_disk.Disk.t;
  cx_lld : Lld_core.Lld.t;
  cx_fs : Lld_minixfs.Fs.t option;
}

type spec = {
  sc_name : string;
  sc_geom : Lld_disk.Geometry.t;
  sc_config : Lld_core.Config.t;
  sc_fs : Lld_minixfs.Fs.config option;
      (** [Some]: build with [Fs.mkfs], re-mount and {!Lld_minixfs.Fsck}
          after every recovery *)
  sc_inode_count : int option;
  sc_run : ctx -> Lld_workload.Oracle.t -> unit;
      (** drive the workload and populate the oracle; must end with a
          flush so the trace closes on a persistent state *)
}

val smallfile_spec : ?files:int -> unit -> spec
(** {!Lld_workload.Smallfile.run_traced} through the Minix FS
    (default 200 files of 1 KB). *)

val aru_churn_spec : ?arus:int -> ?blocks_per_aru:int -> unit -> spec
(** ARU churn on the raw logical disk (default 160 ARUs of 2 blocks):
    each ARU creates a list of [blocks_per_aru] blocks with
    recognisable payloads, commits and is flushed; a last ARU is left
    open, so no crash image may surface any of its effects. *)

val cleaning_spec : ?units:int -> ?blocks_per_unit:int -> unit -> spec
(** Cleaning-heavy raw-LD workload: committed units, atomic whole-unit
    deletions, same-content rewrites, then a forced {!Lld_core.Lld.clean}
    with one ARU left open across it — segment relocation, the live
    index and the cleaner's checkpoint all inside the recorded trace. *)


val torture_spec :
  ?variant:Lld_workload.Setup.variant -> ?seed:int -> unit -> spec
(** The paper's §5.1 workload through the Minix FS: 300 creates,
    writes, unlinks, renames, links, truncates and reads over 8
    directories of 12 names, drawn from one {!Lld_sim.Rng} stream
    seeded by [seed] (default 42).  It registers no oracle units, so
    each crash point is judged by fsck, the sweep-leak probe and
    idempotent re-recovery.  [variant] (default [New]) picks Table 1's
    logical-disk and file-system configurations; [Old], with no ARU
    bracketing, is the contrast that does need fsck. *)

val specs : (string * (unit -> spec)) list
(** Name-indexed registry of the built-in specs (for the CLI). *)

(** {1 Traces and crash points} *)

type trace

val record : ?backend:Lld_disk.Backend.t -> spec -> trace
(** Run the workload once, recording the base image and every disk
    write.  [backend] defaults to {!Lld_disk.Backend.of_env} (honouring
    [LLD_BACKEND=file]) and then to an in-memory store; the base image
    and the write trace come from the backend API either way, so
    crash-point checking works identically on any store. *)

val trace_writes : trace -> int
(** Disk writes in the trace, over all disks. *)

val trace_oracle_units : trace -> int

(** {1 Differential backend check}

    The paper's §2 transparency claim, checked at the store layer: the
    same workload driven once on {!Lld_disk.Backend.mem} and once on
    {!Lld_disk.Backend.temp_file} must leave the same
    {!Lld_workload.Setup.fingerprint} (device image, operation
    counters, device counters, virtual clock), from the same base image
    through a write trace of the same length. *)

type differential = {
  d_workload : string;
  d_mem_label : string;
  d_file_label : string;
  d_writes : int;  (** disk writes in the (mem) trace *)
  d_differs : string list;
      (** {!Lld_workload.Setup.fingerprint_diff} of the two final states *)
  d_problems : string list;  (** [[]] = backends observably equivalent *)
}

val differential : ?dir:string -> spec -> differential
(** Run [spec]'s workload on both backends and compare.  [dir] is where
    the temporary file image lives while the run is in flight (default
    the system temp directory); it is unlinked eagerly either way. *)

val differential_ok : differential -> bool
val pp_differential : Format.formatter -> differential -> unit

type point = {
  pt_index : int;
      (** crash before write [pt_index]: writes [0 .. pt_index-1] are on
          the medium ([pt_index] = write count means no crash at all) *)
  pt_keep : int option;
      (** [Some k]: additionally the first [k] bytes of write [pt_index]
          reached the medium — a torn write *)
}

val pp_point : Format.formatter -> point -> unit

(** The crash-trace engine: base images plus one global write trace
    over any number of disks.

    Every trace-level function above and below runs on it; a checker
    with its own notion of correctness — the differential tester in
    lib/model judges against the executable specification's crash
    frontier — uses the recorder, the enumeration, deterministic
    sampling and image reconstruction directly. *)
module Raw : sig
  type t

  val record : Lld_disk.Disk.t array -> (unit -> 'a) -> t * 'a
  (** [record disks f] snapshots every disk's image, runs [f] while
      observing the writes to all [disks] in the order they reach the
      media — the global persistence order, as the callers are
      single-threaded — and detaches the observers, also when [f]
      raises.  Returns the trace and [f]'s result. *)

  val v : base:bytes -> writes:(int * bytes) array -> t
  (** One-disk trace: [base] is the device image before the first
      write; [writes] are [(offset, data)] in write order, as delivered
      by the {!Lld_disk.Disk} write observer. *)

  val enumerate : ?granularity:int -> t -> point list
  (** Same canonical order as the trace-level {!enumerate}.  Raises
      [Invalid_argument] when [granularity] is below 1. *)

  val sample : budget:int -> seed:int -> point list -> point list
  (** Deterministic subsample of at most [max 2 budget] points: complete
      points preferred over torn variants, the first and last point
      always kept (so a [budget] of 0 or 1 still yields both), the rest
      drawn via {!Lld_sim.Rng} seeded by [seed]. *)

  val stores_at : t -> point -> Lld_disk.Backend.t array
  (** Every disk's image as of the crash point, indexed like {!record}'s
      [disks], each an {!Lld_disk.Backend.overlay} over the trace: a
      page reads as the base image with the writes before the point,
      then the point's torn prefix, laid over it in order.  Only the
      pages a caller reads are copied, and its writes land in the
      store's private pages, never in the trace, so recovering one
      point leaves every other point's image intact. *)

  val image_at : t -> point -> bytes
  (** The first disk's {!stores_at} image, as [bytes]. *)
end

val trace_raw : trace -> Raw.t
(** The trace's crash-trace engine: its bases and global write
    order. *)

val enumerate : ?granularity:int -> trace -> point list
(** Every crash point in canonical order: for each write index, the
    complete point then its torn variants at multiples of [granularity]
    bytes (default 512, the sector size) plus the 1- and [len-1]-byte
    extremes.  Ends with the no-crash point. *)

val check_point :
  ?recover_config:Lld_core.Config.t -> trace -> point -> string list
(** Reconstruct the disks as of the crash point, recover, verify all
    invariants.  Returns the violations ([[]] = consistent).  Raises
    [Invalid_argument] for a point outside the trace.
    [recover_config] overrides the config recovery runs with (used by
    tests to demonstrate that a deliberately broken recovery — e.g.
    [recovery_sweep = false] — is caught). *)

(** {1 The checker} *)

type violation = { v_point : point; v_problems : string list }

type result = {
  r_workload : string;
  r_seed : int;
      (** sampling seed the run used — printed on failure so a budgeted
          CI run reproduces bit-for-bit with [--seed] *)
  r_writes : int;  (** disk writes in the recorded trace *)
  r_oracle_units : int;
  r_points_total : int;  (** size of the full enumeration *)
  r_points_checked : int;
  r_torn_checked : int;  (** of the checked points, how many were torn *)
  r_violation_points : int;  (** checked points with >= 1 violation *)
  r_violations : violation list;  (** capped at {!max_kept_violations} *)
  r_minimal : violation option;
      (** earliest failing point after shrinking — the minimal
          reproducer *)
  r_trace_file : string option;
      (** Chrome trace of the minimal reproducer's recovery, written
          when [run ~trace_dir] was given and a violation was found *)
  r_writes_file : string option;
      (** JSON dump of the minimal reproducer's {e pre-crash} write
          trace (disk indices, offsets, lengths, full data, the torn
          write's kept prefix), written alongside [r_trace_file] — the
          reproducer bundle is self-contained: the crash images can be
          rebuilt over the deterministic post-format bases without
          re-running the workload *)
  r_forensics_files : string list;
      (** the rest of the minimal reproducer's forensics bundle —
          flight-recorder ring and metrics snapshot — written
          alongside [r_trace_file] (empty when no [trace_dir] or no
          violation) *)
}

val ok : result -> bool

val run :
  ?granularity:int ->
  ?budget:int ->
  ?seed:int ->
  ?recover_config:Lld_core.Config.t ->
  ?shrink_limit:int ->
  ?trace_dir:string ->
  ?progress:(checked:int -> selected:int -> unit) ->
  trace ->
  result
(** Check crash points of [trace].  Without [budget], every enumerated
    point is checked (exhaustive mode).  With [budget], a deterministic
    sample of at most [max 2 budget] points is checked ({!Raw.sample}) —
    complete points are preferred over torn variants, the first and
    last points are always kept, and the sample is drawn with
    {!Lld_sim.Rng} seeded by [seed] (default 1).  When violations are
    found, the earliest failing point is located by scanning the full
    enumeration from the start (at most [shrink_limit] extra checks,
    default 4000).  With [trace_dir], the minimal reproducer's recovery
    is replayed under live tracing and the Chrome trace written into
    that directory; the path lands in
    [r_trace_file] and in {!pp_result}'s output next to the reproducer
    command line. *)

val pp_result : Format.formatter -> result -> unit

(** {1 Crashing during recovery itself}

    The checker above crashes the {e workload}; this one also crashes
    the {e recovery}.  For a sample of workload crash points it mounts
    the crash image with {!Lld_core.Config.t.recovery_early_open} set,
    verifies every oracle unit through reads alone {e before the
    recovery completes} (the {e on-demand} pass), completes the recovery
    (recording its writes — the post-recovery checkpoint included),
    verifies again
    eagerly and demands the two verdicts agree — then enumerates crash
    points over recovery's own write sequence (complete and torn, so
    mid-checkpoint torn chunks are covered) and checks that a second
    recovery from each such image still satisfies the oracle and is
    idempotent. *)

type recovery_violation = {
  rv_outer : point;  (** the workload crash point recovery started from *)
  rv_inner : point option;
      (** crash point within recovery's own writes; [None] means the
          early-open recovery itself (on-demand verification, completion
          or the eager re-verification) failed before any inner crash *)
  rv_problems : string list;
}

type recovery_result = {
  rr_workload : string;
  rr_seed : int;
  rr_outer_checked : int;  (** workload crash points examined *)
  rr_inner_checked : int;
      (** recovery-internal crash points checked, summed over all outer
          points *)
  rr_inner_torn : int;  (** of those, torn variants *)
  rr_recovery_writes : int;
      (** disk writes recovery performed, summed over all outer points *)
  rr_ondemand_units : int;
      (** oracle units verified by the on-demand pass, summed *)
  rr_violation_points : int;
  rr_violations : recovery_violation list;
      (** capped at {!max_kept_violations} *)
  rr_writes_file : string option;
      (** pre-crash write trace of the first violation's outer point,
          written when [run_during_recovery ~trace_dir] was given *)
}

val recovery_ok : recovery_result -> bool

val run_during_recovery :
  ?granularity:int ->
  ?budget:int ->
  ?inner_budget:int ->
  ?seed:int ->
  ?recover_config:Lld_core.Config.t ->
  ?trace_dir:string ->
  ?progress:(outer:int -> total:int -> unit) ->
  trace ->
  recovery_result
(** Crash-during-recovery check of a one-disk [trace] (a trace from
    {!record_sharded} raises [Invalid_argument]).  [budget] (default 24)
    deterministically samples the workload crash points recovery starts
    from; [inner_budget] (default: exhaustive) optionally samples the
    crash points within each recovery's own write sequence.
    [recover_config] overrides the base config ([recovery_early_open]
    is forced on for the outer recovery; inner re-recoveries use it
    unchanged, exercising the eager path). *)

val pp_recovery_result : Format.formatter -> recovery_result -> unit

(** {1 Sharded crash points: cross-shard ARUs under two-phase commit}

    The sharded front-end ({!Lld_core.Shard}) commits an ARU spanning P
    shards with 2PC over the shards' summary records (DESIGN.md §5.14);
    the atomicity claim is then {e cross-device}: after a whole-machine
    crash, a multi-shard unit is visible on all its shards or none.
    {!record_sharded} records the S disks' writes as one interleaved
    global trace, so crash points are prefixes of that order: all
    shards' media freeze together.  Prepare and Decide seals are
    ordinary traced writes, so the enumeration covers complete and torn
    crashes between a participant's prepare and the coordinator's
    decision, inside either record's seal, and in the
    decided-but-unpropagated window a lazy participant [Decide] leaves
    open.  Each point recovers with {!Lld_core.Shard.recover} (the
    cross-shard decision scan) and is judged by the same all-or-nothing
    oracle as one disk, plus {!Lld_core.Shard.recovery_invariant_errors}
    and the idempotent re-recovery check. *)

type sharded_spec = {
  ss_name : string;
  ss_geom : Lld_disk.Geometry.t;
  ss_config : Lld_core.Config.t;
  ss_shards : int;
  ss_run : Lld_core.Shard.t -> Lld_workload.Oracle.t -> unit;
      (** drive the workload and populate the oracle; must end with a
          flush so the trace closes on a persistent state *)
}

val cross_shard_spec : ?shards:int -> unit -> sharded_spec
(** The cross-shard traced workload (default 3 shards): per-shard
    anchor and rail units, two committed two-shard ARUs (one with its
    lazy participant [Decide] left buffered across later crash points),
    one ARU spanning all shards, and one multi-shard ARU whose data is
    flushed durable on two shards but never committed — no crash image
    may surface it. *)

val record_sharded : sharded_spec -> trace
(** Run the workload once on [ss_shards] fresh disks sharing one
    virtual clock, recording every shard's base image and the
    interleaved write trace.  The per-shard backend honours
    [LLD_BACKEND=file] exactly as {!record}.  The trace serves
    {!enumerate}, {!check_point} and {!run} like a one-disk one; only
    {!run_during_recovery} (and the spec-level {!differential} and
    {!corruption_check}) are one-disk modes. *)

(** {1 Silent corruption}

    Crash points test atomicity against power loss; this check tests
    the checksummed format against {e media rot}.  It records the
    workload once, then runs three scenarios against independent mounts
    of the final image: a rotted segment header on a cold mount (the
    slot data is intact — scrub must salvage every live block), a
    rotted generational-superblock slot (scrub rewrites it; both
    generations survive a remount), and slot-data rot under a warm
    instance (scrub relocates the cached pristine copy).  After each
    scrub the full oracle is re-verified and the healed image is
    remounted and verified again. *)

type corruption_result = {
  c_workload : string;
  c_rounds : int;  (** corruption scenarios actually exercised *)
  c_bad_slots : int;  (** live slots found failing their CRC *)
  c_repaired : int;  (** relocated from a cached pristine copy *)
  c_salvaged : int;  (** raw bytes rescued from a meta-rotted segment *)
  c_lost : int;  (** honestly reported unrepairable *)
  c_superblock_repaired : int;
  c_problems : string list;  (** empty iff every scenario healed fully *)
}

val corruption_check :
  ?backend:Lld_disk.Backend.t -> spec -> corruption_result

val corruption_ok : corruption_result -> bool
val pp_corruption_result : Format.formatter -> corruption_result -> unit
