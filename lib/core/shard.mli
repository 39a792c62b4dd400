(** Sharded logical disk: S independent {!Lld} instances behind one LD
    facade, with cross-shard ARUs committed by two-phase commit
    (DESIGN.md §5.14).

    Each shard is a complete {!Lld} — its own backend disk, log,
    cleaner, checkpoints and recovery — and the front-end stripes the
    logical name spaces across them with a fixed, stateless placement
    ({!block_shard} / {!list_shard}).  An ARU that only ever touched one
    shard commits exactly as before: one commit record, one seal, one
    barrier, on that shard.  An ARU spanning P shards commits with
    two-phase commit over the shards' ordinary summary records: one
    [Prepare] record + seal per non-coordinator participant, then one
    [Decide] record + seal on the coordinator (the lowest participant
    shard index) — the transaction's single atomic commit point — and
    one lazy [Decide] per participant afterwards that rides on the next
    natural barrier.  Total barriers: P, within the P+1 budget the S1
    experiment gates on.

    Crash safety is {e presumed abort}: a participant that recovers with
    a dangling [Prepare] consults the union of the [Decide] records in
    every shard's log — the coordinator's durable [Decide]
    commits it, anything else aborts it.  {!recover} therefore scans all
    shards before recovering any of them.

    With a single shard the facade is a pure passthrough: identifiers,
    on-disk image and virtual-clock costs are bit-identical to using the
    {!Lld} directly (no 2PC machinery is ever engaged).

    All shard disks must share one virtual clock, and all shards must
    have identical capacity and block size; construction checks both.
    Concurrency control remains the client's problem (paper §3): the
    facade is single-threaded, and "parallelism" means the S logs accept
    writes independently — barriers on one shard do not serialise
    commits on another, which is where the S1 throughput scaling comes
    from. *)

type t

(** {1 Construction} *)

val create :
  ?config:Config.t -> ?obs:Lld_obs.Obs.t -> Lld_disk.Disk.t array -> t
(** Format every disk (mkfs) and assemble the facade.  Raises
    [Invalid_argument] on an empty array, on shards that do not share
    one clock, or on differing capacities / block sizes.  [obs] is
    attached as by {!set_obs} (shard 0 only — gauge names collide). *)

val recover :
  ?config:Config.t -> ?obs:Lld_obs.Obs.t -> Lld_disk.Disk.t array ->
  t * Recovery.report array
(** Mount after a crash: first scans {e every} shard's log for durable
    two-phase-commit decisions ([Decide] records), then
    recovers each shard with the union as its [decisions] oracle, so a
    participant's dangling prepare commits exactly when the
    coordinator's [Decide] survived.  The cross-shard transaction-id
    watermark resumes past every gid any shard has seen.  With more
    than one shard, {!Config.t.recovery_early_open} is forced off (the
    decision oracle must be complete before any shard replays).  A
    single shard recovers as a plain {!Lld.recover} — scan and oracle
    elided, bit-identical. *)

val shard_count : t -> int

val handles : t -> Lld.t array
(** The underlying per-shard instances, for diagnostics ([lld info]),
    per-shard scrub assertions and tests.  Mutating shards directly
    while the facade is in use voids the placement invariants. *)

(** {1 Placement}

    Pure and total: every identifier maps to exactly one shard, and the
    mapping never depends on instance state.  Blocks stripe round-robin
    by id ([global mod shards]); lists the same, shifted for their
    1-based ids.  A block always lives on its list's shard (allocation
    routes by list), so list operations never cross shards. *)

val block_shard : shards:int -> int -> int
(** Shard owning a global block id. *)

val block_local : shards:int -> int -> int
(** The block's id within its shard. *)

val block_global : shards:int -> shard:int -> int -> int
(** Inverse: [block_global ~shards ~shard (block_local ~shards g) = g]
    when [shard = block_shard ~shards g]. *)

val list_shard : shards:int -> int -> int
(** Shard owning a global list id (ids are 1-based). *)

val list_local : shards:int -> int -> int

val list_global : shards:int -> shard:int -> int -> int

(** {1 The LD interface}

    Exactly {!Ld_intf.S} over global identifiers: operations route to
    the owning shard, identifiers and errors are translated back to
    global.  A global ARU lazily opens a local ARU on each shard it
    touches; [end_aru] commits through the single-shard fast path or
    two-phase commit as the touch set dictates.  [submit_commit] queues
    single-shard ARUs in the owning shard's group-commit queue;
    a cross-shard ARU commits synchronously at submission (its 2PC pays
    its own barriers — batching buys nothing) and is reported by the
    next {!flush_commits}. *)

include Ld_intf.S with type t := t

(** {1 Group-commit introspection (engine hooks)} *)

val config : t -> Config.t
val commit_due : t -> bool
val commit_pending : t -> Types.Aru_id.t -> bool
val pending_commits : t -> int

(** {1 Cross-shard commit introspection} *)

val next_gid : t -> int
(** The next cross-shard transaction id (max over shards, persisted in
    their checkpoints). *)

val aru_active : t -> Types.Aru_id.t -> bool
val active_arus : t -> Types.Aru_id.t list

val aru_shards : t -> Types.Aru_id.t -> int list
(** The shards on which this ARU has opened a local slice so far,
    ascending — the participant set its commit would use. *)

val total_counters : t -> Counters.t
(** A fresh snapshot summing the facade's own counters and every
    shard's.  [cross_shard_commits] counts each 2PC once (the
    coordinator's decision); [prepare_barriers] counts every
    participant prepare seal — their ratio checks the ≤ P+1
    barriers-per-cross-shard-commit budget. *)

(** {1 Maintenance} *)

val checkpoint : t -> unit
(** Checkpoint every shard. *)

val scrub : t -> Lld.scrub_report array
(** Scrub every shard; one report per shard. *)

val recovery_invariant_errors : t -> string list
(** Union of every shard's {!Lld.recovery_invariant_errors} (each
    prefixed with its shard), plus the facade's own: no shard may hold
    a dangling prepared ARU after recovery. *)
