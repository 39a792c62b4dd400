(** JLD: a journaling, update-in-place implementation of the Logical
    Disk interface.

    The paper closes (§5.4) with: "Other implementations of the Logical
    Disk will have to utilize at least a meta-data update log to achieve
    similar performance and to fully support multiple shadow states."
    This module is that other implementation:

    - logical block [i] lives at a {e fixed} disk address — reads never
      fragment, but in-place writes seek;
    - every operation (meta-data {e and} ARU data) first goes to a
      {e write-ahead journal} at the front of the partition, appended
      sequentially in checksummed group-commit chunks;
    - the in-memory shadow machinery is LLD's own code: the version
      store {!Lld_core.Versions} and the operation bodies
      {!Lld_core.Ld_ops} (the alternative-record mesh, per-ARU
      list-operation logs, commit-time replay and merge) run over JLD's
      tables and reach its journal through a storage sink, so concurrent
      ARUs have identical semantics;
    - a block reads zeros from its allocation until its first write,
      whatever an earlier incarnation left at its home location;
    - a {e checkpoint} makes the journal's effects home: journaled data
      is written in place (write-ahead, so torn in-place writes are
      repaired by replay), the block/list tables are written to
      alternating table regions, and the journal restarts under a new
      epoch.

    It satisfies {!Lld_core.Ld_intf.S}, so the Minix file system runs on
    it unchanged — the interchangeability the paper claims for LD
    implementations (§2).  Recovery is LLD's by the same code: the
    journal replays through {!Lld_core.Recovery.replay} and its sweep,
    so each ARU is all-or-none and the allocations of undone ARUs are
    swept. *)

type t

type config = {
  cost : Lld_sim.Cost.t;
  cache_blocks : int;  (** LRU over in-place reads *)
  buffer_blocks : int;  (** journal chunk buffer size (group commit) *)
  journal_fraction : float;  (** share of the partition used as journal *)
  dirty_limit_blocks : int;
      (** checkpoint when this much committed data waits to be written
          home (the write-back bound of a real buffer cache) *)
}

val default_config : config

val create : ?config:config -> Lld_disk.Disk.t -> t
(** Format the partition: superblock, empty tables, empty journal. *)

val recover : ?config:config -> Lld_disk.Disk.t -> t * int
(** Mount after a crash: restore the newest valid tables, replay the
    journal's chunks through the shared REDO replay (an ARU's entries
    wait for its commit record), run the shared consistency sweep, and
    checkpoint.  Returns the instance and the number of journal chunks
    replayed. *)

val checkpoint : t -> unit
(** Flush, write journaled data home, persist the tables, restart the
    journal. *)

(** The Logical Disk interface (see {!Lld_core.Ld_intf.S}). *)

val begin_aru : t -> Lld_core.Types.Aru_id.t
val end_aru : t -> Lld_core.Types.Aru_id.t -> unit
val abort_aru : t -> Lld_core.Types.Aru_id.t -> unit
val with_aru : t -> (Lld_core.Types.Aru_id.t -> 'a) -> 'a

val submit_commit : t -> Lld_core.Types.Aru_id.t -> unit
(** JLD has no group-commit engine: commits immediately ({!end_aru}). *)

val flush_commits : t -> int
(** Always 0 — the commit queue is always empty here. *)

val new_list : t -> ?aru:Lld_core.Types.Aru_id.t -> unit -> Lld_core.Types.List_id.t

val new_block :
  t ->
  ?aru:Lld_core.Types.Aru_id.t ->
  list:Lld_core.Types.List_id.t ->
  pred:Lld_core.Summary.pred ->
  unit ->
  Lld_core.Types.Block_id.t

val write : t -> ?aru:Lld_core.Types.Aru_id.t -> Lld_core.Types.Block_id.t -> bytes -> unit
val read : t -> ?aru:Lld_core.Types.Aru_id.t -> Lld_core.Types.Block_id.t -> bytes
val delete_block : t -> ?aru:Lld_core.Types.Aru_id.t -> Lld_core.Types.Block_id.t -> unit
val delete_list : t -> ?aru:Lld_core.Types.Aru_id.t -> Lld_core.Types.List_id.t -> unit
val flush : t -> unit
val list_exists : t -> ?aru:Lld_core.Types.Aru_id.t -> Lld_core.Types.List_id.t -> bool
val block_allocated : t -> ?aru:Lld_core.Types.Aru_id.t -> Lld_core.Types.Block_id.t -> bool

val block_member :
  t -> ?aru:Lld_core.Types.Aru_id.t -> Lld_core.Types.Block_id.t -> Lld_core.Types.List_id.t option

val list_blocks :
  t -> ?aru:Lld_core.Types.Aru_id.t -> Lld_core.Types.List_id.t -> Lld_core.Types.Block_id.t list

val lists : t -> Lld_core.Types.List_id.t list
val capacity : t -> int
val allocated_blocks : t -> int
val block_bytes : t -> int
val scavenge : t -> int
val orphan_blocks : t -> Lld_core.Types.Block_id.t list
val clock : t -> Lld_sim.Clock.t
val cost_model : t -> Lld_sim.Cost.t
val counters : t -> Lld_core.Counters.t

val set_obs : t -> Lld_obs.Obs.t -> unit
(** Attach an observability handle to this instance and its disk.  The
    journaling implementation records only the [disk] spans (via the
    device); it has no log-structured phases to trace. *)

val obs : t -> Lld_obs.Obs.t
