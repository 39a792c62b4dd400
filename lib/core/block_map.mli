(** The block-number-map: one persistent record per logical block
    (paper §2, Figure 3), plus the free-identifier pool.

    The persistent records are the anchors of the same-id chains of
    alternative versions.  An anchor is built the first time its
    identifier is asked for, so a map costs memory in proportion to the
    identifiers touched, not to the logical capacity. *)

type t

val create : capacity:int -> t
(** All blocks initially free, and no anchor built yet: an identifier
    never passed to {!anchor} reads as a fresh, unallocated block. *)

val capacity : t -> int

val anchor : t -> Types.Block_id.t -> Record.block
(** The persistent record, built fresh on the first call for an
    identifier; every later call returns that same (physically equal)
    record.  Raises [Invalid_argument] for an identifier outside the
    logical capacity. *)

val in_range : t -> Types.Block_id.t -> bool

val alloc_id : t -> Types.Block_id.t option
(** Pop a free identifier (lowest-numbered available); [None] when the
    logical block space is exhausted. *)

val release_id : t -> Types.Block_id.t -> unit
(** Return an identifier to the pool.  Callers guarantee it is not
    allocated in any state; releasing an already-free identifier is a
    no-op. *)

val rebuild_free : t -> unit
(** Reset the pool from the persistent records' allocation flags (used
    after recovery); an identifier whose anchor was never built is
    free. *)

val iter : t -> (Record.block -> unit) -> unit
(** Over the anchors built so far, in increasing identifier order; an
    identifier never passed to {!anchor} is skipped (its record would
    be fresh).  An anchor [f] builds at a higher identifier is
    visited. *)

val allocated_count : t -> int
