(** Per-segment live-block reverse index.

    Maps each log segment to the set of block identifiers whose
    persistent version lives in it, and each block identifier back to
    its segment.  All operations are O(1) (removal swaps with the last
    element of the segment's vector), so the cleaner can enumerate a
    victim's live blocks in O(live(victim)) instead of scanning the
    whole block map. *)

type t

val create : num_segments:int -> capacity:int -> t
(** [capacity] is the logical block capacity (block ids are
    [0 .. capacity-1]).  All blocks start unindexed. *)

val add : t -> seg:int -> block:int -> unit
(** Index [block] as live in [seg].  If the block was indexed
    elsewhere, it is moved. *)

val remove : t -> block:int -> unit
(** Drop [block] from the index; no-op when it is not indexed. *)

val live : t -> int -> int
(** Number of live blocks in a segment. *)

val blocks : t -> int -> int list
(** Snapshot of a segment's live block ids (unspecified order). *)

val clear : t -> unit
