(** The segment log (paper §2, §4): the only code that opens, fills,
    seals, reads or retires a log segment.

    A handle owns the open segment, the sequence counter, the free
    queue, the per-segment sealed flags and seal sequences, and the
    slot cache (LRU, memoised meta tails, sequential-read detector).
    It reaches the rest of {!Lld} only through the two hooks fixed at
    {!create}: [before_take] runs before a free segment is taken (the
    auto-cleaner), [after_seal] after a seal with its sequence number
    (promotion, then the periodic checkpoint).  The stateless readers
    at the end serve recovery and the sharded mount. *)

type t

val create :
  config:Config.t ->
  counters:Counters.t ->
  before_take:(unit -> unit) ->
  after_seal:(int -> unit) ->
  Lld_disk.Disk.t ->
  t
(** No free segment and sequence 0 until {!restore}. *)

val restore : t -> next_seq:int -> in_use:(int -> bool) -> unit
(** Adopt the partition: log segments in use are sealed, the rest join
    the free queue in disk order (mkfs: none in use; after recovery:
    those the recovered block map references). *)

val emit_entry : t -> Summary.t -> int * int
(** Append an entry (sealing first when the open segment is full);
    returns the segment's sequence number and disk index. *)

val emit_write :
  t ->
  ?charge_copy:bool ->
  allow_cross_scope:bool ->
  stream:Summary.stream ->
  block:Types.Block_id.t ->
  data:Lld_util.Blk.t ->
  stamp:int ->
  unit ->
  int * Record.phys
(** Write one block and its [Write] entry into the same segment; returns
    the sequence number and the block's location.  [charge_copy:false]
    models the commit-time shadow->committed transition, where the
    already-copied shadow buffer is donated to the segment (DESIGN.md
    §5.4).  [allow_cross_scope] lets the write coalesce into a slot last
    written by another stream: sound for simple writes (they apply
    unconditionally at replay) and for commit-time merges (the
    reservation in [Lld.end_aru] keeps the commit record in the same
    segment), not for the sequential prototype's in-ARU writes, whose
    commit record may be segments away. *)

val has_room : t -> data_blocks:int -> entry_bytes:int -> bool
(** [true] also when no segment is open. *)

val seal : t -> unit
(** Write the open segment in one request plus a barrier, cache its
    slots, run [after_seal]; an empty open segment is handed back. *)

val current_seq : t -> int
(** The open segment's sequence number, else the next one's. *)

val next_seq : t -> int

val read_slot : t -> Record.phys -> Lld_util.Blk.t
(** From the open segment, the cache, a whole-segment readahead on a
    sequential run, or a single-slot read checked against the segment's
    meta tail.  Raises [Errors.Corruption (Invalid_checksum _)]. *)

val cached : t -> seg:int -> slot:int -> Lld_util.Blk.t option

val retire : t -> int list -> unit
(** Sealed segments rejoin the free queue in list order, their cached
    slots dropped.  A durable checkpoint must already list them, in
    that order, in its free order. *)

val free_count : t -> int
val free_order : t -> int list
val is_sealed : t -> int -> bool
val seal_seq : t -> int -> int
val sealed_count : t -> int
val cache_blocks : t -> int
val cache_capacity : t -> int

(** {1 Stateless readers} *)

val load : Lld_disk.Disk.t -> int -> Lld_util.Blk.t * Segment.parsed option
(** The whole-segment loader: one request, then the parse ([None]:
    unwritten or torn).  Raises [Lld_disk.Fault.Media_error]. *)

val fold_log :
  Lld_disk.Disk.t -> init:'a -> ('a -> int -> Segment.parsed option -> 'a) -> 'a
(** Every log segment in disk order; an unreadable one is [None]. *)

type tail = {
  segments : (int * Summary.t list) list;  (** (disk index, entries) *)
  next_seq : int;
  invalid : int;
  reads : int;  (** disk requests issued *)
}

val read_tail : Lld_disk.Disk.t -> order:int list -> after:int -> tail
(** The log after sequence number [after], read along [order] (a
    checkpoint's free order) while the sequence numbers stay
    contiguous; the segment that ends the stream — stale, torn,
    unwritten or unreadable — counts once in [invalid].  Contiguous runs
    of [order] are fetched in one request each, ramping 1, 2, 4 … 64.
    An empty [order] (a checkpoint taken with no free segment) falls
    back to {!fold_log}, ordering every parsable segment past [after] by
    sequence number; [invalid] then counts the unparsable ones. *)
