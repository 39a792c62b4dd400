(** The open segment buffer and the on-disk segment format (v3).

    A segment is filled in main memory and written to disk in a single
    operation (paper §2).  Data blocks occupy fixed 4 KB slots growing
    from the front; at the back sit the summary entries, a per-slot
    CRC32c table, and a trailing 32 B header whose meta checksum covers
    all three.  Either region can exhaust the segment first — a
    workload of pure meta-data operations produces segments that are
    almost entirely summary (the paper's ARU-latency experiment writes
    24 such segments for 500,000 commit records).

    A torn write (power loss mid-segment) is detected at recovery: the
    meta region sits at the {e end} of the image, so a persisted prefix
    never carries a matching meta CRC for the new content.  Single-slot
    media rot is pinpointed by the per-slot CRCs — every slot read is
    verified, and [lld scrub] repairs what redundancy allows
    (DESIGN.md §5.13).

    The buffer and all slot reads are {!Lld_util.Blk.t} views; see the
    ownership notes on each function. *)

type t

val create : Lld_disk.Geometry.t -> seq:int -> disk_index:int -> t
(** A fresh, empty buffer destined for disk segment [disk_index], with
    log sequence number [seq]. *)

val seq : t -> int
val disk_index : t -> int
val is_empty : t -> bool
val slots_used : t -> int
val entry_count : t -> int

val has_room : t -> data_blocks:int -> entry_bytes:int -> bool
(** Whether [data_blocks] more slots (each costing a block plus its
    CRC-table entry) plus [entry_bytes] more summary bytes fit. *)

(** Which stream wrote a slot last.  Slot reuse across scopes is only
    sound when the writer's commit record is guaranteed to land in this
    same segment (see [Lld.end_aru]'s reservation); otherwise a sealed
    segment could expose an uncommitted ARU's bytes through an earlier,
    durable entry that shares the slot. *)
type scope = Simple_scope | Aru_scope of Types.Aru_id.t

val slot_of_block : t -> Types.Block_id.t -> int option
(** The slot currently holding this block's data in the open segment,
    if any. *)

val put_block :
  t ->
  scope:scope ->
  allow_cross_scope:bool ->
  Types.Block_id.t ->
  Lld_util.Blk.t ->
  int
(** Blit the block view into a slot and return the slot.  The block's
    existing slot is reused when [allow_cross_scope] is true or the
    previous writer had the same scope; otherwise a fresh slot is taken
    (the old slot keeps its bytes for the entries that reference it).
    Raises [Invalid_argument] when there is no room (callers must check
    {!has_room}) or when the data is not exactly one block. *)

val read_slot : t -> slot:int -> Lld_util.Blk.t
(** View of an occupied slot in the open buffer — valid until the next
    {!put_block} to the same slot. *)

val add_entry : t -> Summary.t -> unit
(** Append a summary entry.  Raises [Invalid_argument] when there is no
    room. *)

val entries : t -> Summary.t list
(** Entries in append order. *)

val seal : t -> Lld_util.Blk.t
(** Serialise to the full segment image in one pass: the accumulated
    summary entries are encoded directly into the meta region, slot
    CRCs and header are written in place, and the buffer itself is
    returned.  The view is immutable from here on — the caller seals
    exactly once and discards the builder, so cached sub-views of a
    sealed image stay valid forever. *)

(** {2 Reading sealed segments (recovery, cleaner, scrub)} *)

type parsed = {
  p_seq : int;
  p_entries : Summary.t list;  (** in append order *)
  p_slots_used : int;
  p_image : Lld_util.Blk.t;  (** the full segment image, for slot reads *)
}

val parse : Lld_disk.Geometry.t -> Lld_util.Blk.t -> parsed option
(** [None] when the image has no valid header or fails its meta
    checksum (an unwritten or torn segment).  Slot data is {e not}
    verified here — each slot's CRC is checked on access
    ({!parsed_slot}) or in bulk by the scrubber ({!verify_slot}). *)

val parsed_slot : Lld_disk.Geometry.t -> parsed -> slot:int -> Lld_util.Blk.t
(** Checksum-verified view of a data slot (aliases [p_image], which is
    immutable).  Raises [Errors.Corruption (Invalid_checksum _)] when
    the slot's bytes no longer match their seal-time CRC. *)

val verify_slot : Lld_disk.Geometry.t -> parsed -> slot:int -> bool
(** Non-raising per-slot check, the scrubber's probe. *)

val unverified_slot :
  Lld_disk.Geometry.t -> parsed -> slot:int -> Lld_util.Blk.t
(** The slot view without the checksum check — for salvage paths that
    must look at damaged data. *)

val tail_bytes : Lld_disk.Geometry.t -> int
(** Trailing bytes of a sealed image guaranteed to cover the header and
    the whole CRC table — what a single-block read fetches (once per
    segment, then memoised) to verify slots without the full image. *)

val tail_slot_crc :
  Lld_disk.Geometry.t -> tail:Lld_util.Blk.t -> slot:int -> int option
(** Expected CRC32c of [slot], extracted from [tail] — a view of the
    last [Blk.length tail] bytes of a sealed segment image.  [None]
    when the tail carries no well-formed sealed header, the slot lies
    outside the sealed range, or the table entry is not inside [tail]
    (the caller should treat all three as segment-level corruption). *)
