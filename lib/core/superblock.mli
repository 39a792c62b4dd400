(** The generational superblock (DESIGN.md §5.13).

    Segment 0 holds two block-sized slots.  Each valid slot records an
    [epoch] (the checkpoint generation counter) and the checkpoint
    [region] that generation was written to, protected by a CRC32c;
    epoch [g] always lands in slot [g mod 2], so the two newest
    generations coexist and the {e highest valid epoch wins} — a torn
    or rotten slot falls back to the surviving generation (notafs's
    generational-superblock idiom).

    Recovery uses the superblock as a validity gate and hint; the
    checkpoint regions themselves still carry generation numbers, so a
    superblock pointing at a checkpoint that failed its own checks
    degrades gracefully to the older generation. *)

type slot = { epoch : int; region : int }

val slot_for : epoch:int -> int
(** The slot index generation [epoch] is written to ([epoch mod 2]). *)

val slot_offset : Lld_disk.Geometry.t -> int -> int
(** Byte offset of slot 0 or 1 on the device. *)

val encode : Lld_disk.Geometry.t -> slot -> Lld_util.Blk.t
(** One logical block: magic, format version, epoch, region, CRC32c. *)

val decode : Lld_util.Blk.t -> slot option
(** [None] when the magic, version, CRC or field ranges are wrong. *)

val read_slot : Lld_disk.Disk.t -> int -> slot option

val write_slot : Lld_disk.Disk.t -> slot -> unit
(** Write the slot for the epoch's generation and barrier: the pointer
    must be durable before logging resumes on top of it. *)

val read_slots : Lld_disk.Disk.t -> slot option * slot option

val best : Lld_disk.Disk.t -> slot option
(** The highest valid epoch across both slots, if any. *)

val pp : Format.formatter -> slot -> unit
