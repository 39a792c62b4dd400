(** Partition geometry shared by the disk and the logical disk system.

    The paper's configuration is a 400 MB partition of 4 KB blocks
    written in 0.5 MB segments (100,000 blocks, 800 segments). *)

type t = private {
  block_bytes : int;  (** data block size (paper: 4096) *)
  segment_bytes : int;  (** segment size (paper: 524288) *)
  num_segments : int;  (** segments in the partition *)
}

val v : ?block_bytes:int -> ?segment_bytes:int -> num_segments:int -> unit -> t
(** Constructor with paper defaults; validates that the segment size is
    a multiple of the block size. *)

val paper : t
(** The paper's 400 MB partition: 800 segments of 0.5 MB, 4 KB blocks. *)

val small : t
(** A small 16 MB partition for unit tests (32 segments). *)

val blocks_per_segment : t -> int
val total_blocks : t -> int
val total_bytes : t -> int

val segment_offset : t -> int -> int
(** Byte offset of segment [i] within the partition. *)

val cylinder_of_offset : int -> int
(** Cylinder index containing a byte offset (for the seek model): a
    cylinder is 1 MB of the partition. *)
