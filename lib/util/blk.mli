(** Zero-copy block views over [Bigarray] buffers (DESIGN.md §5.13).

    A [Blk.t] is an (buffer, offset, length) window.  [sub] and the
    {!Reader} alias the underlying buffer in O(1); only {!copy},
    {!to_bytes} and {!of_bytes} allocate and copy.  Every byte a copy,
    fill or comparison touches goes through one of four libc kernels
    ([memmove], [memcpy], [memset], [memcmp], in [blk_stubs.c]), called
    after the range check and allocating nothing: no sub-array header,
    no OCaml loop.  They move the same bytes a byte loop would.

    {b Range contract.}  Every multi-byte field is little-endian on
    every host.  An accessor checks a field's whole range once, then
    reads or writes it with one unchecked word access.  A field that
    does not fit raises [Invalid_argument] (or {!Truncated} from a
    {!Reader}) with no partial effect: no byte of the view is written,
    and neither the reader's position nor the writer's length moves.

    {b Ownership rules} (the view contract every producer documents):
    a view handed out by a layer is valid until that layer's next
    mutating operation, unless the producer promises immutability
    (sealed segment images, snapshots).  Callers that retain a view
    beyond that window must {!copy} it. *)

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

exception Truncated
(** Raised by {!Reader} on reads past the view's end, before the read
    moves the position. *)

val create : int -> t
(** A fresh zero-filled view owning its whole buffer — the only
    constructor that zero-fills; {!copy} and {!of_bytes} overwrite
    their whole new buffer and skip it. *)

val of_buffer : buf -> t
(** View of an entire existing buffer — aliases, does not copy. *)

val length : t -> int

val sub : t -> int -> int -> t
(** [sub t pos len] — O(1) alias of the window, like [Bytes.sub] but
    without the copy. *)

val get : t -> int -> char
val set : t -> int -> char -> unit

val fill : t -> char -> unit
(** Sets every byte of the view, through [memset]. *)

val blit : t -> int -> t -> int -> int -> unit
(** [blit src src_off dst dst_off len], in [Bytes.blit] argument
    order, through [memmove]: the two windows may overlap, also within
    one buffer, and the result is as if [src] were copied out first.
    Raises [Invalid_argument] for a range outside either view, before
    any byte moves. *)

val blit_from_bytes : bytes -> int -> t -> int -> int -> unit
(** [blit_from_bytes src src_off dst dst_off len], in [Bytes.blit]
    argument order, through [memcpy]; raises [Invalid_argument] for a
    range outside either side, before any byte moves. *)

val blit_to_bytes : t -> int -> bytes -> int -> int -> unit
(** The converse of {!blit_from_bytes}. *)

val of_bytes : bytes -> t
(** Copying conversion (the explicit boundary copy) into a fresh
    buffer, not zero-filled first: one Bigarray and one [memcpy]. *)

val of_string : string -> t
val to_bytes : t -> bytes
val to_string : t -> string

val copy : t -> t
(** A fresh view with its own buffer, not zero-filled first — the only
    way to detach from the producer's lifetime.  One Bigarray and one
    [memmove]. *)

val equal : t -> t -> bool
(** Same length and the same bytes, through [memcmp]. *)

val compare : t -> t -> int
(** Lexicographic on bytes read as unsigned (as [Char.compare] orders
    them), a proper prefix first; through [memcmp].  Negative, zero or
    positive. *)

(** {1 Little-endian scalar accessors}

    [get_uN t i] and [set_uN t i v] access the [N / 8] bytes from [i].
    Unless [0 <= i <= length t - N / 8] they raise [Invalid_argument]
    and touch nothing.  Getters return the unsigned value, so [get_u32]
    of [0xffff_ffff] is non-negative; setters store the low [N] bits of
    [v], so a wide or negative int wraps. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_u64 : t -> int -> int64
val set_u64 : t -> int -> int64 -> unit

(* Unsigned 32-bit fields of [bytes] structures (Minix, JLD); 16-bit
   fields use [Bytes.get_uint16_le]. *)
val get_u32_bytes : bytes -> int -> int
val set_u32_bytes : bytes -> int -> int -> unit

(** {1 Checksums} *)

val hash64 : ?pos:int -> ?len:int -> t -> int64
(** FNV-1a over 64-bit little-endian words with a byte-wise tail: the
    checksum of checkpoint chunks and of JLD's journal and tables. *)

val crc32c : ?init:int -> ?pos:int -> ?len:int -> t -> int
(** CRC32c (Castagnoli, reflected 0x82f63b78) of the window; the
    per-slot and header checksum of segment format v3 and the
    superblock.  [crc32c "123456789" = 0xe3069283].  On an x86-64 CPU
    with SSE4.2 (asked once, at module initialisation) it folds a
    64-bit word per [crc32] instruction, with a byte-wise tail;
    anywhere else it runs {!crc32c_slice8}.  Both give the same bits.
    [~init] chains: the CRC of a window split anywhere, fed the first
    part's CRC as [init], equals the CRC of the whole. *)

val crc32c_slice8 : ?init:int -> ?pos:int -> ?len:int -> t -> int
(** {!crc32c} in pure OCaml on every host.  Slice-by-8: eight 256-entry
    tables consume a 64-bit word per step, with a byte-wise tail.
    Exported so that the tests cover it on CPUs where {!crc32c} takes
    the instruction. *)

val crc32c_bytes : ?init:int -> ?pos:int -> ?len:int -> bytes -> int
(** {!crc32c} of a [bytes] window, one byte per step: the byte-wise
    reference {!crc32c} is tested against.  Both raise
    [Invalid_argument] for a window outside the data. *)

(** {1 Codecs}

    Little-endian serialisation.  The writer can serialise straight into
    an existing view ({!Writer.of_view} — the single-pass segment seal)
    and the reader's {!Reader.raw} hands back an alias instead of a
    copy. *)

module Writer : sig
  type view = t
  type t

  val create : ?capacity:int -> unit -> t
  (** Growable writer backed by its own buffer. *)

  val of_view : view -> t
  (** Fixed-capacity writer serialising directly into [view]; a field
      that does not fit raises [Invalid_argument] before writing any
      of its bytes. *)

  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int64 -> unit
  val raw : t -> view -> unit
  val raw_bytes : t -> bytes -> unit

  val string : t -> string -> unit
  (** A [u16] length, then the bytes: one field for the range check. *)

  val contents : t -> view
  (** View of the written prefix (aliases the writer's buffer). *)
end

module Reader : sig
  type view = t
  type t

  val of_view : ?pos:int -> ?len:int -> view -> t
  (** A reader over [len] bytes (default: the rest of the view) from
      [pos] (default 0); raises [Invalid_argument] for a window outside
      the view. *)

  val pos : t -> int
  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u64 : t -> int64

  val raw : t -> int -> view
  (** O(1) alias into the underlying view. *)

  val raw_bytes : t -> int -> bytes

  val string : t -> string
  (** Reads what {!Writer.string} wrote; a truncated string raises
      {!Truncated} before its length prefix is consumed. *)
end

val pp : Format.formatter -> t -> unit
