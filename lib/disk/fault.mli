(** Failure injection for the simulated disk.

    Reproduces the failure classes the paper protects against (§3):
    whole-system crashes (power outage — modelled as a crash schedule
    that stops the disk, possibly mid-write) and partial media failures
    (unreadable block ranges). *)

type crash =
  | After_writes of int
      (** Crash when this many further writes have completed; the next
          write raises. *)
  | During_write of { write_index : int; keep_bytes : int }
      (** Crash during the [write_index]-th write (0-based, counting
          from now): only the first [keep_bytes] bytes reach the medium
          — a torn segment write. *)

exception Crashed
(** Raised by disk writes once the crash point is reached. The disk
    contents remain readable for recovery. *)

exception Media_error of { offset : int }
(** Raised by reads touching a byte range marked bad. *)

type t

val none : unit -> t
(** No faults scheduled (fresh, mutable plan). *)

val schedule_crash : t -> crash -> unit
(** Replace the crash schedule (counting from the current write count). *)

val mark_bad : t -> offset:int -> length:int -> unit
(** Mark a byte range as a media failure: subsequent reads overlapping
    it raise {!Media_error}. *)

val clear_bad : t -> unit

val corrupt_sector : t -> offset:int -> length:int -> unit
(** Queue silent bit-rot over the byte range: unlike {!mark_bad} the
    range stays readable, but its bytes come back flipped — the media
    decayed without telling anyone.  {!Disk} drains the queue straight
    onto the raw store (no clock charge, no write counted) before the
    next request; detection is the checksum layer's job ([lld scrub],
    segment CRCs, the superblock generations). *)

val take_corruption : t -> (int * int) list
(** Drain the queued [(offset, length)] corruption ranges, oldest
    first (used by {!Disk}). *)

val corruption_pending : t -> bool

val crashed : t -> bool

val reset_after_recovery : t -> unit
(** Clear the crashed state and schedule (the machine "rebooted"); media
    errors persist. *)

(* Interface used by the disk implementation. *)

val on_write : t -> length:int -> [ `Ok | `Torn of int ]
(** Account one write; returns [`Torn n] when only [n] bytes must be
    persisted before raising {!Crashed}, and raises {!Crashed} directly
    when the crash point was already reached. *)

val check_read : t -> offset:int -> length:int -> unit
(** Raises {!Media_error} if the range overlaps a bad range. *)
