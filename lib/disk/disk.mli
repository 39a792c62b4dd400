(** The simulated block device.

    A byte store standing in for the paper's HP C3010 partition accessed
    through the SunOS raw-disk interface.  The store itself is a
    pluggable {!Backend} (in-memory by default, file-backed for real
    persistence).  Every request passes, in order, the {!Fault} plan,
    the mechanical charge from {!Timing} to the shared virtual
    {!Lld_sim.Clock}, the store, and the counters and write observer —
    identically on every backend, so crash and media-failure behaviour
    stays deterministic.

    The data plane is {!Lld_util.Blk.t} views ({!read_view} /
    {!write_view}); the [bytes] entry points remain as converting
    wrappers for clients that still live in copy-land. *)

module Blk = Lld_util.Blk

type t

val create :
  ?timing:Timing.t ->
  ?fault:Fault.t ->
  ?backend:Backend.t ->
  clock:Lld_sim.Clock.t ->
  Geometry.t ->
  t
(** A partition on the given backend (default: a zero-filled
    {!Backend.mem}).  Default timing is {!Timing.hp_c3010}; default
    fault plan is {!Fault.none}.  Raises [Invalid_argument] when the
    backend size does not match the geometry. *)

val load :
  ?timing:Timing.t ->
  ?fault:Fault.t ->
  clock:Lld_sim.Clock.t ->
  Geometry.t ->
  bytes ->
  t
(** A partition whose initial contents are a copy of the given image,
    taken once through {!Backend.of_bytes}.  Raises [Invalid_argument]
    when the image size does not match the geometry.  Crash images are
    not built this way: [Crashcheck.Raw.stores_at] mounts each as a
    {!Backend.overlay} that reads through to the recorded trace. *)

val geometry : t -> Geometry.t
val fault : t -> Fault.t
val clock : t -> Lld_sim.Clock.t

val write_view : t -> offset:int -> Blk.t -> unit
(** Write the view's bytes at the byte offset — one blit into the
    store, no intermediate copy.  Raises [Fault.Crashed] at a scheduled
    crash point; on a torn write the scheduled prefix reaches the
    medium before the exception.  Raises [Invalid_argument] when the
    range exceeds the partition. *)

val read_view : t -> offset:int -> length:int -> Blk.t
(** A fresh view of the range — owned by the caller, never an alias of
    the store.  Raises [Fault.Media_error] when the range overlaps an
    injected media failure; raises [Fault.Crashed] while the device is
    crashed. *)

val write : t -> offset:int -> bytes -> unit
(** {!write_view} through a converting copy. *)

val read : t -> offset:int -> length:int -> bytes
(** {!read_view} through a converting copy. *)

val crash : t -> unit
(** Power fails now: a crash is scheduled at the next write, and that
    write (one byte at offset 0) is issued and lost.  Like any request
    it first applies queued rot; like any crashed write it charges
    nothing to the clock and stores nothing.  A device that has already
    crashed stays crashed. *)

(** {2 Tracing and imaging}

    Hooks for the crash-consistency checker ([lib/crashcheck]): an
    observer sees every byte that reaches the medium, and whole-device
    images can be captured. *)

type observer = index:int -> offset:int -> data:Blk.t -> unit
(** Called after the bytes land: [index] is the device-lifetime write
    sequence number (0-based), [data] is a view of exactly what reached
    the medium — on a torn write only the persisted prefix.  The view
    aliases the writer's buffer: copy it ({!Blk.to_bytes}) before
    retaining it past the callback. *)

val set_observer : t -> observer option -> unit
(** Install (or remove) the single write observer.  The observer runs
    inside {!write_view}, after the store is updated and before a torn
    write raises {!Fault.Crashed}. *)

val set_obs : t -> Lld_obs.Obs.t -> unit
(** Attach an observability handle (default {!Lld_obs.Obs.null}).  When
    active, every request records a [disk] span whose duration equals
    the charged mechanical cost, with the positioning/transfer
    breakdown from {!Timing.request_breakdown} as arguments, and feeds
    the ["disk.read"]/["disk.write"] latency histograms. *)

val snapshot_view : t -> Blk.t
(** Fresh copy of the entire device image. *)

val snapshot : t -> bytes

(** {2 Media corruption}

    {!Fault.corrupt_sector} queues silent bit-rot; the device drains the
    queue straight onto the raw store before the next request — no
    fault check, no clock charge, no write counted, no observer
    callback.
    Only the checksum layer ([lld scrub], segment CRCs, superblock
    generations) can tell. *)

val apply_corruption : t -> unit
(** Drain any queued corruption now (also happens automatically before
    the next read/write/snapshot). *)

(** {2 Durability}

    Real persistence boundary, exposed from the backend. *)

val barrier : t -> unit
(** Make every preceding write durable ({!Backend.t.barrier}: [fsync]
    on a file backend, a no-op in memory).  Called by the logical-disk
    layer at the paper's §4 ordering points — after sealing a log
    segment and after writing a checkpoint region — instead of assuming
    writes are synchronous.  Charges nothing to the virtual clock, so
    traced and untraced runs and all backends stay cost-identical. *)

val close : t -> unit
(** Release the backend's resources (idempotent). *)

val backend_label : t -> string
(** ["mem"] or ["file:<path>"] — for reports and benchmarks. *)

(** {2 Statistics} *)

type counters = {
  writes : int;
  reads : int;
  bytes_written : int;
  bytes_read : int;
}

val counters : t -> counters
val reset_counters : t -> unit
