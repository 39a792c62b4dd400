(** The storage backend behind the simulated block device.

    The paper's headline claim for the Logical Disk split is that
    implementations can be exchanged transparently (§2); this vtable
    honors it one layer down.  A backend is a plain byte store with no
    timing, no fault plan and no observability — {!Disk} applies those
    around {e any} backend, so every implementation exposes identical
    crash and cost semantics.

    Since the zero-copy refactor (DESIGN.md §5.13) the data plane is
    {!Lld_util.Blk.t} views: [write] blits the caller's view straight
    into the store (the single boundary copy the data path pays), and
    [read] hands back a {e fresh} view the caller owns outright — it
    never aliases the store, so later writes cannot mutate it.

    Two stores are provided: {!mem}, the in-memory image the simulation
    always used, and {!file}, a real on-disk image memory-mapped through
    [Unix.map_file] — giving the logical disk actual durability across
    process runs ([lld mkfs --file] / [lld mount --file]) at identical
    virtual-clock cost. *)

module Blk = Lld_util.Blk

type t = {
  label : string;  (** ["mem"] or ["file:<path>"] — for reports *)
  size : int;  (** total bytes; must match the device geometry *)
  read : offset:int -> length:int -> Blk.t;
      (** a fresh view of the range — owned by the caller, never an
          alias of the store *)
  write : offset:int -> Blk.t -> unit;
  snapshot : unit -> Blk.t;  (** fresh copy of the whole image *)
  barrier : unit -> unit;
      (** make every preceding write durable ([fsync] on {!file}, no-op
          on {!mem}).  Charges nothing to the virtual clock. *)
  close : unit -> unit;  (** release resources; idempotent *)
}

val mem : size:int -> t
(** A zero-filled in-memory store. *)

val of_view : Blk.t -> t
(** Wrap an existing view without copying — the caller hands over
    ownership of the buffer, and the store's writes land in it.  Crash
    images are built as fresh views and adopted this way
    ([Crashcheck.Raw.views_at]), so each crash point pays one image
    copy. *)

val of_bytes : bytes -> t
(** An in-memory store initialised from a copy of the image (one
    {!Blk.of_bytes}, no zero-fill) — used by {!Disk.load} for [bytes]
    images. *)

val file : ?create:bool -> size:int -> string -> t
(** An on-disk image at the given path, memory-mapped shared.  With
    [create] (default false) the file is created and extended to [size]
    (sparse); without it the file must exist and be exactly [size]
    bytes.  Every failure — a missing path, a short or oversized image,
    an unwritable or non-regular file — raises [Invalid_argument] with
    a message naming the image, never a raw [Unix.Unix_error]. *)

val temp_file : ?dir:string -> size:int -> unit -> t
(** A {!file} backend on a fresh temporary image that is unlinked
    immediately (the open descriptor keeps it alive), so crash-checker
    and test runs leave nothing behind. *)

val of_env : size:int -> unit -> t option
(** [Some (temp_file ~size ())] when the [LLD_BACKEND] environment
    variable is ["file"], [None] otherwise.  Construction sites that
    default to {!mem} consult this so the whole test suite can be
    re-run against the file backend ([LLD_BACKEND=file dune runtest],
    the CI job). *)
