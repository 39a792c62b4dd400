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

    Three stores are provided: {!mem}, the in-memory image the
    simulation always used; {!file}, a real on-disk image memory-mapped
    through [Unix.map_file] — giving the logical disk actual durability
    across process runs ([lld mkfs --file] / [lld mount --file]) at
    identical virtual-clock cost; and {!overlay}, an in-memory
    copy-on-write store over content it reads through to. *)

module Blk = Lld_util.Blk

type t = {
  label : string;
      (** ["mem"], ["file:<path>"] or ["overlay"] — for reports *)
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

val page_bytes : int
(** The page size of {!overlay}: 4096 bytes. *)

val overlay : size:int -> (int -> Blk.t -> unit) -> t
(** A copy-on-write store over original content it never writes.
    [overlay ~size fill] reads page [p] (bytes [p * page_bytes] up to
    the next page or [size]) by calling [fill p view], which must write
    the page's original content into [view], of exactly the page's
    length.  The first write to a page gives it a private copy, and
    every later read and write of that page goes to the copy, so the
    store's writes never reach what [fill] reads from.  Reads return
    fresh views filled by copying, as on every store; [snapshot] reads
    the whole store.  Crash images are built this way
    ([Crashcheck.Raw.stores_at]), and so is the model checker's fresh
    disk, over zero pages. *)

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
