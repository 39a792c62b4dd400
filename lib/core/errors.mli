(** Exceptions raised by the logical disk system.

    Client programming errors (operating on identifiers that are not
    allocated, or on a finished ARU) raise; environmental conditions the
    client must handle (a full disk) also raise, with a dedicated
    constructor.  Crash and media failures surface as the
    {!Lld_disk.Fault} exceptions of the underlying device. *)

exception Unallocated_block of Types.Block_id.t
(** The block is not allocated in the state the operation addresses. *)

exception Unallocated_list of Types.List_id.t
exception Unknown_aru of Types.Aru_id.t
(** The ARU identifier does not name an active ARU. *)

exception Aru_already_active
(** Sequential mode only: BeginARU while another ARU is open. *)

exception Block_not_on_list of Types.Block_id.t
(** A list operation named a block that is not a member of the list. *)

exception Disk_full
(** No free segment (after cleaning) or no free logical identifier. *)

exception Corrupt of string
(** Recovery found on-disk state it cannot interpret. *)

(** Media corruption detected by the checksum layer — the notafs-style
    typed family, distinct from {!Corrupt} (wrong logical structure).
    Checksum failures name exactly what decayed; they are the work
    queue of [lld scrub]. *)
type corruption =
  | Invalid_checksum of { what : string; index : int }
      (** [what] names the structure (["segment slot"],
          ["segment meta"], ["superblock slot"]), [index] which one. *)
  | All_generations_corrupted
      (** A formatted image lost every generation of one of its two
          generational structures: both superblock slots failed their
          checksums on a disk that otherwise holds valid checkpoints, or
          neither checkpoint region yields a generation while a
          superblock slot is valid (see {!Recovery.recover}).  Mount
          refuses. *)

exception Corruption of corruption

val pp_corruption : Format.formatter -> corruption -> unit

exception Commit_pending of Types.Aru_id.t
(** The ARU sits in the group-commit queue ({!Lld.submit_commit}):
    ending or aborting it again is a client error until
    {!Lld.flush_commits} drains the queue. *)

val pp_exn : Format.formatter -> exn -> unit
(** Human-readable rendering of the exceptions above (falls back to
    [Printexc.to_string]). *)

val on_panic : (exn -> unit) -> unit
(** Install a process-global hook fired by {!panic} just before the
    exception propagates.  Hooks run most-recently-installed first;
    exceptions they raise are swallowed.  Intended for forensics
    (dumping the flight recorder while the failing instance is live),
    not for control flow. *)

val clear_panic_hooks : unit -> unit

val panic : exn -> 'a
(** Fire every panic hook with [e], then [raise e]. *)

val corrupt : string -> 'a
(** [panic (Corrupt msg)] — for invariant violations in a live
    instance.  Codec-level probes that raise-and-catch [Corrupt] on
    purpose (e.g. checkpoint generation selection) use plain [raise]
    and never fire the hooks. *)
