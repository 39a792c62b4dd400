(** The list-table: one persistent record per known list (paper §2,
    Figure 3), plus list-identifier allocation.

    Identifiers are handed out from a watermark with a free pool for
    reuse; after recovery the pool is rebuilt from the surviving
    persistent records. *)

type t

val create : max_lists:int -> t
(** [max_lists] caps how many lists may exist simultaneously. *)

val anchor : t -> Types.List_id.t -> Record.list_r
(** The persistent record for the identifier, created on first use
    (with [exists = false]). *)

val in_range : t -> Types.List_id.t -> bool
(** Whether the identifier is one {!alloc_id} can hand out: from 1 to
    [max_lists]. *)

val find_anchor : t -> Types.List_id.t -> Record.list_r option
(** The persistent record only if it was ever materialised. *)

val alloc_id : t -> Types.List_id.t option
(** A fresh or recycled identifier; [None] when [max_lists] lists
    already exist.  The first identifier handed out on a fresh table is
    1 (deterministic, so clients can rely on well-known lists). *)

val release_id : t -> Types.List_id.t -> unit

val rebuild_free : t -> unit
(** Rebuild watermark and free pool from the persistent records'
    existence flags (used after recovery). *)

val iter : t -> (Record.list_r -> unit) -> unit
(** Over all materialised persistent records, in increasing identifier
    order. *)
