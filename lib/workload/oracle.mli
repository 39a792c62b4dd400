(** Expected-outcome oracle populated by traced workloads and consumed
    by the crash-consistency checker ([lib/crashcheck]).

    A workload registers one {e unit} per atomic effect it performs:
    either a raw-LD unit (the lists and expected-committed block
    contents of one ARU) or a file-system unit (a path and its expected
    full content).  After recovering from an arbitrary crash point the
    checker verifies each unit is present {e in full} or absent {e in
    full} — the paper's failure-atomicity claim (§3). *)

type block_unit = {
  bu_label : string;
  bu_lists : Lld_core.Types.List_id.t list;
      (** lists the ARU created; they must exist exactly when the ARU
          committed (recovery scavenges the empty lists of uncommitted
          ARUs, paper §3.3) *)
  bu_blocks : (Lld_core.Types.Block_id.t * bytes) list;
      (** blocks in list order with their expected committed contents *)
  bu_overwrites : (Lld_core.Types.Block_id.t * bytes * bytes) list;
      (** preexisting committed blocks the ARU overwrote, as
          [(block, old, new)]: a recovered state must show [new] exactly
          when the unit committed and [old] exactly when it did not —
          an aborted (or presumed-aborted) ARU must leave the committed
          version untouched, even though the overwrite shares a log
          segment with it.  The block itself must survive either way. *)
  bu_must_not_commit : bool;
      (** the workload never wrote this unit's commit record (an ARU
          left open); any recovered state showing it committed is a
          violation *)
}

type file_unit = {
  fu_path : string;
  fu_content : bytes;
      (** under per-operation ARUs a recovered file is either absent,
          empty (created, data not yet persistent) or holds exactly this
          content — anything else is a violation *)
}

type unit_ = Blocks of block_unit | File of file_unit

type t

val create : unit -> t

val add_blocks :
  t ->
  label:string ->
  ?must_not_commit:bool ->
  ?overwrites:(Lld_core.Types.Block_id.t * bytes * bytes) list ->
  lists:Lld_core.Types.List_id.t list ->
  (Lld_core.Types.Block_id.t * bytes) list ->
  unit

val add_file : t -> path:string -> content:bytes -> unit

val units : t -> unit_ list
(** In registration order. *)

val size : t -> int
