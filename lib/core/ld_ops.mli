(** The write side of the version rules (paper §3.3–§4), shared by both
    Logical Disk implementations: the validation and shadow paths of the
    LD operations, the version a read resolves to, the list-operation
    log's replay, the shadow-data merge, abort's discard and the
    committed dealloc sequence.

    Each storage effect goes through a {!sink} fixed at construction:
    [Lld] logs summary entries and stamps durability, writes committed
    data into a segment slot and keeps shadow data in its arena; [Jld]
    appends to its journal, tracks committed data in its dirty map and
    keeps shadow data as a private copy.  The code branches only on the
    {!Versions} layer shape: an in-ARU operation runs in the ARU's
    shadow state, except on {!Versions.Anchors} (LLD's sequential
    prototype), where it runs in the committed state on the ARU's stream
    and the identifiers it frees wait for the commit record.  One branch
    is a stopgap: on {!Versions.Anchors_committed_shadows} a fresh
    identifier's stale shadow version is reset (see [ld_ops.ml]).

    The operations charge their own dispatch; the ARU lifecycle
    ({!begin_aru}, {!abort}, the commit pieces) leaves it, and every
    rule of its own, to the caller. *)

(** The committed record a logged entry makes durable. *)
type durable = No_record | Block of Record.block | List of Record.list_r

type sink = {
  committed_block : Types.Block_id.t -> Record.block;
      (** the record a committed mutation writes *)
  committed_list : Types.List_id.t -> Record.list_r;
  committed_ctx : Splice.ctx;  (** the committed state, for simple operations *)
  log : Summary.stream -> Summary.op -> durable -> unit;
  write_data :
    Summary.stream -> Types.Block_id.t -> Lld_util.Blk.t -> stamp:int -> unit;
      (** a committed data write, after validation; the view stays the
          caller's *)
  forget : Record.block -> unit;
      (** a committed block is freed: drop what holds its data *)
  allocated : Record.block -> unit;
      (** a committed block is allocated: it reads zeros until its first
          write, whatever an earlier incarnation left *)
  hold_data : Record.block -> Lld_util.Blk.t -> unit;
      (** give a shadow record its own copy of the data *)
  drop_data : Record.block -> unit;
}

type t = {
  name : string;  (** the implementation, for error messages *)
  v : Versions.t;
  sink : sink;
  mutable stamp : int;  (** the last stamp handed out *)
  mutable next_aru : int;
}

val create : name:string -> Versions.t -> sink -> t

val begin_aru : t -> Aru.t
(** A new active ARU; charges half the begin cost on
    {!Versions.Anchors}. *)

val new_list : t -> ?aru:Types.Aru_id.t -> unit -> Types.List_id.t

val new_block :
  t ->
  ?aru:Types.Aru_id.t ->
  list:Types.List_id.t ->
  pred:Summary.pred ->
  unit ->
  Types.Block_id.t

val write : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> Lld_util.Blk.t -> unit

val read : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> Record.block
(** The visible version the read resolves to; its data is the
    implementation's to fetch. *)

val delete_block : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> unit
val delete_list : t -> ?aru:Types.Aru_id.t -> Types.List_id.t -> unit

val free_orphan : t -> Types.Block_id.t -> unit
(** Scavenge one orphaned block: the committed dealloc sequence on the
    simple stream, without an operation's dispatch or count. *)

(** {1 Commit and abort} *)

val replay_log : t -> Aru.t -> Splice.ctx -> unit
(** Replay the ARU's list-operation log in the committed state the
    context gives, logging each applied entry on the ARU's stream. *)

val merge_shadow :
  t ->
  Aru.t ->
  write:(Types.Block_id.t -> Lld_util.Blk.t -> stamp:int -> unit) ->
  unit
(** Move the ARU's shadow records off their chains; a shadow data
    version newer than the committed one goes to [write]. *)

val abort : t -> Types.Aru_id.t -> unit
(** Discard the ARU's shadow records and forget the ARU. *)
