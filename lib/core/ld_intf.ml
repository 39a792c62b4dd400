(** The Logical Disk interface, as a signature.

    The paper's second design advantage of LD (§2) is that
    "implementations can be exchanged transparently, without changing
    applications" — several file systems can share one implementation
    and one file system can run on several.  This signature captures the
    operations clients program against; {!Lld} (the log-structured
    implementation the paper evaluates) satisfies it, and so does the
    journaling update-in-place implementation in [lib/jld] (the kind of
    alternative §5.4 anticipates).  The Minix file system is a functor
    over it. *)

module type S = sig
  type t

  (** {1 Atomic recovery units} *)

  val begin_aru : t -> Types.Aru_id.t
  val end_aru : t -> Types.Aru_id.t -> unit
  val abort_aru : t -> Types.Aru_id.t -> unit
  val with_aru : t -> (Types.Aru_id.t -> 'a) -> 'a

  val submit_commit : t -> Types.Aru_id.t -> unit
  (** Enqueue a commit intent for group commit: the ARU stops accepting
      a second [end_aru]/[abort_aru] (they raise
      [Errors.Commit_pending]) and commits when {!flush_commits} drains
      the queue.  Implementations without a group-commit engine may
      commit immediately, which is also the behaviour when the
      configured group-commit window is 0. *)

  val flush_commits : t -> int
  (** Drain the commit queue in FIFO order, committing every queued ARU;
      returns the number committed (0 when the queue is empty). *)

  (** {1 The LD operations} *)

  val new_list : t -> ?aru:Types.Aru_id.t -> unit -> Types.List_id.t

  val new_block :
    t ->
    ?aru:Types.Aru_id.t ->
    list:Types.List_id.t ->
    pred:Summary.pred ->
    unit ->
    Types.Block_id.t

  val write : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> bytes -> unit
  val read : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> bytes
  val delete_block : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> unit
  val delete_list : t -> ?aru:Types.Aru_id.t -> Types.List_id.t -> unit
  val flush : t -> unit

  (** {1 Introspection} *)

  val list_exists : t -> ?aru:Types.Aru_id.t -> Types.List_id.t -> bool
  val block_allocated : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> bool

  val block_member :
    t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> Types.List_id.t option

  val list_blocks :
    t -> ?aru:Types.Aru_id.t -> Types.List_id.t -> Types.Block_id.t list

  val lists : t -> Types.List_id.t list
  val capacity : t -> int
  val allocated_blocks : t -> int
  val block_bytes : t -> int

  (** {1 Maintenance} *)

  val scavenge : t -> int
  val orphan_blocks : t -> Types.Block_id.t list

  (** {1 Measurement} *)

  val clock : t -> Lld_sim.Clock.t
  val cost_model : t -> Lld_sim.Cost.t
  val counters : t -> Counters.t

  (** {1 Observability} *)

  val set_obs : t -> Lld_obs.Obs.t -> unit
  (** Attach an observability handle (tracer + metrics); the default is
      {!Lld_obs.Obs.null}, on which every probe is a no-op. *)

  val obs : t -> Lld_obs.Obs.t
end

(** [with_aru ~begin_aru ~end_aru ~undo t f] is {!S.with_aru} written
    once: it begins an ARU on [t] and runs [f] in it, then ends the ARU
    when [f] returns, or calls [undo] on it and re-raises when [f]
    raises.  [undo] is the implementation's abort, or its [end_aru]
    where it cannot abort (LLD's sequential prototype). *)
let with_aru ~begin_aru ~end_aru ~undo t f =
  let aru = begin_aru t in
  match f aru with
  | v ->
    end_aru t aru;
    v
  | exception e ->
    undo t aru;
    raise e
