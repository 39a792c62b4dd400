(** Concurrent client engine over the group-commit queue.

    The implementation is single-threaded by design (paper §3:
    concurrency control is the client's problem), so "N concurrent
    clients" means N logical request streams multiplexed over one
    {!Lld} instance.  This engine is that multiplexer: an explicit
    run-to-completion event loop — deterministic, no scheduler
    randomness — that steps each client in round-robin order, one
    {!Op} per step, and drains the commit queue whenever a batch is
    due (DESIGN.md §5.11).

    Clients are written with {!direct}: a plain function that calls
    [perform op] for each operation and gets that operation's result
    back, so a paused client's state is its continuation, and the same
    body runs blocking when [perform] is {!Op.Make}'s [apply].  The
    {!client} generator type underneath stays for bench/perf's frozen
    client, written against it by hand.

    When group commit is enabled (concurrent mode and
    {!Config.t.group_commit_window}[ > 0]) a client's [End_aru] is
    translated to [Submit_commit] and the client {e parks} until the
    flusher commits its batch — so client code is written once,
    against the blocking interface, and the engine decides how commits
    are paid for.  Parked clients wake in FIFO submission order, each
    receiving the [R_unit] its commit produced.  When every live
    client is parked the queue is force-flushed (the drain close
    condition); the size and window close conditions are
    {!Lld.commit_due}, polled after every operation.  With the window
    at 0 nothing is translated or queued and the loop degenerates to
    sequential interleaving of immediate commits.

    A parked client whose queued ARU another client aborts
    ({!Lld.abort_aru} dequeues the commit intent) wakes like any other
    resolved commit, receiving [R_unit]: from the waiter's point of
    view its submission completed — as an abort.  The engine polls
    waiters after every [Abort_aru] so such wakes happen promptly.

    When the instance carries a live {!Lld_obs.Obs} handle, the engine
    closes each commit's causality chain (a [Flow_end] on the
    ["commit"] flow at wake) and feeds the ["aru.commit.wake"] and
    per-client ["aru.commit.latency.c<i>"] stage histograms; it also
    maintains the [commit_wakeups] and [forced_flushes] operation
    counters (always, traced or not).

    The loop is a functor, {!Make}, over any {!Ld_intf.S} that also
    exposes the group-commit introspection hooks ({!ENGINE_LD}) — the
    sharded front-end ({!Shard}) instantiates it to multiplex clients
    over S logical disks through one facade.  The toplevel [run] is
    [Make(Lld)]'s, for compatibility. *)

type client = Op.result option -> Op.t option
(** One request stream, as a generator: it receives the result of its
    previous operation ([None] on the first step) and returns the next
    operation, or [None] when it is finished. *)

val direct : ((Op.t -> Op.result) -> unit) -> client
(** [direct body] is the client that runs [body perform] in direct
    style.  The first call runs [body] up to its first [perform op] and
    returns [Some op]; each later call resumes [body] with its argument
    as that op's result, up to the next [perform].  When [body] returns,
    the call yields [None], and so does every later call.  An exception
    from [body] escapes from the call that resumed it (so from {!run}).
    [perform] may only be called by [body] while the client runs. *)

type stats = {
  ops : int;  (** operations applied, including translated submits *)
  commits : int;  (** ARUs committed (immediately or via a batch) *)
  flushes : int;  (** queue drains that committed at least one ARU *)
  forced_flushes : int;
      (** drains forced because every live client was parked *)
  max_batch : int;  (** largest single drain *)
}

module type ENGINE_LD = sig
  include Ld_intf.S

  val config : t -> Config.t
  (** The instance's configuration; the engine reads the group-commit
      window and mode to decide whether to translate [End_aru]. *)

  val commit_due : t -> bool
  (** Whether a queued batch's size or window close condition holds. *)

  val commit_pending : t -> Types.Aru_id.t -> bool
  (** Whether the ARU's commit intent is still queued (so its client
      must stay parked). *)

  val pending_commits : t -> int
  (** Queued commit intents (for the exit-time leftover drain). *)
end
(** What the engine needs from a logical disk: the LD interface plus
    group-commit introspection. *)

module Make (Ld : ENGINE_LD) : sig
  val run : Ld.t -> client list -> stats
end

val run : Lld.t -> client list -> stats
(** Run the clients to completion.  The commit queue is empty when
    [run] returns — trailing intents are force-flushed.  Equivalent to
    [Make(Lld)]'s [run]. *)
