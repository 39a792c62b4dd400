(** Reference-model differential tester.

    Generates multi-client {!Program}s, runs each against the executable
    specification ({!Model}) and the real log-structured implementation
    ({!Lld_core.Lld}) through the shared {!Lld_core.Op.Make} hook, and
    compares every observable result, the final committed state, and —
    on crash cases — the state recovered from sampled crash points
    against the model's crash frontier (every recovered disk must equal
    the model with each in-flight ARU fully committed or fully absent).

    Identifier allocation in the model mirrors the real allocators, so
    identifiers, results and error strings are compared directly.

    Everything is seeded: [fuzz ~seed ~budget] is a pure function of its
    arguments, and a failing case's rendered report reproduces
    bit-for-bit. *)

type backend = Mem | File

type config = {
  visibility : Lld_core.Config.visibility;
  mutation : Model.mutation option;
      (** injected specification bug (self-test); a divergence is then
          the {e expected} outcome *)
  backend : backend;
  clients : int;
  ops : int;  (** commands per client *)
  crash_every : int;
      (** every [n]-th case also replays sampled crash points
          ([0] = never) *)
  crash_points : int;
      (** crash-point sample budget per crash case; torn writes are cut
          every 512 bytes *)
  group_commit : bool;
      (** schedule commits through the group-commit engine: [Commit]
          commands become [Submit_commit], and both sides' queues are
          drained in lockstep whenever the real instance reports a
          batch due (and at quiescence).  The model flushes stepwise,
          extending the crash frontier with every per-ARU boundary
          inside a batch — a torn batched commit record must recover
          to one of those states. *)
  shards : int;
      (** drive the real side as [shards] {!Lld_core.Shard} instances
          behind the sharded facade (default 1 — a bit-identical
          passthrough to the flat {!Lld_core.Lld}).  With more, the
          same programs exercise cross-shard ARUs and their two-phase
          commits: the flat model stays the union oracle (a committed
          ARU's effects are atomic wherever its blocks live), only
          identifier placement is mirrored (Model [?shards]).  Crash
          cases record one interleaved global write trace over all
          shard disks and recover the whole array per crash point with
          {!Lld_core.Shard.recover} — an ARU decided on its
          coordinator but not yet propagated to a participant counts
          as committed, which is exactly the frontier state the
          model's atomic commit already noted. *)
}

val default_config : config
(** Own-shadow visibility, no mutation, in-memory backend, 2 clients,
    40 commands each, crash points on every 4th case (12 points,
    512-byte granularity), no group commit, one shard. *)

(** Why a case diverged. *)
type kind =
  | Step_mismatch  (** an operation returned different results *)
  | Final_state_mismatch  (** committed states differ after quiescence *)
  | Crash_mismatch
      (** a recovered disk state is not on the model's crash frontier *)

type divergence = {
  dv_kind : kind;
  dv_detail : string list;  (** human-readable description *)
  dv_trail : string list;  (** executed operations, resolved and timed *)
}

type failure = {
  fl_case_index : int;  (** 1-based index of the diverging case *)
  fl_case_seed : int;
  fl_program : Program.t;
  fl_divergence : divergence;
  fl_shrunk : Program.t;  (** minimal program still diverging *)
  fl_shrunk_divergence : divergence;
  fl_shrink_execs : int;  (** executions the shrinker spent *)
}

type report = {
  rp_seed : int;
  rp_config : config;
  rp_cases : int;  (** cases executed (≤ budget; stops at divergence) *)
  rp_ops : int;  (** operations executed across all cases *)
  rp_skipped : int;  (** commands skipped by resolution *)
  rp_crash_cases : int;
  rp_crash_points : int;  (** crash points checked across all cases *)
  rp_failure : failure option;
}

val ok : report -> bool

val run_program :
  ?crash:bool ->
  ?obs_for:(Lld_sim.Clock.t -> Lld_obs.Obs.t) ->
  config -> seed:int -> Program.t -> divergence option
(** Execute one program on a fresh model + real pair.  [seed] only
    influences crash-point sampling.  [crash] (default false) enables
    the crash-composition phase.  [obs_for] (default: none) builds an
    observability handle from the run's virtual clock and attaches it
    to the real instance — probes never charge the clock, so the run is
    bit-identical with or without it. *)

val dump_forensics :
  ?crash:bool ->
  dir:string ->
  label:string ->
  config -> seed:int -> Program.t -> divergence option * string list
(** Re-run a (typically shrunk) diverging program with full tracing and
    the flight recorder live, then dump the black-box bundle
    ([<label>.flight.jsonl], [<label>.trace.json],
    [<label>.metrics.json]) into [dir] (created if missing).  Returns
    the re-run's divergence — equal to the original, observability is
    effect-free — and the written paths. *)

val fuzz : ?progress:(case:int -> unit) -> seed:int -> budget:int ->
  config -> report
(** Generate and check [budget] cases.  Stops at the first divergence,
    shrinks it with a bounded delta-debugging loop, and reports the
    minimal program. *)

val pp_divergence : Format.formatter -> divergence -> unit
val pp_report : Format.formatter -> report -> unit
(** Deterministic rendering: equal seeds and configs produce
    byte-identical output. *)
