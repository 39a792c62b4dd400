(** The reproduction index (DESIGN.md §4): every experiment is one
    declaration — how to run it, the tables it prints, and the checks
    its results must pass — and one generic runner prints, serialises
    and judges any list of them.

    A {!scale} shrinks the workloads for quick runs; {!full} reproduces
    the paper's exact parameters. *)

type scale = {
  files : float;  (** multiplier on small-file counts *)
  bytes : float;  (** multiplier on the large-file size *)
  arus : float;  (** multiplier on the ARU-latency count *)
  geom : Lld_disk.Geometry.t;  (** partition used for the runs *)
}

val full : scale
(** The paper's parameters on the paper's 400 MB partition. *)

val quick : scale
(** ~5 % sized workloads on a 100 MB partition — seconds, not minutes. *)

val scaled : float -> scale
(** [scaled f]: the paper's partition with small-file counts and the
    large-file size multiplied by [f] and the ARU count by [f /. 5]. *)

(** One sanity gate over a reproduced artifact: not an exact number (the
    virtual clock is calibrated, not cycle-accurate) but the directional
    claim the table or figure exists to demonstrate. *)
type check = { ck_name : string; ck_ok : bool; ck_detail : string }

type 'r experiment = {
  id : string;  (** ["F5"], ["G1"], ... — the key in the bench JSON *)
  paper_ref : string;  (** what it reproduces, or ["ours"] *)
  run : scale -> 'r;
  tables : 'r -> Report.table list;
  checks : 'r -> check list;
}

type t = T : 'r experiment -> t

val all : t list
(** Every experiment, in the order the reproduction prints them. *)

val figure5 : t
(** F5 — Figure 5, small-file throughput of the three variants; its
    checks assert the paper's direction (old ≥ new on create+write and
    delete, improved deletion ≥ new on delete). *)

val group_commit : ?clients:int list -> unit -> t
(** G1 — synchronous-commit throughput over [clients] concurrent clients
    (default {e 1, 2, 4, 8, 16}).  Checks a row per requested count and,
    when 1 and 8 are both requested, the scaling (≥ 3×) and
    barrier-amortization (< 0.5 barriers/commit) gates. *)

val run : Format.formatter -> scale -> t list -> check list * Report.json
(** Run each experiment in order, printing its tables as it finishes,
    then print every check.  Returns the checks and the bench JSON
    ([{"schema", "scale", "experiments": {<id>: {"paper_ref", "tables",
    "checks"}}}]). *)

val exit_status : check list -> int
(** [0] when every check passed; otherwise lists the failures on stderr
    and returns [1]. *)
