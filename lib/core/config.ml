type mode = Sequential | Concurrent
type visibility = Any_shadow | Committed_only | Own_shadow
type clean_policy = Greedy | Cost_benefit

type t = {
  mode : mode;
  visibility : visibility;
  cost : Lld_sim.Cost.t;
  cache_blocks : int;
  readahead : bool;
  auto_clean : bool;
  clean_policy : clean_policy;
  clean_reserve_segments : int;
  checkpoint_interval_segments : int;
  checkpoint_dirty_threshold : int;
  recovery_sweep : bool;
  recovery_parallel : bool;
  recovery_early_open : bool;
  group_commit_window : int;
  group_commit_batch : int;
  scrub_on_mount : bool;
}

(* [LLD_GROUP_COMMIT_WINDOW] (virtual nanoseconds) overrides the
   window, so the suite can re-run with group commit off. *)
let group_commit_window =
  Option.value ~default:100_000
    (Option.bind (Sys.getenv_opt "LLD_GROUP_COMMIT_WINDOW") int_of_string_opt)

let default =
  {
    mode = Concurrent;
    visibility = Own_shadow;
    cost = Lld_sim.Cost.sparc5_70;
    cache_blocks = 2048;
    readahead = true;
    auto_clean = true;
    clean_policy = Cost_benefit;
    clean_reserve_segments = 4;
    checkpoint_interval_segments = 0;
    checkpoint_dirty_threshold = 4096;
    recovery_sweep = true;
    recovery_parallel = true;
    recovery_early_open = false;
    group_commit_window;
    group_commit_batch = 32;
    scrub_on_mount = false;
  }

let old_lld = { default with mode = Sequential }

let pp_mode ppf = function
  | Sequential -> Format.fprintf ppf "sequential"
  | Concurrent -> Format.fprintf ppf "concurrent"

let pp_visibility ppf = function
  | Any_shadow -> Format.fprintf ppf "any-shadow"
  | Committed_only -> Format.fprintf ppf "committed-only"
  | Own_shadow -> Format.fprintf ppf "own-shadow"

let pp_clean_policy ppf = function
  | Greedy -> Format.fprintf ppf "greedy"
  | Cost_benefit -> Format.fprintf ppf "cost-benefit"
