type t = {
  mutable reads : int;
  mutable writes : int;
  mutable new_blocks : int;
  mutable delete_blocks : int;
  mutable new_lists : int;
  mutable delete_lists : int;
  mutable arus_begun : int;
  mutable arus_committed : int;
  mutable arus_aborted : int;
  mutable record_creates : int;
  mutable record_transitions : int;
  mutable mesh_hops : int;
  mutable pred_search_hops : int;
  mutable summary_entries : int;
  mutable link_log_appends : int;
  mutable link_log_replays : int;
  mutable replay_skips : int;
  mutable segments_written : int;
  mutable segments_cleaned : int;
  mutable blocks_copied_clean : int;
  mutable clean_disk_reads : int;
  mutable clean_cache_hits : int;
  mutable victim_scans : int;
  mutable clean_picks : int;
  mutable live_index_updates : int;
  mutable checkpoints : int;
  mutable commit_batches : int;
  mutable group_commits : int;
  mutable commit_barriers : int;
  mutable commits_submitted : int;
  mutable commit_queue_aborts : int;
  mutable commit_wakeups : int;
  mutable forced_flushes : int;
  mutable recovery_replayed_segments : int;
  mutable recovery_skipped_segments : int;
  mutable recovery_replay_disk_reads : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable readaheads : int;
  mutable flushes : int;
  mutable bytes_copied : int;
  mutable copy_elisions : int;
  mutable cross_shard_commits : int;
  mutable prepare_barriers : int;
}

(* Single source of truth for every field: name, getter, setter.  All
   derived operations (reset / copy / diff / pp / export) walk this
   list, so adding a field only requires extending the record, [create]
   and this list — and the coverage test in [test/test_counters.ml]
   fails if the list and the record ever disagree in length. *)
let fields : (string * (t -> int) * (t -> int -> unit)) list =
  [
    ("reads", (fun t -> t.reads), fun t v -> t.reads <- v);
    ("writes", (fun t -> t.writes), fun t v -> t.writes <- v);
    ("new_blocks", (fun t -> t.new_blocks), fun t v -> t.new_blocks <- v);
    ( "delete_blocks",
      (fun t -> t.delete_blocks),
      fun t v -> t.delete_blocks <- v );
    ("new_lists", (fun t -> t.new_lists), fun t v -> t.new_lists <- v);
    ("delete_lists", (fun t -> t.delete_lists), fun t v -> t.delete_lists <- v);
    ("arus_begun", (fun t -> t.arus_begun), fun t v -> t.arus_begun <- v);
    ( "arus_committed",
      (fun t -> t.arus_committed),
      fun t v -> t.arus_committed <- v );
    ("arus_aborted", (fun t -> t.arus_aborted), fun t v -> t.arus_aborted <- v);
    ( "record_creates",
      (fun t -> t.record_creates),
      fun t v -> t.record_creates <- v );
    ( "record_transitions",
      (fun t -> t.record_transitions),
      fun t v -> t.record_transitions <- v );
    ("mesh_hops", (fun t -> t.mesh_hops), fun t v -> t.mesh_hops <- v);
    ( "pred_search_hops",
      (fun t -> t.pred_search_hops),
      fun t v -> t.pred_search_hops <- v );
    ( "summary_entries",
      (fun t -> t.summary_entries),
      fun t v -> t.summary_entries <- v );
    ( "link_log_appends",
      (fun t -> t.link_log_appends),
      fun t v -> t.link_log_appends <- v );
    ( "link_log_replays",
      (fun t -> t.link_log_replays),
      fun t v -> t.link_log_replays <- v );
    ("replay_skips", (fun t -> t.replay_skips), fun t v -> t.replay_skips <- v);
    ( "segments_written",
      (fun t -> t.segments_written),
      fun t v -> t.segments_written <- v );
    ( "segments_cleaned",
      (fun t -> t.segments_cleaned),
      fun t v -> t.segments_cleaned <- v );
    ( "blocks_copied_clean",
      (fun t -> t.blocks_copied_clean),
      fun t v -> t.blocks_copied_clean <- v );
    ( "clean_disk_reads",
      (fun t -> t.clean_disk_reads),
      fun t v -> t.clean_disk_reads <- v );
    ( "clean_cache_hits",
      (fun t -> t.clean_cache_hits),
      fun t v -> t.clean_cache_hits <- v );
    ("victim_scans", (fun t -> t.victim_scans), fun t v -> t.victim_scans <- v);
    ("clean_picks", (fun t -> t.clean_picks), fun t v -> t.clean_picks <- v);
    ( "live_index_updates",
      (fun t -> t.live_index_updates),
      fun t v -> t.live_index_updates <- v );
    ("checkpoints", (fun t -> t.checkpoints), fun t v -> t.checkpoints <- v);
    ( "commit_batches",
      (fun t -> t.commit_batches),
      fun t v -> t.commit_batches <- v );
    ( "group_commits",
      (fun t -> t.group_commits),
      fun t v -> t.group_commits <- v );
    ( "commit_barriers",
      (fun t -> t.commit_barriers),
      fun t v -> t.commit_barriers <- v );
    ( "commits_submitted",
      (fun t -> t.commits_submitted),
      fun t v -> t.commits_submitted <- v );
    ( "commit_queue_aborts",
      (fun t -> t.commit_queue_aborts),
      fun t v -> t.commit_queue_aborts <- v );
    ( "commit_wakeups",
      (fun t -> t.commit_wakeups),
      fun t v -> t.commit_wakeups <- v );
    ( "forced_flushes",
      (fun t -> t.forced_flushes),
      fun t v -> t.forced_flushes <- v );
    ( "recovery_replayed_segments",
      (fun t -> t.recovery_replayed_segments),
      fun t v -> t.recovery_replayed_segments <- v );
    ( "recovery_skipped_segments",
      (fun t -> t.recovery_skipped_segments),
      fun t v -> t.recovery_skipped_segments <- v );
    ( "recovery_replay_disk_reads",
      (fun t -> t.recovery_replay_disk_reads),
      fun t v -> t.recovery_replay_disk_reads <- v );
    ("cache_hits", (fun t -> t.cache_hits), fun t v -> t.cache_hits <- v);
    ("cache_misses", (fun t -> t.cache_misses), fun t v -> t.cache_misses <- v);
    ("readaheads", (fun t -> t.readaheads), fun t v -> t.readaheads <- v);
    ("flushes", (fun t -> t.flushes), fun t v -> t.flushes <- v);
    ("bytes_copied", (fun t -> t.bytes_copied), fun t v -> t.bytes_copied <- v);
    ( "copy_elisions",
      (fun t -> t.copy_elisions),
      fun t v -> t.copy_elisions <- v );
    ( "cross_shard_commits",
      (fun t -> t.cross_shard_commits),
      fun t v -> t.cross_shard_commits <- v );
    ( "prepare_barriers",
      (fun t -> t.prepare_barriers),
      fun t v -> t.prepare_barriers <- v );
  ]

let create () =
  {
    reads = 0;
    writes = 0;
    new_blocks = 0;
    delete_blocks = 0;
    new_lists = 0;
    delete_lists = 0;
    arus_begun = 0;
    arus_committed = 0;
    arus_aborted = 0;
    record_creates = 0;
    record_transitions = 0;
    mesh_hops = 0;
    pred_search_hops = 0;
    summary_entries = 0;
    link_log_appends = 0;
    link_log_replays = 0;
    replay_skips = 0;
    segments_written = 0;
    segments_cleaned = 0;
    blocks_copied_clean = 0;
    clean_disk_reads = 0;
    clean_cache_hits = 0;
    victim_scans = 0;
    clean_picks = 0;
    live_index_updates = 0;
    checkpoints = 0;
    commit_batches = 0;
    group_commits = 0;
    commit_barriers = 0;
    commits_submitted = 0;
    commit_queue_aborts = 0;
    commit_wakeups = 0;
    forced_flushes = 0;
    recovery_replayed_segments = 0;
    recovery_skipped_segments = 0;
    recovery_replay_disk_reads = 0;
    cache_hits = 0;
    cache_misses = 0;
    readaheads = 0;
    flushes = 0;
    bytes_copied = 0;
    copy_elisions = 0;
    cross_shard_commits = 0;
    prepare_barriers = 0;
  }

let reset t = List.iter (fun (_, _, set) -> set t 0) fields

let copy t =
  let c = create () in
  List.iter (fun (_, get, set) -> set c (get t)) fields;
  c

let to_alist t = List.map (fun (name, get, _) -> (name, get t)) fields
