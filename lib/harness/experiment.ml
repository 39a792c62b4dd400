module Geometry = Lld_disk.Geometry
module Config = Lld_core.Config
module Counters = Lld_core.Counters
module Summary = Lld_core.Summary
module Lld = Lld_core.Lld
module Op = Lld_core.Op
module Engine = Lld_core.Engine
module Shard = Lld_core.Shard
module Shard_engine = Engine.Make (Shard)
module Recovery = Lld_core.Recovery
module Disk = Lld_disk.Disk
module Clock = Lld_sim.Clock
module Setup = Lld_workload.Setup
module Smallfile = Lld_workload.Smallfile
module Largefile = Lld_workload.Largefile
module Aru_churn = Lld_workload.Aru_churn
module Concurrent = Lld_workload.Concurrent
module Mixed = Lld_workload.Mixed
module Crashcheck = Lld_crashcheck.Crashcheck
module Fs = Lld_minixfs.Fs
module Obs = Lld_obs.Obs
module Metrics = Lld_obs.Metrics
module Trace = Lld_obs.Trace
module Histogram = Lld_sim.Stats.Histogram
module R = Report

type scale = {
  files : float;
  bytes : float;
  arus : float;
  geom : Lld_disk.Geometry.t;
}

let full = { files = 1.0; bytes = 1.0; arus = 1.0; geom = Geometry.paper }

let quick =
  {
    files = 0.05;
    bytes = 0.05;
    arus = 0.02;
    geom = Geometry.v ~num_segments:200 ();
  }

let scaled f = { full with files = f; bytes = f; arus = f /. 5. }

type check = { ck_name : string; ck_ok : bool; ck_detail : string }

type 'r experiment = {
  id : string;
  paper_ref : string;
  run : scale -> 'r;
  tables : 'r -> Report.table list;
  checks : 'r -> check list;
}

type t = T : 'r experiment -> t

let check ck_name ck_ok ck_detail = { ck_name; ck_ok; ck_detail }
let finite v = Float.is_finite v && v > 0.
let no_checks _ = []

(* One row per fingerprint component: did the two runs agree on it? *)
let fingerprint_rows differs =
  List.map
    (fun c -> [ R.text c; R.yes_no (not (List.mem c differs)) ])
    Setup.fingerprint_components

(* A latency percentile of histogram [key], in microseconds (0 when
   nothing was recorded). *)
let hist_us m key sel =
  match Metrics.find_histogram m key with
  | Some h when Histogram.count h > 0 -> float_of_int (sel h) /. 1e3
  | _ -> 0.

let per_sec n elapsed_ns =
  if elapsed_ns = 0 then 0. else float_of_int n /. (float_of_int elapsed_ns /. 1e9)

let ratio n d = if d = 0 then 0. else float_of_int n /. float_of_int d

(* ------------------------------------------------------------------ *)
(* F5: Figure 5 — small-file throughput                                *)

type fig5_row = {
  f5_variant : Setup.variant;
  f5_result : Smallfile.result;
}

let small_params scale =
  [
    Smallfile.scaled Smallfile.paper_1k scale.files;
    Smallfile.scaled Smallfile.paper_10k scale.files;
  ]

(* A1 and X2 are derived from the F5 runs, so the three declarations
   share one run per scale. *)
let figure5_rows =
  let last = ref None in
  fun scale ->
    match !last with
    | Some (s, rows) when s == scale -> rows
    | _ ->
      let rows =
        List.concat_map
          (fun params ->
            List.map
              (fun variant ->
                let inst = Setup.make ~geom:scale.geom variant in
                { f5_variant = variant; f5_result = Smallfile.run inst params })
              Setup.all_variants)
          (small_params scale)
      in
      last := Some (scale, rows);
      rows

let size_label (p : Smallfile.params) =
  Printf.sprintf "%d x %dKB" p.Smallfile.file_count (p.Smallfile.file_bytes / 1024)

let f5_params rows =
  List.sort_uniq compare (List.map (fun r -> r.f5_result.Smallfile.params) rows)

let f5_find rows variant (p : Smallfile.params) =
  List.find
    (fun r -> r.f5_variant = variant && r.f5_result.Smallfile.params = p)
    rows

let f5_phases : (string * (Smallfile.result -> Smallfile.phase)) list =
  [
    ("create+write", fun r -> r.Smallfile.create_write);
    ("read", fun r -> r.Smallfile.read);
    ("delete", fun r -> r.Smallfile.delete);
  ]

let files_per_sec sel r = (sel r.f5_result : Smallfile.phase).Smallfile.files_per_sec

let figure5_table rows =
  R.table
    ~title:
      "Figure 5: small-file throughput in files/second (diff vs old; paper: \
       create 4.0-7.2%, delete 17.9-20.5% with improved deletion)"
    ~header:("workload" :: "variant" :: List.map fst f5_phases)
    (List.concat_map
       (fun p ->
         let old = f5_find rows Setup.Old p in
         List.filter_map
           (fun r ->
             if r.f5_result.Smallfile.params <> p then None
             else
               Some
                 (R.text (size_label p)
                 :: R.text (Setup.variant_label r.f5_variant)
                 :: List.map
                      (fun (_, sel) ->
                        R.vs ~baseline:(files_per_sec sel old)
                          (files_per_sec sel r))
                      f5_phases))
           rows)
       (f5_params rows))

(* The paper's direction: ARU support costs the new variant throughput
   on create+write and delete, and improved deletion wins part of the
   delete cost back. *)
let figure5_checks rows =
  let all_phases =
    List.concat_map
      (fun r -> List.map (fun (_, sel) -> files_per_sec sel r) f5_phases)
      rows
  in
  let direction name phase winner loser =
    let sel = List.assoc phase f5_phases in
    let pairs =
      List.map
        (fun p ->
          ( p,
            files_per_sec sel (f5_find rows winner p),
            files_per_sec sel (f5_find rows loser p) ))
        (f5_params rows)
    in
    check name
      (List.for_all (fun (_, w, l) -> w >= l) pairs)
      (String.concat "; "
         (List.map
            (fun (p, w, l) -> Printf.sprintf "%s: %.1f >= %.1f" (size_label p) w l)
            pairs))
  in
  [
    check "F5: small-file throughputs positive and finite"
      (List.for_all finite all_phases)
      (Printf.sprintf "%d phases" (List.length all_phases));
    direction "F5: create+write old >= new" "create+write" Setup.Old Setup.New;
    direction "F5: delete old >= new" "delete" Setup.Old Setup.New;
    direction "F5: delete new-delete >= new" "delete" Setup.New_delete Setup.New;
  ]

let figure5 =
  T
    {
      id = "F5";
      paper_ref = "Figure 5";
      run = figure5_rows;
      tables = (fun rows -> [ figure5_table rows ]);
      checks = figure5_checks;
    }

(* ------------------------------------------------------------------ *)
(* F6: Figure 6 — large-file throughput                                *)

type fig6_row = {
  f6_variant : Setup.variant;
  f6_result : Largefile.result;
}

let figure6_rows scale =
  let params = Largefile.scaled Largefile.paper scale.bytes in
  List.map
    (fun variant ->
      let inst = Setup.make ~geom:scale.geom variant in
      { f6_variant = variant; f6_result = Largefile.run inst params })
    [ Setup.Old; Setup.New ]

let figure6 =
  let tables rows =
    let old = List.find (fun r -> r.f6_variant = Setup.Old) rows in
    [
      R.table
        ~title:
          "Figure 6: large-file throughput in MB/second (diff vs old; paper: \
           write1 2.9%, others 0.2-0.7%)"
        ~header:[ "variant"; "write1"; "read1"; "write2"; "read2"; "read3" ]
        (List.map
           (fun r ->
             R.text (Setup.variant_label r.f6_variant)
             :: List.map2
                  (fun (ph : Largefile.phase) (base : Largefile.phase) ->
                    R.vs ~digits:2 ~baseline:base.Largefile.mb_per_sec
                      ph.Largefile.mb_per_sec)
                  (Largefile.phases r.f6_result)
                  (Largefile.phases old.f6_result))
           rows);
    ]
  in
  let checks rows =
    let all_phases =
      List.concat_map
        (fun r ->
          List.map
            (fun (p : Largefile.phase) -> p.Largefile.mb_per_sec)
            (Largefile.phases r.f6_result))
        rows
    in
    [
      check "F6: large-file throughputs positive and finite"
        (List.for_all finite all_phases)
        (Printf.sprintf "%d phases" (List.length all_phases));
    ]
  in
  T { id = "F6"; paper_ref = "Figure 6"; run = figure6_rows; tables; checks }

(* ------------------------------------------------------------------ *)
(* L1: §5.3 ARU latency                                                *)

let aru_latency =
  let run scale =
    let _, lld = Setup.make_raw ~geom:scale.geom Setup.New in
    let count =
      max 1000
        (int_of_float (float_of_int Aru_churn.paper.Aru_churn.count *. scale.arus))
    in
    Aru_churn.run lld { Aru_churn.count }
  in
  let tables (r : Aru_churn.result) =
    [
      R.table
        ~title:
          "ARU latency (paper 5.3: 78.47 us/ARU, 24 segments for 500,000 ARUs)"
        ~header:
          [ "ARUs"; "latency (us)"; "segments written"; "segments/100k ARUs" ]
        [
          [
            R.int r.Aru_churn.count;
            R.float r.Aru_churn.latency_us;
            R.int r.Aru_churn.segments_written;
            R.float ~digits:1
              (float_of_int r.Aru_churn.segments_written
              /. float_of_int r.Aru_churn.count *. 100_000.);
          ];
        ];
    ]
  in
  let checks (r : Aru_churn.result) =
    [
      check "L1: ARU latency measurable, log written"
        (finite r.Aru_churn.latency_us && r.Aru_churn.segments_written > 0)
        (Printf.sprintf "%.2f us/ARU, %d segments" r.Aru_churn.latency_us
           r.Aru_churn.segments_written);
    ]
  in
  T { id = "L1"; paper_ref = "§5.3 ARU latency"; run; tables; checks }

(* ------------------------------------------------------------------ *)
(* A1: §5.4 average-overhead summary                                   *)

let summary =
  let tables rows =
    let overheads sel variant =
      List.filter_map
        (fun r ->
          if r.f5_variant <> variant then None
          else
            let b =
              files_per_sec sel (f5_find rows Setup.Old r.f5_result.Smallfile.params)
            in
            Some ((b -. files_per_sec sel r) /. b *. 100.))
        rows
    in
    let range xs =
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      {
        R.text = Printf.sprintf "%.1f%% - %.1f%%" lo hi;
        value = R.List [ R.Float lo; R.Float hi ];
      }
    in
    let create = overheads (fun r -> r.Smallfile.create_write) Setup.New in
    let delete = overheads (fun r -> r.Smallfile.delete) Setup.New_delete in
    let all = create @ delete in
    let avg = List.fold_left ( +. ) 0. all /. float_of_int (List.length all) in
    [
      R.table
        ~title:
          "Summary (paper 5.4: average overhead about half-way between \
           create 4.0-7.2% and improved delete 17.9-20.5%)"
        ~header:[ "metric"; "measured" ]
        [
          [ R.text "create overhead (new vs old)"; range create ];
          [ R.text "delete overhead (new,delete vs old)"; range delete ];
          [ R.text "average overhead"; R.float ~digits:1 ~suffix:"%" avg ];
        ];
    ]
  in
  T
    {
      id = "A1";
      paper_ref = "§5.4 average overhead";
      run = figure5_rows;
      tables;
      checks = no_checks;
    }

(* ------------------------------------------------------------------ *)
(* X1: read-visibility ablation.  Runs the raw-LD concurrency workload
   under each of the paper's three read-visibility options (§3.3); the
   Minix client itself requires option 3, which is itself a finding.   *)

let concurrent_cells (c : Concurrent.result) =
  [
    R.int c.Concurrent.ops;
    R.float c.Concurrent.us_per_op;
    R.int c.Concurrent.record_creates;
    R.int c.Concurrent.mesh_hops;
  ]

let concurrent_header = [ "ops"; "us/op"; "record creates"; "mesh hops" ]

let visibility =
  let run scale =
    List.map
      (fun visibility ->
        let clock = Clock.create () in
        let disk = Disk.create ~clock scale.geom in
        let lld =
          Lld.create ~config:{ Config.default with Config.visibility } disk
        in
        Lld.flush lld;
        Clock.reset clock;
        (visibility, Concurrent.run_interleaved lld Concurrent.default))
      [ Config.Own_shadow; Config.Committed_only; Config.Any_shadow ]
  in
  let label = function
    | Config.Own_shadow -> "own-shadow (option 3, paper)"
    | Config.Committed_only -> "committed-only (option 2)"
    | Config.Any_shadow -> "any-shadow (option 1)"
  in
  let tables rows =
    [
      R.table
        ~title:
          "Ablation X1: read-visibility options (paper 3.3) on the \
           interleaved raw-LD workload (the Minix client itself requires \
           option 3)"
        ~header:("visibility" :: concurrent_header)
        (List.map (fun (v, c) -> R.text (label v) :: concurrent_cells c) rows);
    ]
  in
  T { id = "X1"; paper_ref = "§3.3 read visibility"; run; tables; checks = no_checks }

(* ------------------------------------------------------------------ *)
(* X2: deletion-policy ablation, derived from the F5 runs              *)

let delete_ablation =
  let tables rows =
    [
      R.table
        ~title:
          "Ablation X2: predecessor-search cost of the deletion policies \
           (paper 5.3: longer lists -> longer searches; improved deletion \
           avoids them)"
        ~header:[ "workload"; "variant"; "pred-search hops"; "hops/file" ]
        (List.filter_map
           (fun r ->
             match r.f5_variant with
             | Setup.Old -> None
             | Setup.New | Setup.New_delete ->
               let d = r.f5_result.Smallfile.delete in
               Some
                 [
                   R.text (size_label r.f5_result.Smallfile.params);
                   R.text (Setup.variant_label r.f5_variant);
                   R.int d.Smallfile.pred_search_hops;
                   R.float ~digits:1
                     (ratio d.Smallfile.pred_search_hops d.Smallfile.files);
                 ])
           rows);
    ]
  in
  (* improved deletion must not search more than standard deletion *)
  let checks rows =
    let hops variant p =
      (f5_find rows variant p).f5_result.Smallfile.delete
        .Smallfile.pred_search_hops
    in
    let pairs =
      List.map (fun p -> (hops Setup.New_delete p, hops Setup.New p)) (f5_params rows)
    in
    [
      check "X2: improved deletion avoids predecessor searches"
        (List.for_all (fun (nd, n) -> nd <= n) pairs)
        (String.concat "; "
           (List.map
              (fun (nd, n) -> Printf.sprintf "new-delete %d vs new %d hops" nd n)
              pairs));
    ]
  in
  T
    {
      id = "X2";
      paper_ref = "§5.3 deletion policy";
      run = figure5_rows;
      tables;
      checks;
    }

(* ------------------------------------------------------------------ *)
(* X3: recovery cost                                                   *)

type recovery_row = {
  x3_checkpointed : bool;
  x3_files_written : int;
  x3_crash_after_segments : int;
  x3_recovery_ns : int;
  x3_report : Recovery.report;
}

let recovery_cost =
  let run scale =
    let params =
      Smallfile.scaled
        { Smallfile.paper_1k with Smallfile.file_count = 2_000 }
        scale.files
    in
    List.map
      (fun checkpointed ->
        let inst = Setup.make ~geom:scale.geom Setup.New in
        let fs = inst.Setup.fs in
        let body = Bytes.make 1024 'x' in
        for i = 0 to params.Smallfile.file_count - 1 do
          let path = Printf.sprintf "/f%06d" i in
          Fs.create fs path;
          Fs.write_file fs path ~off:0 body
        done;
        Fs.flush fs;
        if checkpointed then Lld.checkpoint inst.Setup.lld;
        let segments =
          (Lld.counters inst.Setup.lld).Counters.segments_written
        in
        Disk.crash inst.Setup.disk;
        let t0 = Clock.now_ns inst.Setup.clock in
        let _lld, report = Lld.recover inst.Setup.disk in
        {
          x3_checkpointed = checkpointed;
          x3_files_written = params.Smallfile.file_count;
          x3_crash_after_segments = segments;
          x3_recovery_ns = Clock.now_ns inst.Setup.clock - t0;
          x3_report = report;
        })
      [ false; true ]
  in
  let tables rows =
    [
      R.table
        ~title:
          "X3: recovery cost (checkpoints bound replay; the consistency \
           sweep adds 'very little overhead', paper 3.3)"
        ~header:
          [
            "files"; "segments"; "checkpointed"; "recovery (s)"; "replayed";
            "ARUs committed"; "scavenged";
          ]
        (List.map
           (fun r ->
             [
               R.int r.x3_files_written;
               R.int r.x3_crash_after_segments;
               {
                 R.text = (if r.x3_checkpointed then "yes" else "no");
                 value = R.Bool r.x3_checkpointed;
               };
               R.float (float_of_int r.x3_recovery_ns /. 1e9);
               R.int r.x3_report.Recovery.segments_replayed;
               R.int r.x3_report.Recovery.arus_committed;
               R.int r.x3_report.Recovery.blocks_scavenged;
             ])
           rows);
    ]
  in
  let checks rows =
    let replayed r = r.x3_report.Recovery.segments_replayed in
    [
      (match rows with
      | [ plain; ckpt ] ->
        check "X3: checkpoints bound replay"
          (replayed ckpt <= replayed plain)
          (Printf.sprintf "replayed %d (ckpt) vs %d (no ckpt)" (replayed ckpt)
             (replayed plain))
      | _ ->
        check "X3: checkpoints bound replay" false
          "expected exactly two recovery rows");
    ]
  in
  T { id = "X3"; paper_ref = "§3.3 recovery"; run; tables; checks }

(* ------------------------------------------------------------------ *)
(* R1: restart cost vs log length at fixed dirty-set size              *)

type r1_row = {
  r1_churn_rounds : int;
  r1_log_segments : int;
  r1_dirty_segments : int;
  r1_recovery_ns : int;
  r1_replayed : int;
  r1_skipped : int;
}

(* A fixed working set is overwritten [rounds] times (the log grows with
   [rounds]), then a checkpoint is taken and a fixed hot subset is
   dirtied.  Restart cost must depend on the dirty work after the
   checkpoint, not on how long the log has become: the recovery-time
   curve over an 8x log growth must stay flat, and replay must touch no
   more segments than the dirty workload wrote (+1 for the gap probe). *)
let restart_cost =
  let run scale =
    let working_set = 64 and hot_set = 8 in
    List.map
      (fun rounds ->
        let disk, lld = Setup.make_raw ~geom:scale.geom Setup.New in
        let clock = Lld.clock lld in
        let block_bytes = Lld.block_bytes lld in
        let payload r i =
          Bytes.make block_bytes (Char.chr (((r * 31) + i) land 0xff))
        in
        let l = Lld.new_list lld () in
        let prev = ref Summary.Head in
        let blocks =
          Array.init working_set (fun _ ->
              let b = Lld.new_block lld ~list:l ~pred:!prev () in
              prev := Summary.After b;
              b)
        in
        for r = 1 to rounds do
          Array.iteri (fun i b -> Lld.write lld b (payload r i)) blocks;
          Lld.flush lld
        done;
        Lld.checkpoint lld;
        let after_ckpt = (Lld.counters lld).Counters.segments_written in
        for i = 0 to hot_set - 1 do
          Lld.write lld blocks.(i) (payload (rounds + 1) i)
        done;
        Lld.flush lld;
        let log_segments = (Lld.counters lld).Counters.segments_written in
        Disk.crash disk;
        let t0 = Clock.now_ns clock in
        let lld2, _report = Lld.recover disk in
        let c2 = Lld.counters lld2 in
        {
          r1_churn_rounds = rounds;
          r1_log_segments = log_segments;
          r1_dirty_segments = log_segments - after_ckpt;
          r1_recovery_ns = Clock.now_ns clock - t0;
          r1_replayed = c2.Counters.recovery_replayed_segments;
          r1_skipped = c2.Counters.recovery_skipped_segments;
        })
      [ 1; 2; 4; 8 ]
  in
  let tables rows =
    [
      R.table
        ~title:
          "R1: restart cost vs log length at fixed dirty-set size \
           (incremental checkpoint + REDO-only replay: O(dirty), not O(log))"
        ~header:
          [
            "churn rounds"; "log segments"; "dirty segments"; "recovery (ms)";
            "replayed"; "skipped";
          ]
        (List.map
           (fun r ->
             [
               R.int r.r1_churn_rounds;
               R.int r.r1_log_segments;
               R.int r.r1_dirty_segments;
               R.float (float_of_int r.r1_recovery_ns /. 1e6);
               R.int r.r1_replayed;
               R.int r.r1_skipped;
             ])
           rows);
    ]
  in
  let checks rows =
    let times = List.map (fun r -> float_of_int r.r1_recovery_ns) rows in
    let mn = List.fold_left Float.min Float.infinity times in
    let mx = List.fold_left Float.max 0. times in
    let segs = List.map (fun r -> r.r1_log_segments) rows in
    [
      check "R1: restart cost flat in log length (O(dirty), +-20%)"
        (rows <> [] && mx <= 1.2 *. mn)
        (Printf.sprintf "recovery %.3f..%.3f ms over %d..%d log segments"
           (mn /. 1e6) (mx /. 1e6)
           (List.fold_left min max_int segs)
           (List.fold_left max 0 segs));
      check "R1: checkpointed recovery replays at most dirty+1 segments"
        (rows <> []
        && List.for_all (fun r -> r.r1_replayed <= r.r1_dirty_segments + 1) rows)
        (String.concat "; "
           (List.map
              (fun r ->
                Printf.sprintf "%d replayed / %d dirty (%d skipped)"
                  r.r1_replayed r.r1_dirty_segments r.r1_skipped)
              rows));
    ]
  in
  T { id = "R1"; paper_ref = "ours"; run; tables; checks }

(* ------------------------------------------------------------------ *)
(* The synchronous-commit client G1, G2 and S1 drive through the engine *)

(* [iters] ARUs, each appending [blocks_per_aru] written blocks to the
   client's private list; after each End_aru the client parks until the
   commit is durable.  [on_done] runs when the last commit returns. *)
let sync_commit_client ~iters ~blocks_per_aru ~block_bytes ?(on_done = ignore)
    tag : Engine.client =
  let aru = ref None in
  let list = ref None in
  let remaining = ref iters in
  let blocks_left = ref 0 in
  let state = ref `Setup in
  let begin_aru () =
    state := `Block;
    blocks_left := blocks_per_aru;
    Some Op.Begin_aru
  in
  let new_block () =
    state := `Write;
    Some (Op.New_block { aru = !aru; list = Option.get !list; pred = Summary.Head })
  in
  fun r ->
    match (!state, r) with
    | `Setup, _ ->
      state := `Begin;
      Some (Op.New_list None)
    | `Begin, Some (Op.R_list l) ->
      list := Some l;
      begin_aru ()
    | `Block, Some (Op.R_aru a) ->
      aru := Some a;
      new_block ()
    | `Write, Some (Op.R_block b) ->
      state := `Wrote;
      Some
        (Op.Write
           {
             aru = !aru;
             block = b;
             data = Bytes.make block_bytes (Char.chr (tag land 0xff));
           })
    | `Wrote, Some Op.R_unit ->
      decr blocks_left;
      if !blocks_left > 0 then new_block ()
      else begin
        state := `Committed;
        Some (Op.End_aru (Option.get !aru))
      end
    | `Committed, Some Op.R_unit ->
      decr remaining;
      if !remaining = 0 then begin
        on_done ();
        None
      end
      else begin_aru ()
    | _ -> None

let mean_batch (c : Counters.t) =
  ratio c.Counters.group_commits c.Counters.commit_batches

(* ------------------------------------------------------------------ *)
(* G1: group commit — throughput scaling with concurrent clients       *)

type g1_row = {
  g1_clients : int;
  g1_commits : int;
  g1_elapsed_ns : int;
  g1_commits_per_sec : float;
  g1_barriers : int;
  g1_batches : int;
  g1_barriers_per_commit : float;
  g1_mean_batch : float;
}

(* One client seals per commit, while N clients share each seal across
   the batch the flusher packs — the barrier amortization the
   group-commit engine exists for (DESIGN.md §5.11). *)
let group_commit_rows clients scale =
  let iters = max 20 (int_of_float (100. *. scale.arus)) in
  let config =
    {
      Config.default with
      Config.group_commit_window = 200_000;
      Config.group_commit_batch = 32;
    }
  in
  List.map
    (fun n ->
      let clock = Clock.create () in
      let disk = Disk.create ~clock scale.geom in
      let lld = Lld.create ~config disk in
      let block_bytes = Lld.block_bytes lld in
      let t0 = Clock.now_ns clock in
      let stats =
        Engine.run lld
          (List.init n (fun i ->
               sync_commit_client ~iters ~blocks_per_aru:1 ~block_bytes (i + 1)))
      in
      let elapsed = Clock.now_ns clock - t0 in
      let c = Lld.counters lld in
      let commits = stats.Engine.commits in
      {
        g1_clients = n;
        g1_commits = commits;
        g1_elapsed_ns = elapsed;
        g1_commits_per_sec = per_sec commits elapsed;
        g1_barriers = c.Counters.commit_barriers;
        g1_batches = c.Counters.commit_batches;
        g1_barriers_per_commit = ratio c.Counters.commit_barriers commits;
        g1_mean_batch = mean_batch c;
      })
    clients

let group_commit ?(clients = [ 1; 2; 4; 8; 16 ]) () =
  let tables rows =
    [
      R.table
        ~title:
          "G1: group commit — synchronous-commit throughput vs concurrent \
           clients (one barrier per batch, not per commit)"
        ~header:
          [
            "clients"; "commits"; "elapsed (ms)"; "commits/s"; "barriers";
            "batches"; "barriers/commit"; "mean batch";
          ]
        (List.map
           (fun r ->
             [
               R.int r.g1_clients;
               R.int r.g1_commits;
               R.float (float_of_int r.g1_elapsed_ns /. 1e6);
               R.float ~digits:1 r.g1_commits_per_sec;
               R.int r.g1_barriers;
               R.int r.g1_batches;
               R.float ~digits:3 r.g1_barriers_per_commit;
               R.float r.g1_mean_batch;
             ])
           rows);
    ]
  in
  let checks rows =
    let row n = List.find_opt (fun r -> r.g1_clients = n) rows in
    let gated = List.mem 1 clients && List.mem 8 clients in
    let missing = List.filter (fun n -> row n = None) clients in
    let counts l = String.concat ", " (List.map string_of_int l) in
    (if not gated then []
     else
       match (row 1, row 8) with
       | Some one, Some eight ->
         [
           check "G1: group commit scales (8 clients >= 3x 1-client commits/s)"
             (eight.g1_commits_per_sec >= 3.0 *. one.g1_commits_per_sec)
             (Printf.sprintf "%.1f commits/s at 8 clients vs %.1f at 1 (%.2fx)"
                eight.g1_commits_per_sec one.g1_commits_per_sec
                (eight.g1_commits_per_sec /. one.g1_commits_per_sec));
           check "G1: barriers amortized (< 0.5 barriers/commit at 8 clients)"
             (eight.g1_barriers_per_commit < 0.5)
             (Printf.sprintf "%.3f barriers/commit, mean batch %.2f"
                eight.g1_barriers_per_commit eight.g1_mean_batch);
         ]
       | _ -> [ check "G1: group commit scales" false "1- or 8-client row missing" ])
    @ [
        check
          (Printf.sprintf "G1: a row for each of %s clients" (counts clients))
          (missing = [])
          (if missing = [] then Printf.sprintf "%d rows" (List.length rows)
           else "missing " ^ counts missing);
      ]
  in
  T
    {
      id = "G1";
      paper_ref = "ours";
      run = group_commit_rows clients;
      tables;
      checks;
    }

(* ------------------------------------------------------------------ *)
(* G2: per-stage commit latency under group commit                     *)

type g2_row = {
  g2_clients : int;
  g2_commits : int;
  g2_queue_wait_p50_us : float;
  g2_queue_wait_p99_us : float;
  g2_barrier_p50_us : float;
  g2_barrier_p99_us : float;
  g2_wake_p50_us : float;
  g2_wake_p99_us : float;
  g2_mean_batch : float;
}

(* The same synchronous-commit engine loops as G1, but run under a live
   observability handle so the per-stage commit histograms
   (queue-wait, seal barrier, wake latency) fill — attaching the handle
   is free on the virtual clock, so the schedule is identical to an
   untraced run.  A background churner issues simple (non-ARU) writes
   the whole time: someone is always runnable, so the engine never
   force-flushes and batches close on size or window only — with one
   client the queue drains on window expiry (queue-wait ~ the window),
   while with 8+ clients the batch-size close fires first and each
   member waits only for its peers to submit.  Queue-wait p99 shrinking
   as clients grow is exactly the latency side of the barrier
   amortization G1 measures on throughput. *)
let group_commit_stages_rows scale =
  let iters = max 10 (int_of_float (50. *. scale.arus)) in
  (* The window must dwarf the virtual time 8 clients need to fill a
     batch (each Begin/Write/Commit charges the clock), otherwise
     window expiry closes every batch and the contrast disappears. *)
  let config =
    {
      Config.default with
      Config.group_commit_window = 5_000_000;
      Config.group_commit_batch = 8;
    }
  in
  List.map
    (fun n ->
      let clock = Clock.create () in
      let obs = Obs.create ~clock () in
      let disk = Disk.create ~clock scale.geom in
      let lld = Lld.create ~config ~obs disk in
      let block_bytes = Lld.block_bytes lld in
      let live = ref n in
      let churner () =
        let list = ref None in
        let block = ref None in
        let state = ref `List in
        fun (r : Op.result option) ->
          if !live = 0 then None
          else
            match (!state, r) with
            | `List, _ ->
              state := `Block;
              Some (Op.New_list None)
            | `Block, Some (Op.R_list l) ->
              list := Some l;
              state := `Write;
              Some
                (Op.New_block
                   { aru = None; list = Option.get !list; pred = Summary.Head })
            | `Write, Some (Op.R_block b) ->
              block := Some b;
              state := `Churn;
              Some
                (Op.Write { aru = None; block = b; data = Bytes.make block_bytes 'c' })
            | `Churn, _ ->
              Some
                (Op.Write
                   {
                     aru = None;
                     block = Option.get !block;
                     data = Bytes.make block_bytes 'c';
                   })
            | _ -> None
      in
      let stats =
        Engine.run lld
          (List.init n (fun i ->
               sync_commit_client ~iters ~blocks_per_aru:1 ~block_bytes
                 ~on_done:(fun () -> decr live)
                 (i + 1))
          @ [ churner () ])
      in
      let m = Obs.metrics obs in
      {
        g2_clients = n;
        g2_commits = stats.Engine.commits;
        g2_queue_wait_p50_us = hist_us m "aru.commit.queue_wait" Histogram.p50;
        g2_queue_wait_p99_us = hist_us m "aru.commit.queue_wait" Histogram.p99;
        g2_barrier_p50_us = hist_us m "aru.commit.barrier" Histogram.p50;
        g2_barrier_p99_us = hist_us m "aru.commit.barrier" Histogram.p99;
        g2_wake_p50_us = hist_us m "aru.commit.wake" Histogram.p50;
        g2_wake_p99_us = hist_us m "aru.commit.wake" Histogram.p99;
        g2_mean_batch = mean_batch (Lld.counters lld);
      })
    [ 1; 8; 16 ]

(* The commit-path p99s (clients, queue-wait us, barrier us) recorded at
   SCALE=0.05 when the per-stage histograms landed: later
   changes, zero-copy first, must not make the virtual commit path more
   than 10 % slower. *)
let g2_baseline = [ (1, 5009.4, 233317.0); (8, 805.0, 233457.0); (16, 910.0, 233617.0) ]

let group_commit_stages =
  let tables rows =
    [
      R.table
        ~title:
          "G2: per-stage commit latency under group commit — queue-wait p99 \
           shrinks as concurrent clients fill batches (the latency side of \
           barrier amortization)"
        ~header:
          [
            "clients"; "commits"; "queue-wait p50 (us)"; "queue-wait p99";
            "barrier p50"; "barrier p99"; "wake p50"; "wake p99"; "mean batch";
          ]
        (List.map
           (fun r ->
             R.int r.g2_clients :: R.int r.g2_commits
             :: List.map R.float
                  [
                    r.g2_queue_wait_p50_us; r.g2_queue_wait_p99_us;
                    r.g2_barrier_p50_us; r.g2_barrier_p99_us; r.g2_wake_p50_us;
                    r.g2_wake_p99_us; r.g2_mean_batch;
                  ])
           rows);
    ]
  in
  let checks rows =
    let row n = List.find_opt (fun r -> r.g2_clients = n) rows in
    (* with one client batches only close on the window; with 8+ the
       size close fires first, so every member's queue wait shrinks *)
    let shrinks =
      match (row 1, row 8, row 16) with
      | Some one, Some eight, Some sixteen ->
        check "G2: queue-wait p99 shrinks as clients fill batches"
          (eight.g2_queue_wait_p99_us < one.g2_queue_wait_p99_us
          && sixteen.g2_queue_wait_p99_us < one.g2_queue_wait_p99_us)
          (Printf.sprintf "queue-wait p99: %.1f us @1, %.1f us @8, %.1f us @16"
             one.g2_queue_wait_p99_us eight.g2_queue_wait_p99_us
             sixteen.g2_queue_wait_p99_us)
      | _ ->
        check "G2: queue-wait p99 shrinks as clients fill batches" false
          "1-, 8- or 16-client row missing"
    in
    let batch_name = "G2: batches fill (mean batch > 2 at 8 clients)" in
    let fills =
      match row 8 with
      | Some eight ->
        check batch_name (eight.g2_mean_batch > 2.0)
          (Printf.sprintf "mean batch %.2f" eight.g2_mean_batch)
      | None -> check batch_name false "8-client row missing"
    in
    let vs_baseline =
      List.map
        (fun (n, qw, barrier) ->
          match row n with
          | Some r ->
            let q = r.g2_queue_wait_p99_us /. qw
            and b = r.g2_barrier_p99_us /. barrier in
            (q <= 1.10 && b <= 1.10, Printf.sprintf "@%d %.2fx/%.2fx" n q b)
          | None -> (false, Printf.sprintf "@%d missing" n))
        g2_baseline
    in
    [
      shrinks;
      fills;
      check "G2: queue-wait and barrier p99 within 1.10x of the baseline"
        (List.for_all fst vs_baseline)
        ("queue-wait/barrier p99 vs baseline: "
        ^ String.concat "; " (List.map snd vs_baseline));
    ]
  in
  T
    {
      id = "G2";
      paper_ref = "ours";
      run = group_commit_stages_rows;
      tables;
      checks;
    }

(* ------------------------------------------------------------------ *)
(* Z1: the zero-copy data path — bytes API vs Blk-view API             *)

type z1_row = {
  z1_api : string;
  z1_commits : int;
  z1_copied_per_op : float;  (** bytes_copied per block write *)
  z1_elisions_per_op : float;  (** copy_elisions per block write *)
  z1_write_p50_us : float;
  z1_write_p99_us : float;
  z1_commit_p50_us : float;
  z1_commit_p99_us : float;
}

(* The same single-client ARU commit loop — [blocks_per_commit] block
   writes per ARU over a fixed 16-block live set — driven once through
   the [bytes] compatibility API and once through the [Blk]-view API.
   On the virtual clock both runs follow the identical schedule, so the
   delta isolates the data path: the view run's bytes_copied per write
   must be strictly lower (each elided boundary copy is counted in
   copy_elisions), while the op.write / op.end_aru percentiles give the
   p99 commit breakdown. *)
let zero_copy_rows scale =
  let blocks_per_commit = 4 in
  let commits = max 20 (int_of_float (500. *. scale.arus)) in
  let ops = commits * blocks_per_commit in
  (* pin the group-commit knobs so the measurement ignores the
     LLD_GROUP_COMMIT_* environment: window 0 = synchronous commits *)
  let config =
    {
      Config.default with
      Config.group_commit_window = 0;
      Config.group_commit_batch = 32;
    }
  in
  let run api =
    let clock = Clock.create () in
    let obs = Obs.create ~clock () in
    let disk = Disk.create ~clock scale.geom in
    let lld = Lld.create ~config ~obs disk in
    let bb = Lld.block_bytes lld in
    let list = Lld.new_list lld () in
    let blocks =
      Array.init 16 (fun _ -> Lld.new_block lld ~list ~pred:Summary.Head ())
    in
    let view = Lld_util.Blk.create bb in
    Lld_util.Blk.fill view 'z';
    let payload = Bytes.make bb 'z' in
    let idx = ref 0 in
    for _ = 1 to commits do
      let aru = Lld.begin_aru lld in
      for _ = 1 to blocks_per_commit do
        let b = blocks.(!idx mod Array.length blocks) in
        incr idx;
        match api with
        | `Bytes -> Lld.write lld ~aru b payload
        | `View -> Lld.write_view lld ~aru b view
      done;
      Lld.end_aru lld aru
    done;
    Lld.flush lld;
    let c = Lld.counters lld in
    let m = Obs.metrics obs in
    {
      z1_api = (match api with `Bytes -> "bytes" | `View -> "view");
      z1_commits = commits;
      z1_copied_per_op = float_of_int c.Counters.bytes_copied /. float_of_int ops;
      z1_elisions_per_op =
        float_of_int c.Counters.copy_elisions /. float_of_int ops;
      z1_write_p50_us = hist_us m "op.write" Histogram.p50;
      z1_write_p99_us = hist_us m "op.write" Histogram.p99;
      z1_commit_p50_us = hist_us m "op.end_aru" Histogram.p50;
      z1_commit_p99_us = hist_us m "op.end_aru" Histogram.p99;
    }
  in
  [ run `Bytes; run `View ]

let zero_copy =
  let tables rows =
    [
      R.table
        ~title:
          "Z1: zero-copy data path — the identical ARU commit loop through \
           the bytes API vs the Blk-view API (copies per block write, and \
           the write/commit latency breakdown)"
        ~header:
          [
            "api"; "commits"; "copied B/op"; "elisions/op"; "write p50 (us)";
            "write p99"; "commit p50"; "commit p99";
          ]
        (List.map
           (fun r ->
             R.text r.z1_api :: R.int r.z1_commits
             :: List.map R.float
                  [
                    r.z1_copied_per_op; r.z1_elisions_per_op; r.z1_write_p50_us;
                    r.z1_write_p99_us; r.z1_commit_p50_us; r.z1_commit_p99_us;
                  ])
           rows);
    ]
  in
  let checks rows =
    let name = "Z1: view API copies strictly fewer bytes than bytes API" in
    let row api = List.find_opt (fun r -> r.z1_api = api) rows in
    [
      (match (row "bytes", row "view") with
      | Some b, Some v ->
        check name
          (v.z1_copied_per_op < b.z1_copied_per_op && v.z1_elisions_per_op > 0.)
          (Printf.sprintf "bytes %.0f B/op vs view %.0f B/op (%.2f elisions/op)"
             b.z1_copied_per_op v.z1_copied_per_op v.z1_elisions_per_op)
      | _ -> check name false "missing Z1 rows");
    ]
  in
  T { id = "Z1"; paper_ref = "ours"; run = zero_copy_rows; tables; checks }

(* ------------------------------------------------------------------ *)
(* S1: sharded LLD — log-bandwidth scaling and cross-shard 2PC cost    *)

type s1_row = {
  s1_shards : int;
  s1_commits : int;
  s1_elapsed_ns : int;
  s1_commits_per_sec : float;
  s1_barriers : int;
  s1_device_io_ns : int;
      (* summed device time across spindles: exceeds elapsed wall time
         exactly when the shards' segment writes overlapped *)
}

type s1_cross_row = {
  s1_participants : int;
  s1_cross_commits : int;
  s1_cross_barriers : int;
  s1_prepare_barriers : int;
  s1_barriers_per_cross : float;
}

type s1_result = {
  s1_rows : s1_row list;
  s1_cross : s1_cross_row list;
  s1_differs : string list;
      (* fingerprint components on which the S=1 facade and a plain Lld
         disagree *)
}

let s1_geom = Geometry.v ~num_segments:200 ()

(* Large single-shard ARUs (64 blocks each) from 8 concurrent clients:
   every commit is half a segment of log payload, so throughput is
   bound by sequential log bandwidth.  One shard serialises the
   segment writes on one spindle; S shards stripe clients' lists
   across S independent logs whose seals overlap (Clock.overlap in the
   facade's drain), so commits/s scales with the spindle count even
   though total device time does not shrink.  At most 16 ARUs per
   client keep one shard's log from wrapping: cleaning would inflate
   its device time and hide the overlap. *)
let sharding scale =
  let clients = 8 and blocks_per_aru = 64 in
  let iters = max 12 (min 16 (int_of_float (600. *. scale.arus))) in
  let config =
    {
      Config.default with
      Config.group_commit_window = 200_000;
      Config.group_commit_batch = 32;
    }
  in
  List.map
    (fun s ->
      let clock = Clock.create () in
      let disks = Array.init s (fun _ -> Disk.create ~clock s1_geom) in
      let t = Shard.create ~config disks in
      let block_bytes = s1_geom.Geometry.block_bytes in
      let t0 = Clock.now_ns clock in
      let io0 = Clock.total_ns clock Clock.Io in
      let stats =
        Shard_engine.run t
          (List.init clients (fun i ->
               sync_commit_client ~iters ~blocks_per_aru ~block_bytes (i + 1)))
      in
      let elapsed = Clock.now_ns clock - t0 in
      let c = Shard.total_counters t in
      let commits = stats.Engine.commits in
      Array.iter Disk.close disks;
      {
        s1_shards = s;
        s1_commits = commits;
        s1_elapsed_ns = elapsed;
        s1_commits_per_sec = per_sec commits elapsed;
        s1_barriers = c.Counters.commit_barriers;
        s1_device_io_ns = Clock.total_ns clock Clock.Io - io0;
      })
    [ 1; 2; 4 ]

(* The price of a cross-shard commit: P-1 Prepare barriers plus the
   coordinator's Decide — at most P+1 even counting a trailing
   propagation flush.  Measured as the commit-barrier delta per 2PC
   over a batch of P-participant ARUs on a 4-shard facade. *)
let sharded_cross_cost () =
  let arus = 20 in
  let clock = Clock.create () in
  let disks = Array.init 4 (fun _ -> Disk.create ~clock s1_geom) in
  let t = Shard.create disks in
  (* the first four lists stripe onto four distinct shards; order them
     by home shard so [P] participants always include the lowest
     shard as coordinator *)
  let lists =
    List.init 4 (fun _ -> Shard.new_list t ())
    |> List.sort (fun a b ->
           Int.compare
             (Shard.list_shard ~shards:4 (Lld_core.Types.List_id.to_int a))
             (Shard.list_shard ~shards:4 (Lld_core.Types.List_id.to_int b)))
  in
  let data = Bytes.make (s1_geom.Geometry.block_bytes) 's' in
  let rows =
    List.map
      (fun p ->
        let c0 = Shard.total_counters t in
        let barriers0 = c0.Counters.commit_barriers in
        let cross0 = c0.Counters.cross_shard_commits in
        let prep0 = c0.Counters.prepare_barriers in
        for _ = 1 to arus do
          let aru = Shard.begin_aru t in
          List.iteri
            (fun i list ->
              if i < p then begin
                let b = Shard.new_block t ~aru ~list ~pred:Summary.Head () in
                Shard.write t ~aru b data
              end)
            lists;
          Shard.end_aru t aru
        done;
        let c1 = Shard.total_counters t in
        let cross = c1.Counters.cross_shard_commits - cross0 in
        let prepares = c1.Counters.prepare_barriers - prep0 in
        (* each 2PC pays its prepare seals plus exactly one decide seal
           (1:1 with cross_shard_commits); single-shard batch seals
           would show up in commit_barriers, which must stay flat *)
        let barriers =
          prepares + cross + (c1.Counters.commit_barriers - barriers0)
        in
        {
          s1_participants = p;
          s1_cross_commits = cross;
          s1_cross_barriers = barriers;
          s1_prepare_barriers = prepares;
          s1_barriers_per_cross = ratio barriers cross;
        })
      [ 2; 3; 4 ]
  in
  Array.iter Disk.close disks;
  rows

(* The same deterministic op stream through a plain Lld and through a
   one-shard facade: global ids are the identity at S=1 and every call
   passes straight through, so the two runs' fingerprints must agree. *)
let sharded_identity () =
  let run (type h) (module Ld : Lld_core.Ld_intf.S with type t = h)
      (create : Disk.t -> h) =
    let disk = Disk.create ~clock:(Clock.create ()) s1_geom in
    let t = create disk in
    let list = Ld.new_list t () in
    for i = 1 to 8 do
      let aru = Ld.begin_aru t in
      let b = Ld.new_block t ~aru ~list ~pred:Summary.Head () in
      Ld.write t ~aru b (Bytes.make (Ld.block_bytes t) (Char.chr (i land 0xff)));
      Ld.end_aru t aru
    done;
    let fp = Setup.fingerprint disk (Ld.counters t) in
    Disk.close disk;
    fp
  in
  Setup.fingerprint_diff
    (run (module Lld) (fun disk -> Lld.create disk))
    (run (module Shard) (fun disk -> Shard.create [| disk |]))

let sharded =
  let run scale =
    {
      s1_rows = sharding scale;
      s1_cross = sharded_cross_cost ();
      s1_differs = sharded_identity ();
    }
  in
  let tables r =
    [
      R.table
        ~title:
          "S1: sharded LLD — 8 clients of 64-block ARUs over S independent \
           segment logs (commits/s scales with spindles; device time does \
           not shrink, it overlaps)"
        ~header:
          [
            "shards"; "commits"; "elapsed (ms)"; "commits/s"; "barriers";
            "device io (ms)";
          ]
        (List.map
           (fun row ->
             [
               R.int row.s1_shards;
               R.int row.s1_commits;
               R.float (float_of_int row.s1_elapsed_ns /. 1e6);
               R.float ~digits:1 row.s1_commits_per_sec;
               R.int row.s1_barriers;
               R.float (float_of_int row.s1_device_io_ns /. 1e6);
             ])
           r.s1_rows);
      R.table
        ~title:
          "S1: cross-shard commit cost — barriers per P-participant 2PC on 4 \
           shards (P-1 prepares + 1 decide; gate: <= P+1)"
        ~header:
          [
            "participants"; "cross commits"; "barriers"; "prepare barriers";
            "barriers/commit";
          ]
        (List.map
           (fun row ->
             [
               R.int row.s1_participants;
               R.int row.s1_cross_commits;
               R.int row.s1_cross_barriers;
               R.int row.s1_prepare_barriers;
               R.float row.s1_barriers_per_cross;
             ])
           r.s1_cross);
      R.table ~title:"S1: single-shard facade vs plain LLD (same op stream)"
        ~header:[ "quantity"; "identical" ]
        (fingerprint_rows r.s1_differs);
    ]
  in
  let checks r =
    let row n = List.find_opt (fun row -> row.s1_shards = n) r.s1_rows in
    let scaling, device_io =
      let io_name =
        "S1: device time overlaps, not elided (4 shards >= 0.9x 1 shard)"
      in
      let scale_name =
        "S1: sharded throughput scales (4 shards >= 2x 1 shard at 8 clients)"
      in
      match (row 1, row 4) with
      | Some one, Some four ->
        ( check scale_name
            (four.s1_commits_per_sec >= 2.0 *. one.s1_commits_per_sec)
            (Printf.sprintf "%.1f commits/s on 4 shards vs %.1f on 1 (%.2fx)"
               four.s1_commits_per_sec one.s1_commits_per_sec
               (four.s1_commits_per_sec /. one.s1_commits_per_sec)),
          check io_name
            (float_of_int four.s1_device_io_ns
            >= 0.9 *. float_of_int one.s1_device_io_ns)
            (Printf.sprintf "device io %.2f ms on 4 shards vs %.2f ms on 1"
               (float_of_int four.s1_device_io_ns /. 1e6)
               (float_of_int one.s1_device_io_ns /. 1e6)) )
      | _ ->
        ( check scale_name false "1- or 4-shard row missing",
          check io_name false "1- or 4-shard row missing" )
    in
    [
      scaling;
      check "S1: cross-shard commit costs at most P+1 barriers"
        (r.s1_cross <> []
        && List.for_all
             (fun c ->
               c.s1_cross_commits > 0
               && c.s1_barriers_per_cross <= float_of_int (c.s1_participants + 1))
             r.s1_cross)
        (String.concat "; "
           (List.map
              (fun c ->
                Printf.sprintf "P=%d: %.2f barriers/commit" c.s1_participants
                  c.s1_barriers_per_cross)
              r.s1_cross));
      check "S1: single-shard facade bit-identical to plain LLD"
        (r.s1_differs = [])
        (Setup.fingerprint_verdict r.s1_differs);
      device_io;
    ]
  in
  T { id = "S1"; paper_ref = "ours"; run; tables; checks }

(* ------------------------------------------------------------------ *)
(* X4: concurrency                                                     *)

let concurrency =
  let run scale =
    let run f =
      let _, lld = Setup.make_raw ~geom:scale.geom Setup.New in
      f lld Concurrent.default
    in
    [
      ("interleaved", run Concurrent.run_interleaved);
      ("serial", run Concurrent.run_serial);
    ]
  in
  let tables rows =
    [
      R.table
        ~title:
          "X4: concurrent ARU streams, interleaved vs serial (same \
           operations; isolation machinery cost)"
        ~header:("schedule" :: concurrent_header)
        (List.map (fun (label, c) -> R.text label :: concurrent_cells c) rows);
    ]
  in
  T { id = "X4"; paper_ref = "ours"; run; tables; checks = no_checks }

(* ------------------------------------------------------------------ *)
(* X5: Andrew-style mixed workload, on all three variants              *)

let mixed_workload =
  let run scale =
    let params =
      {
        Mixed.default with
        Mixed.dirs = max 4 (int_of_float (20. *. sqrt scale.files));
        files_per_dir = max 5 (int_of_float (25. *. sqrt scale.files));
      }
    in
    List.map
      (fun variant ->
        let inst = Setup.make ~geom:scale.geom variant in
        (variant, Mixed.run inst params))
      Setup.all_variants
  in
  let tables rows =
    let old = List.assoc Setup.Old rows in
    let phase_of (r : Mixed.result) label =
      List.find (fun (p : Mixed.phase) -> p.Mixed.label = label) r.Mixed.phases
    in
    let labels = List.map (fun (p : Mixed.phase) -> p.Mixed.label) old.Mixed.phases in
    [
      R.table
        ~title:"X5: Andrew-style mixed workload, operations/second (diff vs old)"
        ~header:("variant" :: labels)
        (List.map
           (fun (variant, r) ->
             R.text (Setup.variant_label variant)
             :: List.map
                  (fun label ->
                    R.vs
                      ~baseline:(phase_of old label).Mixed.ops_per_sec
                      (phase_of r label).Mixed.ops_per_sec)
                  labels)
           rows);
    ]
  in
  T { id = "X5"; paper_ref = "ours"; run; tables; checks = no_checks }

(* ------------------------------------------------------------------ *)
(* X6: two Logical Disk implementations under one file system.  The
   paper's §5.4 predicts that other LD implementations need "at least a
   meta-data update log" to support ARUs with similar performance;
   lib/jld is such an implementation (update-in-place + write-ahead
   journal), and the unchanged Minix file system runs on both.         *)

module Minix_on_jld = Lld_minixfs.Fs_generic.Make (Lld_jld.Jld)

(* The file-system operations each substrate exposes, as closures so one
   driver measures both. *)
type fsops = {
  fo_create : string -> unit;
  fo_write : string -> off:int -> bytes -> unit;
  fo_read : string -> off:int -> len:int -> bytes;
  fo_unlink : string -> unit;
  fo_flush : unit -> unit;
  fo_clock : Clock.t;
}

let implementation_driver scale ops =
  let files = max 20 (int_of_float (2000. *. scale.files)) in
  let body = Bytes.make 1024 'x' in
  let phase label f =
    let t0 = Clock.now_ns ops.fo_clock in
    let n = f () in
    ( label,
      float_of_int n /. (float_of_int (Clock.now_ns ops.fo_clock - t0) /. 1e9) )
  in
  let small_cw =
    phase "create+write (f/s)" (fun () ->
        for i = 0 to files - 1 do
          let p = Printf.sprintf "/f%06d" i in
          ops.fo_create p;
          ops.fo_write p ~off:0 body
        done;
        ops.fo_flush ();
        files)
  in
  let small_r =
    phase "read (f/s)" (fun () ->
        for i = 0 to files - 1 do
          ignore (ops.fo_read (Printf.sprintf "/f%06d" i) ~off:0 ~len:1024)
        done;
        files)
  in
  let small_d =
    phase "delete (f/s)" (fun () ->
        for i = 0 to files - 1 do
          ops.fo_unlink (Printf.sprintf "/f%06d" i)
        done;
        ops.fo_flush ();
        files)
  in
  (* one large file: sequential write, random rewrite, sequential read *)
  let large_mb = max 2 (int_of_float (16. *. scale.bytes /. 0.05 *. 0.05)) in
  let total = large_mb * 1024 * 1024 in
  let chunk = Bytes.make 65536 'y' in
  ops.fo_create "/big";
  let mbs label f =
    let t0 = Clock.now_ns ops.fo_clock in
    f ();
    ( label,
      float_of_int total /. (1024. *. 1024.)
      /. (float_of_int (Clock.now_ns ops.fo_clock - t0) /. 1e9) )
  in
  let w1 =
    mbs "seq write (MB/s)" (fun () ->
        let off = ref 0 in
        while !off < total do
          ops.fo_write "/big" ~off:!off chunk;
          off := !off + 65536
        done;
        ops.fo_flush ())
  in
  let rng = Lld_sim.Rng.create ~seed:3 in
  let order = Array.init (total / 4096) Fun.id in
  Lld_sim.Rng.shuffle rng order;
  let blockb = Bytes.make 4096 'z' in
  let w2 =
    mbs "random write (MB/s)" (fun () ->
        Array.iter (fun i -> ops.fo_write "/big" ~off:(i * 4096) blockb) order;
        ops.fo_flush ())
  in
  let r3 =
    mbs "seq read after random write (MB/s)" (fun () ->
        let off = ref 0 in
        while !off < total do
          ignore (ops.fo_read "/big" ~off:!off ~len:65536);
          off := !off + 65536
        done)
  in
  [ small_cw; small_r; small_d; w1; w2; r3 ]

let implementations =
  let run scale =
    let lld_ops =
      let inst = Setup.make ~geom:scale.geom Setup.New in
      {
        fo_create = Fs.create inst.Setup.fs;
        fo_write = Fs.write_file inst.Setup.fs;
        fo_read = Fs.read_file inst.Setup.fs;
        fo_unlink = Fs.unlink inst.Setup.fs;
        fo_flush = (fun () -> Fs.flush inst.Setup.fs);
        fo_clock = inst.Setup.clock;
      }
    in
    let jld_ops =
      let module F = Minix_on_jld.Fs_impl in
      let clock = Clock.create () in
      let disk = Disk.create ~clock scale.geom in
      let jld = Lld_jld.Jld.create disk in
      let fs = F.mkfs jld in
      Clock.reset clock;
      {
        fo_create = F.create fs;
        fo_write = F.write_file fs;
        fo_read = F.read_file fs;
        fo_unlink = F.unlink fs;
        fo_flush = (fun () -> F.flush fs);
        fo_clock = clock;
      }
    in
    [
      ("LLD (log-structured)", implementation_driver scale lld_ops);
      ("JLD (in-place + journal)", implementation_driver scale jld_ops);
    ]
  in
  let tables = function
    | [] -> []
    | (_, first) :: _ as rows ->
      [
        R.table
          ~title:
            "X6: the same Minix file system on two LD implementations \
             (paper 5.4: alternatives need a meta-data update log; layout \
             drives the trade-offs)"
          ~header:("implementation" :: List.map fst first)
          (List.map
             (fun (impl, phases) ->
               R.text impl :: List.map (fun (_, v) -> R.float ~digits:1 v) phases)
             rows);
      ]
  in
  T { id = "X6"; paper_ref = "§5.4 other LD implementations"; run; tables; checks = no_checks }

(* ------------------------------------------------------------------ *)
(* W0: §2 bandwidth context.  One large file written sequentially
   through the raw device (the 100 % reference), MinixLLD, and the
   update-in-place classic Minix of Lld_minixdisk.Classic, each as a
   fraction of raw (paper: MinixLLD ~85 %, Minix by itself ~13 %).    *)

type bandwidth_row = {
  w0_label : string;
  w0_mb_per_sec : float;
  w0_fraction_of_raw : float;
}

let bandwidth_rows scale =
  let geom = scale.geom in
  let mbytes = max 4 (int_of_float (78.125 *. scale.bytes)) in
  let total = mbytes * 1024 * 1024 in
  let chunk = 64 * 1024 in
  let body = Bytes.make chunk 'w' in
  let mbps elapsed_ns =
    float_of_int total /. (1024. *. 1024.) /. (float_of_int elapsed_ns /. 1e9)
  in
  (* 100 % reference: back-to-back segment-sized writes on the raw
     device *)
  let raw =
    let clock = Clock.create () in
    let disk = Disk.create ~clock geom in
    let seg = geom.Lld_disk.Geometry.segment_bytes in
    let image = Bytes.make seg 'r' in
    let n = (total + seg - 1) / seg in
    for i = 0 to n - 1 do
      Disk.write disk ~offset:(i mod geom.Lld_disk.Geometry.num_segments * seg) image
    done;
    float_of_int (n * seg) /. (1024. *. 1024.)
    /. (float_of_int (Clock.now_ns clock) /. 1e9)
  in
  let via_lld variant =
    let inst = Setup.make ~geom ~inode_count:1024 variant in
    Fs.create inst.Setup.fs "/big";
    Clock.reset inst.Setup.clock;
    let off = ref 0 in
    while !off < total do
      Fs.write_file inst.Setup.fs "/big" ~off:!off body;
      off := !off + chunk
    done;
    Fs.flush inst.Setup.fs;
    mbps (Clock.now_ns inst.Setup.clock)
  in
  let via_classic () =
    let clock = Clock.create () in
    let disk = Disk.create ~clock geom in
    let fs = Lld_minixdisk.Classic.mkfs disk in
    Lld_minixdisk.Classic.create fs "big";
    Clock.reset clock;
    let off = ref 0 in
    while !off < total do
      Lld_minixdisk.Classic.write_file fs "big" ~off:!off body;
      off := !off + chunk
    done;
    Lld_minixdisk.Classic.flush fs;
    mbps (Clock.now_ns clock)
  in
  let row label mb = { w0_label = label; w0_mb_per_sec = mb; w0_fraction_of_raw = mb /. raw } in
  [
    row "raw device (reference)" raw;
    row "MinixLLD (new)" (via_lld Setup.New);
    row "MinixLLD (old)" (via_lld Setup.Old);
    row "classic Minix (in-place, sync meta)" (via_classic ());
  ]

let bandwidth =
  let tables rows =
    [
      R.table
        ~title:
          "W0: sequential-write bandwidth context (paper 2: MinixLLD ~85% of \
           bandwidth vs ~13% for Minix by itself)"
        ~header:[ "substrate"; "MB/s"; "% of raw" ]
        (List.map
           (fun r ->
             [
               R.text r.w0_label;
               R.float r.w0_mb_per_sec;
               R.float ~digits:0 ~suffix:"%" (r.w0_fraction_of_raw *. 100.);
             ])
           rows);
    ]
  in
  let checks rows =
    let frac label =
      List.find_opt (fun r -> r.w0_label = label) rows
      |> Option.map (fun r -> r.w0_fraction_of_raw)
    in
    let name = "W0: MinixLLD beats in-place Minix on write bandwidth" in
    [
      (match (frac "MinixLLD (new)", frac "classic Minix (in-place, sync meta)") with
      | Some lld, Some classic ->
        check name (lld > classic)
          (Printf.sprintf "MinixLLD %.0f%% vs classic %.0f%% of raw" (lld *. 100.)
             (classic *. 100.))
      | _ -> check name false "bandwidth rows missing");
    ]
  in
  T { id = "W0"; paper_ref = "§2 bandwidth context"; run = bandwidth_rows; tables; checks }

(* ------------------------------------------------------------------ *)
(* C1: segment cleaning — victim policies and relocation I/O.  Overwrite
   churn over a hot set of raw LD blocks wraps the log twice so the
   auto-cleaner runs repeatedly, once per clean policy: relocation takes
   at most one disk read per victim, and victim selection scans
   segments rather than the block map.                                 *)

let cleaning_rows scale =
  let run policy =
    let geom = scale.geom in
    let clock = Clock.create () in
    let disk = Disk.create ~clock geom in
    let config = { Config.default with Config.clean_policy = policy } in
    let lld = Lld.create ~config disk in
    Lld.flush lld;
    Clock.reset clock;
    Counters.reset (Lld.counters lld);
    let bb = geom.Geometry.block_bytes in
    let bps = Geometry.blocks_per_segment geom in
    let list = Lld.new_list lld () in
    let hot = 4 * bps in
    let blocks =
      Array.init hot (fun _ -> Lld.new_block lld ~list ~pred:Summary.Head ())
    in
    let cold = 8 * bps in
    let cold_blocks =
      Array.init cold (fun _ -> Lld.new_block lld ~list ~pred:Summary.Head ())
    in
    let payload i pass =
      Bytes.make bb (Char.chr (33 + ((i + (7 * pass)) land 63)))
    in
    Array.iteri (fun i b -> Lld.write lld b (payload i 0)) blocks;
    (* Overwrite churn: each pass rewrites a strided subset of the hot
       set, leaving every log segment partially dead.  Writing about two
       logs' worth of segments wraps the log and forces the auto-cleaner
       to run repeatedly under the chosen policy.  Cold blocks are
       written exactly once, smeared evenly across the run, so victims
       keep a few live blocks and relocation actually copies data. *)
    let target = 2 * geom.Geometry.num_segments in
    let cold_interval = max 1 (target * bps / cold) in
    let next_cold = ref 0 in
    let hot_writes = ref 0 in
    let write_hot i pass =
      Lld.write lld blocks.(i) (payload i pass);
      incr hot_writes;
      if !hot_writes mod cold_interval = 0 && !next_cold < cold then begin
        Lld.write lld cold_blocks.(!next_cold) (payload !next_cold (-1));
        incr next_cold
      end
    in
    let pass = ref 0 in
    while (Lld.counters lld).Counters.segments_written < target do
      incr pass;
      let stride = 1 + (!pass mod 4) in
      let i = ref (!pass mod stride) in
      while !i < hot do
        write_hot !i !pass;
        i := !i + stride
      done;
      Lld.flush lld
    done;
    (policy, Clock.now_ns clock, Counters.copy (Lld.counters lld))
  in
  [ run Config.Greedy; run Config.Cost_benefit ]

let cleaning =
  let policy p = Format.asprintf "%a" Config.pp_clean_policy p in
  let tables rows =
    [
      R.table
        ~title:
          "C1: segment cleaning under overwrite churn (relocation batches at \
           most one disk read per victim; victim selection scans segments, \
           not the block map)"
        ~header:
          [
            "policy"; "cleaned"; "copied"; "disk reads"; "reads/victim";
            "cache hits"; "victim scans"; "picks"; "live-idx upd"; "ms";
          ]
        (List.map
           (fun (p, elapsed_ns, (c : Counters.t)) ->
             [
               R.text (policy p);
               R.int c.Counters.segments_cleaned;
               R.int c.Counters.blocks_copied_clean;
               R.int c.Counters.clean_disk_reads;
               (if c.Counters.segments_cleaned = 0 then R.na
                else
                  R.float
                    (ratio c.Counters.clean_disk_reads c.Counters.segments_cleaned));
               R.int c.Counters.clean_cache_hits;
               R.int c.Counters.victim_scans;
               R.int c.Counters.clean_picks;
               R.int c.Counters.live_index_updates;
               R.float ~digits:1 (float_of_int elapsed_ns /. 1e6);
             ])
           rows);
    ]
  in
  let checks rows =
    [
      check "C1: cleaner ran and relocation batched reads (<=1/victim)"
        (List.for_all
           (fun (_, _, (c : Counters.t)) ->
             c.Counters.segments_cleaned > 0
             && c.Counters.clean_disk_reads <= c.Counters.segments_cleaned)
           rows)
        (String.concat "; "
           (List.map
              (fun (p, _, (c : Counters.t)) ->
                Printf.sprintf "%s: %d reads / %d cleaned" (policy p)
                  c.Counters.clean_disk_reads c.Counters.segments_cleaned)
              rows));
    ]
  in
  T { id = "C1"; paper_ref = "ours"; run = cleaning_rows; tables; checks }

(* ------------------------------------------------------------------ *)
(* O1: observer effect.  The same deterministic small-file workload runs
   twice — once with Obs.null, once under a live tracer — and the two
   runs' fingerprints must agree, because probes read the clock but
   never charge it.                                                    *)

(* The small-file workload at [frac] of the scale's file count on a
   fresh instance, on the store [backend] makes for the partition's size
   (default: {!Setup.make}'s): its result, the host seconds it took from
   setup to the end of the run, and the fingerprint of the finished run
   (after a final [Fs.flush] when [flush]). *)
let smallfile_run scale ~frac ?(flush = false) ?backend ?clock ?obs () =
  let params = Smallfile.scaled Smallfile.paper_1k (frac *. scale.files) in
  let backend =
    Option.map (fun make -> make (Geometry.total_bytes scale.geom)) backend
  in
  let t0 = Unix.gettimeofday () in
  let inst = Setup.make ~geom:scale.geom ?clock ?obs ?backend Setup.New in
  let result = Smallfile.run inst params in
  let wall = Unix.gettimeofday () -. t0 in
  if flush then Fs.flush inst.Setup.fs;
  let fp = Setup.fingerprint inst.Setup.disk (Lld.counters inst.Setup.lld) in
  Disk.close inst.Setup.disk;
  (result, wall, fp)

(* An observer-effect experiment's result: where the run under the
   observer differs from the plain one, and how many events it
   recorded. *)
type observer_result = { ob_differs : string list; ob_events : int }

(* The small-file run at [frac] once plain and once under the handle
   [observe] builds over its clock, whose ring [events] must not be
   empty. *)
let observer_experiment ~id ~title ~check_name ~events_label ~frac ?flush
    ?backend ~observe ~events () =
  let run scale =
    let _, _, plain = smallfile_run scale ~frac ?flush ?backend () in
    let clock = Clock.create () in
    let obs = observe clock in
    let _, _, observed =
      smallfile_run scale ~frac ?flush ?backend ~clock ~obs ()
    in
    {
      ob_differs = Setup.fingerprint_diff plain observed;
      ob_events = Trace.count (events obs);
    }
  in
  let tables r =
    [
      R.table ~title ~header:[ "quantity"; "identical" ]
        (fingerprint_rows r.ob_differs
        @ [ [ R.text events_label; R.int r.ob_events ] ]);
    ]
  in
  let checks r =
    [
      check check_name
        (r.ob_differs = [] && r.ob_events > 0)
        (Printf.sprintf "%s, %d %s"
           (Setup.fingerprint_verdict r.ob_differs)
           r.ob_events events_label);
    ]
  in
  T { id; paper_ref = "ours"; run; tables; checks }

let observer_effect =
  observer_experiment ~id:"O1"
    ~title:
      "O1: observer effect — identical small-file run with tracing off vs \
       on (probes read the virtual clock, never charge it)"
    ~check_name:"O1: tracing has no observer effect"
    ~events_label:"trace events recorded" ~frac:0.1
    ~observe:(fun clock -> Obs.create ~clock ())
    ~events:Obs.trace ()

(* ------------------------------------------------------------------ *)
(* O2: the paper's §5.3 empty-ARU churn re-run under tracing, its
   78.47 us commit figure decomposed into the instrumented phases (log
   replay, shadow merge, commit record).                               *)

let commit_breakdown_keys =
  [
    "op.begin_aru";
    "op.end_aru";
    "aru.commit.replay_log";
    "aru.commit.merge_shadow";
    "aru.commit.record";
    "aru.commit.queue_wait";
    "aru.commit.batch_residency";
    "aru.commit.barrier";
    "aru.commit.wake";
    "disk.write";
  ]

let commit_breakdown =
  let run scale =
    let count =
      max 1_000
        (int_of_float
           (float_of_int Aru_churn.paper.Aru_churn.count *. scale.arus *. 0.02))
    in
    let clock = Clock.create () in
    let obs = Obs.create ~clock () in
    let _, lld = Setup.make_raw ~geom:scale.geom ~clock ~obs Setup.New in
    (Aru_churn.run lld { Aru_churn.count }, Obs.metrics obs)
  in
  let tables ((churn : Aru_churn.result), m) =
    let us ns = R.float (float_of_int ns /. 1e3) in
    [
      R.table
        ~quoted:
          [
            ("arus", R.Int churn.Aru_churn.count);
            ("latency_us", R.Float churn.Aru_churn.latency_us);
          ]
        ~title:
          (Printf.sprintf
             "O2: ARU commit span breakdown over %d empty Begin/End pairs — \
              measured %.2f us/ARU (paper 5.3: 78.47 us)"
             churn.Aru_churn.count churn.Aru_churn.latency_us)
        ~header:[ "span"; "count"; "mean (us)"; "p50"; "p95"; "p99" ]
        (List.filter_map
           (fun key ->
             match Metrics.find_histogram m key with
             | Some h when Histogram.count h > 0 ->
               Some
                 [
                   R.text key;
                   R.int (Histogram.count h);
                   R.float (Histogram.mean h /. 1e3);
                   us (Histogram.p50 h);
                   us (Histogram.p95 h);
                   us (Histogram.p99 h);
                 ]
             | _ -> None)
           commit_breakdown_keys);
    ]
  in
  let checks ((churn : Aru_churn.result), m) =
    let spans =
      match Metrics.find_histogram m "aru.commit.record" with
      | Some h -> Histogram.count h
      | None -> 0
    in
    [
      check "O2: commit phases instrumented for every ARU"
        (spans = churn.Aru_churn.count)
        (Printf.sprintf "%d commit-record spans for %d ARUs" spans
           churn.Aru_churn.count);
    ]
  in
  T { id = "O2"; paper_ref = "§5.3 ARU latency"; run; tables; checks }

(* ------------------------------------------------------------------ *)
(* O3 — the always-on flight recorder has no observer effect either.
   The black box must be safe to leave on in production (LLD_FLIGHT=1):
   the same deterministic small-file workload runs once against
   Obs.null and once with a flight-only handle, and the two runs'
   fingerprints must agree — the ring records, it never charges.      *)

let flight_effect =
  observer_experiment ~id:"O3"
    ~title:
      "O3: flight-recorder observer effect — identical run against Obs.null \
       vs the always-on black box (LLD_FLIGHT=1 semantics)"
    ~check_name:"O3: flight recorder has no observer effect"
    ~events_label:"flight events recorded" ~frac:0.05 ~flush:true
    ~backend:(fun size -> Lld_disk.Backend.mem ~size)
    ~observe:(fun clock -> Obs.flight_only ~clock ())
    ~events:Obs.flight ()

(* ------------------------------------------------------------------ *)
(* B1 — backend transparency: the §2 claim one layer down.  The same
   deterministic small-file workload on the in-memory store and on a
   real file image: wall-clock may differ (that is what the file backend
   buys and pays for); the fingerprints must not.                      *)

type backend_row = {
  b1_backend : string;
  b1_wall_s : float;  (* host wall-clock: the real price of durability *)
  b1_fingerprint : Setup.fingerprint;  (* must not depend on the store *)
  b1_files_per_sec : float;
}

let backend_comparison =
  let run scale =
    let run label backend =
      let result, wall, fp = smallfile_run scale ~frac:0.1 ~backend () in
      {
        b1_backend = label;
        b1_wall_s = wall;
        b1_fingerprint = fp;
        b1_files_per_sec = result.Smallfile.create_write.Smallfile.files_per_sec;
      }
    in
    let mem = run "mem" (fun size -> Lld_disk.Backend.mem ~size) in
    let file = run "file" (fun size -> Lld_disk.Backend.temp_file ~size ()) in
    (mem, file)
  in
  let differs (mem, file) =
    Setup.fingerprint_diff mem.b1_fingerprint file.b1_fingerprint
  in
  let tables ((mem, file) as rows) =
    [
      R.table
        ~title:
          "B1: storage-backend transparency — same workload on mem vs file \
           (paper 2: implementations exchange without the client noticing; \
           wall-clock differs, virtual clock must not)"
        ~header:[ "backend"; "wall (s)"; "virtual (s)"; "create+write f/s" ]
        (List.map
           (fun row ->
             [
               R.text row.b1_backend;
               R.float row.b1_wall_s;
               R.float
                 (float_of_int row.b1_fingerprint.Setup.fp_clock_ns /. 1e9);
               R.float ~digits:1 row.b1_files_per_sec;
             ])
           [ mem; file ]);
      R.table ~title:"B1: mem vs file (same workload)"
        ~header:[ "quantity"; "identical" ]
        (fingerprint_rows (differs rows));
    ]
  in
  let checks ((mem, file) as rows) =
    let differs = differs rows in
    [
      check "B1: mem and file backends charge identical virtual time"
        (differs = [])
        (String.concat "; "
           (Setup.fingerprint_verdict differs
           :: List.map
                (fun row ->
                  Printf.sprintf "%s %.2f s wall" row.b1_backend row.b1_wall_s)
                [ mem; file ]));
    ]
  in
  T { id = "B1"; paper_ref = "§2 transparency"; run; tables; checks }

(* ------------------------------------------------------------------ *)
(* X7 — the paper's §5.1 claim: with ARUs no crash ever needs fsck.
   The torture workload is recorded once per Table 1 configuration and
   a deterministic sample of its crash points (complete and torn
   writes) is recovered and judged by fsck, the sweep-leak probe and
   idempotent re-recovery.  The old configuration is the contrast: it
   must leave some crash point inconsistent.                          *)

let consistency =
  let run _scale =
    List.map
      (fun variant ->
        let trace = Crashcheck.record (Crashcheck.torture_spec ~variant ()) in
        (variant, Crashcheck.run ~budget:200 trace))
      [ Setup.New; Setup.Old ]
  in
  let tables rows =
    [
      R.table
        ~title:
          "X7: §5.1 consistency — torture workload crash points, recovered \
           and checked (fsck, sweep leaks, idempotent re-recovery)"
        ~header:[ "configuration"; "checked"; "enumerated"; "violating" ]
        (List.map
           (fun (variant, r) ->
             [
               R.text (Setup.variant_label variant);
               R.int r.Crashcheck.r_points_checked;
               R.int r.Crashcheck.r_points_total;
               R.int r.Crashcheck.r_violation_points;
             ])
           rows);
    ]
  in
  let checks rows =
    let detail (r : Crashcheck.result) =
      Printf.sprintf "%d of %d sampled crash points violate"
        r.r_violation_points r.r_points_checked
    in
    let with_arus = List.assoc Setup.New rows in
    let without = List.assoc Setup.Old rows in
    [
      check "X7: with ARUs no crash point needs fsck" (Crashcheck.ok with_arus)
        (detail with_arus);
      check "X7: without ARUs some crash point is inconsistent"
        (not (Crashcheck.ok without))
        (detail without);
    ]
  in
  T { id = "X7"; paper_ref = "§5.1 consistency"; run; tables; checks }

(* ------------------------------------------------------------------ *)
(* The runner                                                          *)

let all =
  [
    figure5; figure6; aru_latency; summary; visibility; delete_ablation;
    recovery_cost; restart_cost; group_commit (); group_commit_stages;
    zero_copy; sharded; concurrency; mixed_workload; implementations;
    bandwidth; cleaning; observer_effect; commit_breakdown; flight_effect;
    backend_comparison; consistency;
  ]

let json_of_check c =
  R.Obj
    [
      ("name", R.String c.ck_name);
      ("ok", R.Bool c.ck_ok);
      ("detail", R.String c.ck_detail);
    ]

let run ppf scale exps =
  Format.fprintf ppf "=== Atomic Recovery Units reproduction: %s scale ===@."
    (if scale.files >= 1.0 then "full (paper)" else "reduced");
  let results =
    List.map
      (fun (T e) ->
        let r = e.run scale in
        let tables = e.tables r in
        List.iter (R.print ppf) tables;
        (e.id, e.paper_ref, tables, e.checks r))
      exps
  in
  let checks = List.concat_map (fun (_, _, _, cks) -> cks) results in
  R.print ppf
    (R.table ~title:"Reproduction checks" ~header:[ "check"; "status"; "detail" ]
       (List.map
          (fun c ->
            [
              R.text c.ck_name;
              { R.text = (if c.ck_ok then "ok" else "FAIL"); value = R.Bool c.ck_ok };
              R.text c.ck_detail;
            ])
          checks));
  Format.fprintf ppf "@.";
  let json =
    R.Obj
      [
        ("schema", R.String "lld-bench/2");
        ( "scale",
          R.Obj
            [
              ("files", R.Float scale.files);
              ("bytes", R.Float scale.bytes);
              ("arus", R.Float scale.arus);
              ("num_segments", R.Int scale.geom.Geometry.num_segments);
              ("segment_bytes", R.Int scale.geom.Geometry.segment_bytes);
            ] );
        ( "experiments",
          R.Obj
            (List.map
               (fun (id, paper_ref, tables, cks) ->
                 ( id,
                   R.Obj
                     [
                       ("paper_ref", R.String paper_ref);
                       ("tables", R.List (List.map R.to_json tables));
                       ("checks", R.List (List.map json_of_check cks));
                     ] ))
               results) );
      ]
  in
  (checks, json)

let exit_status checks =
  match List.filter (fun c -> not c.ck_ok) checks with
  | [] -> 0
  | failed ->
    Printf.eprintf "\n%d reproduction check(s) failed:\n" (List.length failed);
    List.iter
      (fun c -> Printf.eprintf "  FAIL %s (%s)\n" c.ck_name c.ck_detail)
      failed;
    1
