open Helpers
module Crashcheck = Lld_crashcheck.Crashcheck
module Oracle = Lld_workload.Oracle

(* Small spec instances so each test records and replays in well under a
   second; the full-size defaults are exercised by the CLI (and CI). *)
let churn () = Crashcheck.aru_churn_spec ~arus:12 ()
let files () = Crashcheck.smallfile_spec ~files:24 ()
let cleaning () = Crashcheck.cleaning_spec ~units:12 ()

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Enumeration shape. *)

let test_enumerate () =
  let trace = Crashcheck.record (churn ()) in
  let n = Crashcheck.trace_writes trace in
  Alcotest.(check bool) "trace has writes" true (n > 0);
  let points = Crashcheck.enumerate trace in
  (match points with
  | { Crashcheck.pt_index = 0; pt_keep = None } :: _ -> ()
  | _ -> Alcotest.fail "enumeration must start at the empty prefix");
  (match List.rev points with
  | { Crashcheck.pt_index; pt_keep = None } :: _ ->
    Alcotest.(check int) "ends with the no-crash point" n pt_index
  | _ -> Alcotest.fail "enumeration must end with the no-crash point");
  List.iter
    (fun p ->
      match p.Crashcheck.pt_keep with
      | None -> ()
      | Some k ->
        if p.Crashcheck.pt_index >= n then
          Alcotest.fail "torn variant of a write outside the trace";
        if k <= 0 then Alcotest.fail "torn variant keeps nothing")
    points;
  (* complete points: one per write prefix, each exactly once *)
  let complete =
    List.filter (fun p -> p.Crashcheck.pt_keep = None) points
  in
  Alcotest.(check int) "one complete point per prefix" (n + 1)
    (List.length complete)

(* ------------------------------------------------------------------ *)
(* The checker finds nothing wrong with the real recovery. *)

let test_clean_churn () =
  let trace = Crashcheck.record (churn ()) in
  let r = Crashcheck.run ~budget:80 trace in
  Alcotest.(check bool) "no violations" true (Crashcheck.ok r);
  Alcotest.(check int) "checked what was asked" 80 r.Crashcheck.r_points_checked

let test_clean_smallfile () =
  let trace = Crashcheck.record (files ()) in
  let r = Crashcheck.run ~budget:60 trace in
  Alcotest.(check bool) "no violations" true (Crashcheck.ok r);
  Alcotest.(check bool) "torn variants were sampled" true
    (r.Crashcheck.r_torn_checked > 0)

let test_clean_cleaning () =
  (* the cleaning-heavy workload: forced relocation, the live index and
     the cleaner's checkpoint are all inside the recorded trace *)
  let trace = Crashcheck.record (cleaning ()) in
  let r = Crashcheck.run ~budget:60 trace in
  Alcotest.(check bool) "no violations" true (Crashcheck.ok r);
  Alcotest.(check bool) "oracle units recorded" true
    (Crashcheck.trace_oracle_units trace > 0)

let test_budget_deterministic () =
  let trace = Crashcheck.record (churn ()) in
  let r1 = Crashcheck.run ~budget:40 ~seed:7 trace in
  let r2 = Crashcheck.run ~budget:40 ~seed:7 trace in
  Alcotest.(check bool) "same seed, same sample" true (r1 = r2)

(* The sampling seed rides along in the result, so a failure report can
   always be replayed: run, read [r_seed] back, rerun with it. *)
let test_seed_roundtrip () =
  let trace = Crashcheck.record (churn ()) in
  let r = Crashcheck.run ~budget:40 ~seed:13 trace in
  Alcotest.(check int) "result records the sampling seed" 13
    r.Crashcheck.r_seed;
  let r' = Crashcheck.run ~budget:40 ~seed:r.Crashcheck.r_seed trace in
  Alcotest.(check bool) "rerun with the recorded seed reproduces" true (r = r');
  (* a failing run prints the seed so the report alone is enough *)
  let spec = churn () in
  let broken =
    { spec.Crashcheck.sc_config with Config.recovery_sweep = false }
  in
  let bad = Crashcheck.run ~budget:60 ~seed:21 ~recover_config:broken trace in
  Alcotest.(check bool) "broken recovery still fails" false (Crashcheck.ok bad);
  let report = Format.asprintf "%a" Crashcheck.pp_result bad in
  Alcotest.(check bool) "failure report names the seed" true
    (contains ~needle:"--seed 21" report)

(* ------------------------------------------------------------------ *)
(* Crashing during recovery itself: early-open on-demand verification
   plus crash points inside recovery's own write sequence. *)

let test_during_recovery_clean () =
  let trace = Crashcheck.record (churn ()) in
  let r = Crashcheck.run_during_recovery ~budget:6 ~inner_budget:8 trace in
  Alcotest.(check bool) "no violations" true (Crashcheck.recovery_ok r);
  Alcotest.(check int) "outer points checked" 6 r.Crashcheck.rr_outer_checked;
  Alcotest.(check bool) "inner crash points checked" true
    (r.Crashcheck.rr_inner_checked > 0);
  Alcotest.(check bool) "recovery writes recorded" true
    (r.Crashcheck.rr_recovery_writes > 0);
  Alcotest.(check bool) "oracle units judged on demand" true
    (r.Crashcheck.rr_ondemand_units > 0)

let test_during_recovery_deterministic () =
  let trace = Crashcheck.record (churn ()) in
  let r1 = Crashcheck.run_during_recovery ~budget:4 ~inner_budget:6 ~seed:5 trace in
  let r2 = Crashcheck.run_during_recovery ~budget:4 ~inner_budget:6 ~seed:5 trace in
  Alcotest.(check bool) "same seed, same sample" true (r1 = r2)

(* The during-recovery checker's violation path: with the consistency
   sweep off, its report names the first violating workload point and
   the pre-crash writes land in a trace directory whose parents do not
   exist yet. *)
let test_during_recovery_catches_broken_sweep () =
  let spec = churn () in
  let broken =
    { spec.Crashcheck.sc_config with Config.recovery_sweep = false }
  in
  let trace = Crashcheck.record spec in
  let root = Filename.temp_file "lld-rec-dir" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let r =
    Crashcheck.run_during_recovery ~budget:6 ~inner_budget:8
      ~recover_config:broken ~trace_dir:dir trace
  in
  Alcotest.(check bool) "violations found" false (Crashcheck.recovery_ok r);
  (match r.Crashcheck.rr_violations with
  | [] -> Alcotest.fail "no violation kept"
  | first :: _ ->
    let outer =
      Format.asprintf "%a" Crashcheck.pp_point first.Crashcheck.rv_outer
    in
    let first_line =
      List.find_opt
        (String.starts_with ~prefix:"first: ")
        (String.split_on_char '\n'
           (Format.asprintf "%a" Crashcheck.pp_recovery_result r))
    in
    Alcotest.(check bool) "report's first violation names its outer point"
      true
      (match first_line with
      | Some line -> contains ~needle:outer line
      | None -> false));
  match r.Crashcheck.rr_writes_file with
  | None -> Alcotest.fail "no pre-crash writes file"
  | Some f ->
    Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists f);
    Sys.remove f;
    Sys.rmdir dir;
    Sys.rmdir (Filename.dirname dir);
    Sys.rmdir root

(* ------------------------------------------------------------------ *)
(* A deliberately broken recovery — consistency sweep disabled — must be
   caught, with a minimal reproducer that replays. *)

let test_catches_broken_sweep () =
  let spec = churn () in
  let broken =
    { spec.Crashcheck.sc_config with Config.recovery_sweep = false }
  in
  let trace = Crashcheck.record spec in
  let r = Crashcheck.run ~budget:60 ~recover_config:broken trace in
  Alcotest.(check bool) "violations found" false (Crashcheck.ok r);
  match r.Crashcheck.r_minimal with
  | None -> Alcotest.fail "no minimal reproducer"
  | Some v ->
    (* the reproducer replays on its own ... *)
    let problems = Crashcheck.check_point ~recover_config:broken trace v.Crashcheck.v_point in
    Alcotest.(check bool) "minimal reproducer replays" true (problems <> []);
    (* ... and is genuinely minimal: it is the earliest failing point of
       the full enumeration *)
    let points = Crashcheck.enumerate trace in
    let earlier =
      List.filter
        (fun p ->
          (p.Crashcheck.pt_index, p.Crashcheck.pt_keep)
          < (v.Crashcheck.v_point.Crashcheck.pt_index, v.Crashcheck.v_point.Crashcheck.pt_keep))
        points
    in
    List.iter
      (fun p ->
        if Crashcheck.check_point ~recover_config:broken trace p <> [] then
          Alcotest.failf "point %a fails earlier than the reported minimum"
            Crashcheck.pp_point p)
      earlier;
    (* the same point is fine under the real recovery *)
    Alcotest.(check (list string)) "real recovery is consistent there" []
      (Crashcheck.check_point trace v.Crashcheck.v_point)

(* A trace directory whose parents do not exist yet is created whole:
   the reproducer's trace, its writes and its forensics bundle all land
   in it. *)
let test_trace_dir_parents () =
  let spec = churn () in
  let broken =
    { spec.Crashcheck.sc_config with Config.recovery_sweep = false }
  in
  let trace = Crashcheck.record spec in
  let root = Filename.temp_file "lld-trace-dir" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let r =
    Crashcheck.run ~budget:20 ~recover_config:broken ~trace_dir:dir trace
  in
  let files =
    Option.to_list r.Crashcheck.r_trace_file
    @ Option.to_list r.Crashcheck.r_writes_file
    @ r.Crashcheck.r_forensics_files
  in
  Alcotest.(check bool) "trace file returned" true
    (r.Crashcheck.r_trace_file <> None);
  Alcotest.(check int) "trace, writes, flight and metrics files" 4
    (List.length files);
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists f);
      Sys.remove f)
    files;
  Sys.rmdir dir;
  Sys.rmdir (Filename.dirname dir);
  Sys.rmdir root

(* ------------------------------------------------------------------ *)
(* Crash-image ownership: a point's recovery adopts its image and writes
   into it (the post-recovery checkpoint, then the idempotency leg's
   crash write), so no image may share storage with the recorded bases
   or with another point's image. *)

let test_image_ownership () =
  let trace = Crashcheck.record (churn ()) in
  let raw = Crashcheck.trace_raw trace in
  let points = Array.of_list (Crashcheck.enumerate trace) in
  let first = points.(0) and last = points.(Array.length points - 1) in
  let earlier = points.(Array.length points / 2) in
  let base = Crashcheck.Raw.image_at raw first in
  let earlier_image = Crashcheck.Raw.image_at raw earlier in
  let answer = Crashcheck.check_point trace earlier in
  Alcotest.(check (list string)) "point 0 consistent" []
    (Crashcheck.check_point trace first);
  Alcotest.(check (list string)) "last point consistent" []
    (Crashcheck.check_point trace last);
  Alcotest.(check bool) "point 0 still the recorded base" true
    (Bytes.equal base (Crashcheck.Raw.image_at raw first));
  Alcotest.(check bool) "an earlier image unchanged" true
    (Bytes.equal earlier_image (Crashcheck.Raw.image_at raw earlier));
  Alcotest.(check (list string)) "re-checking an earlier point" answer
    (Crashcheck.check_point trace earlier)

(* The ordered walk behind [run] and the one-point path of
   [check_point] build their images differently; under a broken
   recovery (so there is something to disagree on) they must report
   the same problems for every sampled point. *)
let test_run_matches_check_point () =
  let spec = churn () in
  let broken =
    { spec.Crashcheck.sc_config with Config.recovery_sweep = false }
  in
  let trace = Crashcheck.record spec in
  let budget = 40 and seed = 3 in
  let r = Crashcheck.run ~budget ~seed ~recover_config:broken trace in
  let sampled =
    Crashcheck.Raw.sample ~budget ~seed (Crashcheck.enumerate trace)
  in
  let one_by_one =
    List.filter_map
      (fun p ->
        match Crashcheck.check_point ~recover_config:broken trace p with
        | [] -> None
        | problems -> Some { Crashcheck.v_point = p; v_problems = problems })
      sampled
  in
  Alcotest.(check int) "same points checked" (List.length sampled)
    r.Crashcheck.r_points_checked;
  Alcotest.(check bool) "the broken sweep fails somewhere" true
    (one_by_one <> []);
  Alcotest.(check int) "same violation count" (List.length one_by_one)
    r.Crashcheck.r_violation_points;
  Alcotest.(check bool) "same per-point problems" true
    (one_by_one = r.Crashcheck.r_violations)

(* A store's writes never reach its sources.  Point 0's image is the
   base, and each write is whole in the image of the point after it, so
   the digests of the complete points' images pin the trace's base and
   write data: recovering points (whose checkpoint writes land in the
   stores) must leave every digest as it was. *)
let test_stores_leave_trace_intact () =
  let trace = Crashcheck.record (churn ()) in
  let raw = Crashcheck.trace_raw trace in
  let points = Crashcheck.enumerate trace in
  let digests () =
    List.filter_map
      (fun p ->
        match p.Crashcheck.pt_keep with
        | None -> Some (Digest.bytes (Crashcheck.Raw.image_at raw p))
        | Some _ -> None)
      points
  in
  let before = digests () in
  let torn = List.find (fun p -> p.Crashcheck.pt_keep <> None) points in
  List.iter
    (fun p ->
      Alcotest.(check (list string)) "point consistent" []
        (Crashcheck.check_point trace p))
    [ List.hd points; torn; List.nth points (List.length points - 1) ];
  Alcotest.(check bool) "sampled run clean" true
    (Crashcheck.ok (Crashcheck.run ~budget:20 trace));
  Alcotest.(check bool) "crash during recovery clean" true
    (Crashcheck.recovery_ok
       (Crashcheck.run_during_recovery ~budget:2 ~inner_budget:4 trace));
  Alcotest.(check bool) "base and write data unchanged" true
    (before = digests ())

(* ------------------------------------------------------------------ *)
(* Crash stores against copy-and-replay images: on random traces of one
   and of several disks, whose writes are unaligned, straddle pages and
   overlap, every store of every complete point and of torn prefixes of
   1, len-1 and a random number of bytes reads as the image built by
   copying the bases and replaying the writes before the point over
   them — its snapshot, random reads, and reads between its own writes.
   A store's writes reach no later store of the same point. *)

module Backend = Lld_disk.Backend
module Blk = Lld_util.Blk

let replayed bases writes point =
  let images = Array.map Bytes.copy bases in
  let apply i ~len =
    let d, offset, data = writes.(i) in
    Bytes.blit data 0 images.(d) offset (min len (Bytes.length data))
  in
  for i = 0 to point.Crashcheck.pt_index - 1 do
    apply i ~len:max_int
  done;
  Option.iter
    (fun k -> apply point.Crashcheck.pt_index ~len:k)
    point.Crashcheck.pt_keep;
  images

(* An affine byte pattern with a random slope and start, so overlapping
   writes and the base differ byte by byte. *)
let random_bytes rng n =
  let slope = 1 + (2 * Random.State.int rng 128)
  and start = Random.State.int rng 256 in
  Bytes.init n (fun i -> Char.chr (((i * slope) + start) land 0xff))

(* A range of a store of [size] bytes: whole pages, a straddle of a page
   boundary, or any range. *)
let random_range rng size =
  let page = Backend.page_bytes in
  match Random.State.int rng 3 with
  | 0 when size >= page ->
    let pages = size / page in
    let p = Random.State.int rng pages in
    (p * page, page * (1 + Random.State.int rng (pages - p)))
  | 1 when size > page ->
    let b = page * (1 + Random.State.int rng ((size - 1) / page)) in
    let lo = b - 1 - Random.State.int rng (min b page) in
    (lo, b + 1 + Random.State.int rng (min (size - b) page) - lo)
  | _ ->
    let offset = Random.State.int rng size in
    (offset, 1 + Random.State.int rng (size - offset))

(* One disk of any size through [Raw.v], or up to three disks (sizes in
   sectors) through [Raw.record] over real devices. *)
let random_trace rng =
  let page = Backend.page_bytes in
  let by_record = Random.State.bool rng in
  let bases =
    if by_record then
      Array.init
        (1 + Random.State.int rng 3)
        (fun _ -> random_bytes rng (512 * (1 + Random.State.int rng 40)))
    else [| random_bytes rng (1 + Random.State.int rng (5 * page)) |]
  in
  let writes =
    Array.init (Random.State.int rng 10) (fun _ ->
        let d = Random.State.int rng (Array.length bases) in
        let offset, length = random_range rng (Bytes.length bases.(d)) in
        (d, offset, random_bytes rng length))
  in
  let raw =
    if by_record then begin
      let clock = Clock.create () in
      let disks =
        Array.map
          (fun base ->
            Disk.load ~clock
              (Geometry.v ~block_bytes:512 ~segment_bytes:(Bytes.length base)
                 ~num_segments:1 ())
              base)
          bases
      in
      fst
        (Crashcheck.Raw.record disks (fun () ->
             Array.iter
               (fun (d, offset, data) -> Disk.write disks.(d) ~offset data)
               writes))
    end
    else
      Crashcheck.Raw.v ~base:bases.(0)
        ~writes:(Array.map (fun (_, offset, data) -> (offset, data)) writes)
  in
  (bases, writes, raw)

let stores_match_replay =
  QCheck.Test.make ~name:"crash stores read as copy-and-replay images"
    ~count:200 (QCheck.int_range 0 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let bases, writes, raw = random_trace rng in
      let points =
        List.concat
          (List.init
             (Array.length writes + 1)
             (fun i ->
               let complete = { Crashcheck.pt_index = i; pt_keep = None } in
               let len =
                 if i < Array.length writes then
                   let _, _, data = writes.(i) in
                   Bytes.length data
                 else 0
               in
               if len < 2 then [ complete ]
               else
                 complete
                 :: List.map
                      (fun k -> { Crashcheck.pt_index = i; pt_keep = Some k })
                      [ 1; len - 1; 1 + Random.State.int rng (len - 1) ]))
      in
      let fail point d what =
        QCheck.Test.fail_reportf "seed %d, %s, disk %d: %s" seed
          (Format.asprintf "%a" Crashcheck.pp_point point)
          d what
      in
      let same_snapshot point d store image what =
        if not (Bytes.equal (Blk.to_bytes (store.Backend.snapshot ())) image)
        then fail point d what
      in
      List.iter
        (fun point ->
          let expect = replayed bases writes point in
          Array.iteri
            (fun d store ->
              let image = Bytes.copy expect.(d) in
              same_snapshot point d store image "snapshot differs";
              for _ = 1 to 8 do
                let offset, length = random_range rng (Bytes.length image) in
                if Random.State.bool rng then begin
                  let data = random_bytes rng length in
                  store.Backend.write ~offset (Blk.of_bytes data);
                  Bytes.blit data 0 image offset length
                end
                else if
                  not
                    (Bytes.equal
                       (Blk.to_bytes (store.Backend.read ~offset ~length))
                       (Bytes.sub image offset length))
                then
                  fail point d
                    (Printf.sprintf "read of %d bytes at %d differs" length
                       offset)
              done;
              same_snapshot point d store image "snapshot after writes differs")
            (Crashcheck.Raw.stores_at raw point);
          Array.iteri
            (fun d store ->
              same_snapshot point d store expect.(d)
                "a store's writes reached the next store")
            (Crashcheck.Raw.stores_at raw point);
          if not (Bytes.equal (Crashcheck.Raw.image_at raw point) expect.(0))
          then fail point 0 "image_at differs")
        points;
      true)

(* ------------------------------------------------------------------ *)
(* Sharded crash points: the cross-shard workload's 2PC must be
   all-or-nothing across shards at EVERY crash point of the interleaved
   global write trace — exhaustively, torn prepare/decide seals
   included (the trace is small enough that sampling would be a
   covered by the budgeted sample; the CLI/CI runs carry the larger
   budgets and the exhaustive mode). *)

let test_sharded_clean () =
  let trace = Crashcheck.record_sharded (Crashcheck.cross_shard_spec ()) in
  Alcotest.(check bool) "trace has writes" true
    (Crashcheck.trace_writes trace > 0);
  Alcotest.(check bool) "oracle units recorded" true
    (Crashcheck.trace_oracle_units trace >= 8);
  let r = Crashcheck.run ~budget:100 trace in
  Alcotest.(check bool)
    (Format.asprintf "%a" Crashcheck.pp_result r)
    true (Crashcheck.ok r);
  Alcotest.(check int) "checked what was asked" 100
    r.Crashcheck.r_points_checked;
  Alcotest.(check bool) "torn variants checked" true
    (r.Crashcheck.r_torn_checked > 0)

let test_sharded_two_shards () =
  let trace =
    Crashcheck.record_sharded (Crashcheck.cross_shard_spec ~shards:2 ())
  in
  let r = Crashcheck.run ~budget:80 trace in
  Alcotest.(check bool)
    (Format.asprintf "%a" Crashcheck.pp_result r)
    true (Crashcheck.ok r)

let test_sharded_deterministic () =
  let trace = Crashcheck.record_sharded (Crashcheck.cross_shard_spec ()) in
  let r1 = Crashcheck.run ~budget:24 ~seed:7 trace in
  let r2 = Crashcheck.run ~budget:24 ~seed:7 trace in
  Alcotest.(check bool) "same seed, same sample" true (r1 = r2)

(* A deliberately broken sharded recovery — consistency sweep disabled,
   so aborted prepares leak their allocations — must be caught, and the
   minimal reproducer must replay standalone via check_point. *)
let test_sharded_catches_broken_sweep () =
  let spec = Crashcheck.cross_shard_spec () in
  let broken =
    { spec.Crashcheck.ss_config with Config.recovery_sweep = false }
  in
  let trace = Crashcheck.record_sharded spec in
  let r = Crashcheck.run ~budget:100 ~recover_config:broken trace in
  Alcotest.(check bool) "violations found" false (Crashcheck.ok r);
  match r.Crashcheck.r_minimal with
  | None -> Alcotest.fail "no minimal reproducer"
  | Some v ->
    let problems =
      Crashcheck.check_point ~recover_config:broken trace
        v.Crashcheck.v_point
    in
    Alcotest.(check bool) "minimal reproducer replays" true (problems <> []);
    Alcotest.(check (list string)) "real recovery is consistent there" []
      (Crashcheck.check_point trace v.Crashcheck.v_point)

(* ------------------------------------------------------------------ *)
(* qcheck property: tearing the segment write that carries an ARU's
   commit record — at any keep_bytes boundary — must leave the ARU
   either fully committed or fully absent after recovery (paper §3.2:
   the commit record is the atomic commit point). *)

let commit_record_torn_scenario (seed, boundary_choice) =
  let geom = Geometry.v ~segment_bytes:(32 * 1024) ~num_segments:64 () in
  let clock = Clock.create () in
  let disk = Disk.create ~clock geom in
  let lld = Lld.create ~config:Config.default disk in
  (* some pre-existing committed state that must survive everything *)
  let stable_list = Lld.new_list lld () in
  let stable = append_block lld stable_list in
  Lld.write lld stable (block_data 9999);
  Lld.flush lld;
  let base = Disk.snapshot disk in
  let writes = ref [] in
  Disk.set_observer disk
    (Some
       (fun ~index:_ ~offset ~data ->
         writes := (offset, Lld_util.Blk.to_bytes data) :: !writes));
  (* one ARU, a few blocks, commit; the final flush writes the segment
     holding the commit record *)
  let aru = Lld.begin_aru lld in
  let l = Lld.new_list lld ~aru () in
  let blocks = ref [] in
  let prev = ref None in
  for j = 0 to 2 + (seed mod 3) do
    let pred =
      match !prev with None -> Summary.Head | Some b -> Summary.After b
    in
    let b = Lld.new_block lld ~aru ~list:l ~pred () in
    let data = block_data (seed + j) in
    Lld.write lld ~aru b data;
    blocks := (b, data) :: !blocks;
    prev := Some b
  done;
  Lld.end_aru lld aru;
  Lld.flush lld;
  Disk.set_observer disk None;
  let writes = Array.of_list (List.rev !writes) in
  let n = Array.length writes in
  if n = 0 then Alcotest.fail "flush produced no disk writes";
  (* the last write seals the segment whose summary holds the Commit
     entry; tear it at a keep_bytes boundary *)
  let last_offset, last_data = writes.(n - 1) in
  let len = Bytes.length last_data in
  let boundaries =
    List.filter
      (fun k -> k > 0 && k < len)
      (1 :: (len - 1)
      :: List.init (len / 512) (fun i -> (i + 1) * 512))
  in
  let keep = List.nth boundaries (boundary_choice mod List.length boundaries) in
  let image = Bytes.copy base in
  for i = 0 to n - 2 do
    let offset, data = writes.(i) in
    Bytes.blit data 0 image offset (Bytes.length data)
  done;
  Bytes.blit last_data 0 image last_offset keep;
  let disk2 = Disk.load ~clock:(Clock.create ()) geom image in
  let lld2, _report = Lld.recover disk2 in
  (* the stable block is untouched either way *)
  check_data "pre-existing block survives" (block_data 9999)
    (Lld.read lld2 stable);
  let blocks = List.rev !blocks in
  let states =
    List.map
      (fun (b, data) ->
        Lld.block_allocated lld2 b && Bytes.equal (Lld.read lld2 b) data)
      blocks
  in
  let all_present = List.for_all Fun.id states in
  let all_absent = List.for_all not states in
  if not (all_present || all_absent) then
    Alcotest.failf
      "ARU not atomic with commit-record write torn at %d/%d bytes: %s" keep
      len
      (String.concat ","
         (List.map (fun s -> if s then "ok" else "gone") states));
  if all_present && not (Lld.list_exists lld2 l) then
    Alcotest.fail "blocks committed but their list is gone";
  if all_absent && Lld.list_exists lld2 l then
    Alcotest.fail "ARU discarded but its list survived";
  true

let commit_record_torn =
  QCheck.Test.make
    ~name:"torn commit-record write commits the ARU fully or not at all"
    ~count:120
    QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
    commit_record_torn_scenario

(* Exhaustive sweep of every 512-byte boundary for one fixed scenario,
   so no boundary of the commit-record write goes untested. *)
(* ------------------------------------------------------------------ *)
(* Silent corruption: every injected-rot scenario heals with zero
   oracle damage, on both a block workload and a file-system one. *)

let test_corruption_churn () =
  let r = Crashcheck.corruption_check (churn ()) in
  Alcotest.(check bool)
    (Format.asprintf "%a" Crashcheck.pp_corruption_result r)
    true
    (Crashcheck.corruption_ok r);
  Alcotest.(check int) "all three scenarios ran" 3 r.Crashcheck.c_rounds;
  Alcotest.(check bool) "rot was detected" true (r.Crashcheck.c_bad_slots > 0);
  Alcotest.(check int) "nothing lost" 0 r.Crashcheck.c_lost;
  Alcotest.(check bool) "superblock slot rewritten" true
    (r.Crashcheck.c_superblock_repaired >= 1)

let test_corruption_smallfile () =
  let r = Crashcheck.corruption_check (files ()) in
  Alcotest.(check bool)
    (Format.asprintf "%a" Crashcheck.pp_corruption_result r)
    true
    (Crashcheck.corruption_ok r);
  Alcotest.(check int) "all three scenarios ran" 3 r.Crashcheck.c_rounds;
  Alcotest.(check int) "nothing lost" 0 r.Crashcheck.c_lost

let test_commit_record_all_boundaries () =
  (* 32 KB segment => boundaries {1, 512, 1024, ..., len-1}: probe each
     via the choice index, which selects boundaries in order *)
  for choice = 0 to 65 do
    ignore (commit_record_torn_scenario (42, choice))
  done

let () =
  Alcotest.run "lld_crashcheck"
    [
      ( "engine",
        [
          Alcotest.test_case "enumeration shape" `Quick test_enumerate;
          Alcotest.test_case "aru-churn clean" `Quick test_clean_churn;
          Alcotest.test_case "smallfile clean" `Quick test_clean_smallfile;
          Alcotest.test_case "cleaning-workload clean" `Quick
            test_clean_cleaning;
          Alcotest.test_case "budgeted runs deterministic" `Quick
            test_budget_deterministic;
          Alcotest.test_case "crash images own their storage" `Quick
            test_image_ownership;
          Alcotest.test_case "run agrees with check_point" `Quick
            test_run_matches_check_point;
          Alcotest.test_case "stores leave the trace intact" `Quick
            test_stores_leave_trace_intact;
          QCheck_alcotest.to_alcotest stores_match_replay;
          Alcotest.test_case "sampling seed round-trips" `Quick
            test_seed_roundtrip;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "cross-shard clean" `Quick test_sharded_clean;
          Alcotest.test_case "two shards" `Quick test_sharded_two_shards;
          Alcotest.test_case "deterministic sampling" `Quick
            test_sharded_deterministic;
          Alcotest.test_case "broken sweep caught" `Quick
            test_sharded_catches_broken_sweep;
        ] );
      ( "during-recovery",
        [
          Alcotest.test_case "recovery crash points clean" `Quick
            test_during_recovery_clean;
          Alcotest.test_case "deterministic sampling" `Quick
            test_during_recovery_deterministic;
          Alcotest.test_case "broken sweep caught" `Quick
            test_during_recovery_catches_broken_sweep;
        ] );
      ( "detection",
        [
          Alcotest.test_case "broken sweep caught, minimal reproducer" `Quick
            test_catches_broken_sweep;
          Alcotest.test_case "trace dir created with its parents" `Quick
            test_trace_dir_parents;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "aru-churn rot heals" `Quick
            test_corruption_churn;
          Alcotest.test_case "smallfile rot heals" `Quick
            test_corruption_smallfile;
        ] );
      ( "torn-commit",
        [
          QCheck_alcotest.to_alcotest commit_record_torn;
          Alcotest.test_case "every keep boundary" `Quick
            test_commit_record_all_boundaries;
        ] );
    ]
