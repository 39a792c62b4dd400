open Helpers
module Engine = Lld_core.Engine
module Op = Lld_core.Op
module Counters = Lld_core.Counters
module Obs = Lld_obs.Obs
module Trace = Lld_obs.Trace
module Metrics = Lld_obs.Metrics
module Stats = Lld_sim.Stats

(* ------------------------------------------------------------------ *)
(* Group-commit queue: batch close conditions (size, window, drain),
   FIFO draining, result delivery through the engine, and the window=0
   degeneration to the immediate commit path (DESIGN.md §5.11). *)

let config ~window ~batch =
  {
    Config.default with
    Config.group_commit_window = window;
    Config.group_commit_batch = batch;
  }

(* One ARU that allocates a private list with one written block, then
   queues its commit. *)
let submit_one lld tag =
  let a = Lld.begin_aru lld in
  let l = Lld.new_list lld ~aru:a () in
  let b = Lld.new_block lld ~aru:a ~list:l ~pred:Summary.Head () in
  Lld.write lld ~aru:a b (block_data tag);
  Lld.submit_commit lld a;
  a

let test_close_on_size () =
  (* the window never expires; only the size condition can close *)
  let _disk, lld = fresh_lld ~config:(config ~window:max_int ~batch:3) () in
  let c = Lld.counters lld in
  let before = c.Counters.arus_committed in
  let _a1 = submit_one lld 1 in
  Alcotest.(check bool) "1 queued: not due" false (Lld.commit_due lld);
  let _a2 = submit_one lld 2 in
  Alcotest.(check bool) "2 queued: not due" false (Lld.commit_due lld);
  let _a3 = submit_one lld 3 in
  Alcotest.(check bool) "3 queued: batch-size due" true (Lld.commit_due lld);
  Alcotest.(check int) "pending" 3 (Lld.pending_commits lld);
  Alcotest.(check int) "flush drains all" 3 (Lld.flush_commits lld);
  Alcotest.(check int) "queue empty" 0 (Lld.pending_commits lld);
  Alcotest.(check int) "one batch" 1 c.Counters.commit_batches;
  Alcotest.(check int) "one barrier for three commits" 1
    c.Counters.commit_barriers;
  Alcotest.(check int) "group commits" 3 c.Counters.group_commits;
  Alcotest.(check int) "arus committed" (before + 3) c.Counters.arus_committed

let test_close_on_window () =
  (* the batch size is unreachable; only the window can close *)
  let _disk, lld = fresh_lld ~config:(config ~window:5_000 ~batch:1000) () in
  let l = Lld.new_list lld () in
  let b = Lld.new_block lld ~list:l ~pred:Summary.Head () in
  let _a = submit_one lld 1 in
  Alcotest.(check int) "queued" 1 (Lld.pending_commits lld);
  (* reads charge virtual time; the oldest intent ages past the window *)
  let guard = ref 0 in
  while (not (Lld.commit_due lld)) && !guard < 100_000 do
    ignore (Lld.read lld b);
    incr guard
  done;
  Alcotest.(check bool) "window expiry makes the batch due" true
    (Lld.commit_due lld);
  Alcotest.(check int) "flush commits it" 1 (Lld.flush_commits lld)

let test_flush_empty_is_free () =
  let _disk, lld = fresh_lld ~config:(config ~window:max_int ~batch:8) () in
  Lld.flush lld;
  let disk = Lld.disk lld in
  let image = Disk.snapshot disk in
  let c = Lld.counters lld in
  Alcotest.(check int) "nothing to commit" 0 (Lld.flush_commits lld);
  Alcotest.(check int) "no batch counted" 0 c.Counters.commit_batches;
  Alcotest.(check int) "no barrier paid" 0 c.Counters.commit_barriers;
  Alcotest.(check bool) "disk untouched" true
    (Bytes.equal image (Disk.snapshot disk))

let test_commit_pending_rejections () =
  let _disk, lld = fresh_lld ~config:(config ~window:max_int ~batch:8) () in
  let a = submit_one lld 9 in
  Alcotest.(check bool) "queued" true (Lld.commit_pending lld a);
  Alcotest.check_raises "end_aru on a queued ARU" (Errors.Commit_pending a)
    (fun () -> Lld.end_aru lld a);
  Alcotest.check_raises "double submit" (Errors.Commit_pending a) (fun () ->
      Lld.submit_commit lld a);
  Alcotest.(check int) "still exactly one intent" 1 (Lld.pending_commits lld);
  Alcotest.(check int) "flush commits it once" 1 (Lld.flush_commits lld);
  Alcotest.(check bool) "gone from the queue" false (Lld.commit_pending lld a);
  Alcotest.(check bool) "no longer active" false (Lld.aru_active lld a)

(* PR 8: aborting a queued ARU withdraws the intent and aborts cleanly
   instead of raising Commit_pending. *)
let test_queued_abort_dequeues () =
  let disk, lld = fresh_lld ~config:(config ~window:max_int ~batch:8) () in
  let c = Lld.counters lld in
  let a1 = submit_one lld 1 in
  let a2 = submit_one lld 2 in
  let a3 = submit_one lld 3 in
  Alcotest.(check int) "three intents" 3 (Lld.pending_commits lld);
  Lld.abort_aru lld a2;
  Alcotest.(check int) "intent withdrawn" 2 (Lld.pending_commits lld);
  Alcotest.(check bool) "no longer pending" false (Lld.commit_pending lld a2);
  Alcotest.(check bool) "no longer active" false (Lld.aru_active lld a2);
  Alcotest.(check int) "queue abort counted" 1 c.Counters.commit_queue_aborts;
  Alcotest.(check int) "abort counted" 1 c.Counters.arus_aborted;
  Alcotest.(check int) "submits counted" 3 c.Counters.commits_submitted;
  (* head abort too: the window clock must follow the new oldest *)
  Lld.abort_aru lld a1;
  Alcotest.(check int) "head withdrawn" 1 (Lld.pending_commits lld);
  Alcotest.(check int) "survivor commits" 1 (Lld.flush_commits lld);
  Alcotest.(check bool) "survivor committed" false (Lld.aru_active lld a3);
  Alcotest.(check int) "one group commit" 1 c.Counters.group_commits;
  (* the aborted ARUs' data must not resurface after recovery *)
  Lld.flush lld;
  let image = Disk.snapshot (Lld.disk lld) in
  let disk' =
    Disk.load ~clock:(Clock.create ()) (Disk.geometry disk) (Bytes.copy image)
  in
  let lld', _ = Lld.recover disk' in
  let blocks l = List.length (Lld.list_blocks lld' l) in
  Alcotest.(check int) "exactly the survivor's list recovered" 1
    (List.length (List.filter (fun l -> blocks l > 0) (Lld.lists lld')))

let test_subbatch_split () =
  (* more intents than the batch limit: one drain, two sub-batches,
     two barriers, FIFO grouping *)
  let _disk, lld = fresh_lld ~config:(config ~window:max_int ~batch:2) () in
  let c = Lld.counters lld in
  (* build up a queue without tripping the due-poll (no engine here) *)
  let _a1 = submit_one lld 1 in
  let _a2 = submit_one lld 2 in
  let _a3 = submit_one lld 3 in
  Alcotest.(check int) "one drain commits all three" 3 (Lld.flush_commits lld);
  Alcotest.(check int) "two sub-batches" 2 c.Counters.commit_batches;
  Alcotest.(check int) "a barrier per sub-batch" 2 c.Counters.commit_barriers;
  Alcotest.(check int) "every member counted" 3 c.Counters.group_commits

(* ------------------------------------------------------------------ *)
(* Engine.direct: a direct-style body as a generator client. *)

let op = Alcotest.testable Op.pp ( = )
let op_result = Alcotest.testable Op.pp_result Op.equal_result

let test_direct_first_call () =
  let log = ref [] in
  let c =
    Engine.direct (fun perform ->
        log := "started" :: !log;
        ignore (perform Op.Lists);
        log := "resumed" :: !log)
  in
  Alcotest.(check (list string)) "nothing runs before the first call" [] !log;
  Alcotest.(check (option op)) "first call yields the first op"
    (Some Op.Lists) (c None);
  Alcotest.(check (list string)) "body ran up to its first op" [ "started" ]
    !log

let test_direct_resumes () =
  let seen = ref [] in
  let c =
    Engine.direct (fun perform ->
        let r1 = perform Op.Begin_aru in
        let r2 = perform Op.Lists in
        seen := [ r1; r2 ])
  in
  Alcotest.(check (option op)) "first op" (Some Op.Begin_aru) (c None);
  Alcotest.(check (option op)) "second op" (Some Op.Lists)
    (c (Some (Op.R_int 1)));
  Alcotest.(check (option op)) "body returned" None (c (Some (Op.R_int 2)));
  Alcotest.(check (list op_result)) "each perform got its op's result"
    [ Op.R_int 1; Op.R_int 2 ] !seen

let test_direct_empty_body () =
  let c = Engine.direct (fun _ -> ()) in
  Alcotest.(check (option op)) "no op" None (c None)

let test_direct_stays_done () =
  let runs = ref 0 in
  let c =
    Engine.direct (fun perform ->
        incr runs;
        ignore (perform Op.Flush))
  in
  ignore (c None);
  Alcotest.(check (option op)) "returned" None (c (Some Op.R_unit));
  Alcotest.(check (option op)) "done on the next call" None
    (c (Some Op.R_unit));
  Alcotest.(check (option op)) "done on a first-call argument" None (c None);
  Alcotest.(check int) "body ran once" 1 !runs

exception Boom

let test_direct_exception_escapes () =
  let _disk, lld = fresh_lld () in
  let c =
    Engine.direct (fun perform ->
        ignore (perform (Op.New_list None));
        raise Boom)
  in
  Alcotest.check_raises "escapes Engine.run" Boom (fun () ->
      ignore (Engine.run lld [ c ]))

(* ------------------------------------------------------------------ *)
(* The engine: run-to-completion loop, End_aru translation, parking,
   forced drain, and per-client result delivery. *)

(* A client body that opens an ARU, fills a private list with [writes]
   written blocks, commits, and records [tag] once the commit's result
   arrives — immediately, or on wake after its batch flushed.  It runs
   under the engine as [Engine.direct (commits ...)], or blocking with
   [perform] applying each op at once. *)
let commits ~writes tag woken perform =
  let expect what r =
    Alcotest.failf "client %d: expected %s, got %a" tag what Op.pp_result r
  in
  let a =
    match perform Op.Begin_aru with Op.R_aru a -> a | r -> expect "aru" r
  in
  let aru = Some a in
  let list =
    match perform (Op.New_list aru) with
    | Op.R_list l -> l
    | r -> expect "list" r
  in
  let pred = ref Summary.Head in
  for _ = 1 to writes do
    match perform (Op.New_block { aru; list; pred = !pred }) with
    | Op.R_block block -> (
      pred := Summary.After block;
      match perform (Op.Write { aru; block; data = block_data tag }) with
      | Op.R_unit -> ()
      | r -> expect "unit" r)
    | r -> expect "block" r
  done;
  (match perform (Op.End_aru a) with
  | Op.R_unit -> ()
  | r -> expect "commit" r);
  woken := tag :: !woken

let client_commits ~writes tag woken = Engine.direct (commits ~writes tag woken)

let test_engine_forced_drain () =
  (* neither size nor window can close: the only way commits complete
     is the engine's all-parked forced flush *)
  let _disk, lld = fresh_lld ~config:(config ~window:max_int ~batch:1000) () in
  let woken = ref [] in
  let clients =
    [
      client_commits ~writes:1 1 woken;
      client_commits ~writes:2 2 woken;
      client_commits ~writes:3 3 woken;
    ]
  in
  let stats = Engine.run lld clients in
  Alcotest.(check int) "three commits" 3 stats.Engine.commits;
  Alcotest.(check bool) "at least one forced flush" true
    (stats.Engine.forced_flushes >= 1);
  Alcotest.(check int) "all three in one drain" 3 stats.Engine.max_batch;
  Alcotest.(check int) "queue drained" 0 (Lld.pending_commits lld);
  (* every client received exactly one commit result *)
  Alcotest.(check (list int)) "every client woken once" [ 1; 2; 3 ]
    (List.sort compare !woken);
  let c = Lld.counters lld in
  Alcotest.(check int) "one barrier for the whole batch" 1
    c.Counters.commit_barriers;
  Alcotest.(check int) "forced flushes counted" stats.Engine.forced_flushes
    c.Counters.forced_flushes;
  Alcotest.(check int) "every wake counted" 3 c.Counters.commit_wakeups

let test_engine_size_close () =
  (* batch limit 2 with 4 clients: drains happen inside the loop via
     the due-poll, not only at the end *)
  let _disk, lld = fresh_lld ~config:(config ~window:max_int ~batch:2) () in
  let woken = ref [] in
  let clients =
    List.init 4 (fun i -> client_commits ~writes:(1 + i) (i + 1) woken)
  in
  let stats = Engine.run lld clients in
  Alcotest.(check int) "four commits" 4 stats.Engine.commits;
  Alcotest.(check bool) "no drain exceeded the batch limit" true
    (stats.Engine.max_batch <= 2);
  Alcotest.(check bool) "several flushes" true (stats.Engine.flushes >= 2);
  Alcotest.(check (list int)) "every client woken once" [ 1; 2; 3; 4 ]
    (List.sort compare !woken)

(* Client A submits its commit and parks; client B then aborts A's ARU.
   A must wake promptly (its intent resolved — as an abort), the loop
   must terminate, and nothing commits. *)
let test_engine_cross_client_abort () =
  let _disk, lld = fresh_lld ~config:(config ~window:max_int ~batch:1000) () in
  let shared = ref None in
  let a_woken = ref false in
  let client_a perform =
    match perform Op.Begin_aru with
    | Op.R_aru a ->
      shared := Some a;
      (* translated to Submit_commit by the engine; A parks *)
      a_woken := perform (Op.End_aru a) = Op.R_unit
    | _ -> Alcotest.fail "client A expected an ARU"
  in
  let rec client_b perform =
    match !shared with
    | None ->
      ignore (perform (Op.New_list None)) (* harmless filler step *);
      client_b perform
    | Some a -> ignore (perform (Op.Abort_aru a))
  in
  let stats =
    Engine.run lld [ Engine.direct client_a; Engine.direct client_b ]
  in
  Alcotest.(check bool) "A woke with its result" true !a_woken;
  Alcotest.(check int) "nothing committed" 0 stats.Engine.commits;
  Alcotest.(check int) "queue empty" 0 (Lld.pending_commits lld);
  let c = Lld.counters lld in
  Alcotest.(check int) "queued intent withdrawn" 1
    c.Counters.commit_queue_aborts;
  Alcotest.(check int) "aborted" 1 c.Counters.arus_aborted;
  Alcotest.(check int) "no group commit" 0 c.Counters.group_commits;
  Alcotest.(check int) "A's wake counted" 1 c.Counters.commit_wakeups

(* With a live handle attached, an engine run feeds the per-stage and
   per-client commit histograms and closes every flow chain. *)
let test_engine_stage_histograms () =
  let disk, lld = fresh_lld ~config:(config ~window:max_int ~batch:2) () in
  let obs = Obs.create ~clock:(Disk.clock disk) () in
  Lld.set_obs lld obs;
  let woken = ref [] in
  let clients = List.init 4 (fun i -> client_commits ~writes:1 (i + 1) woken) in
  ignore (Engine.run lld clients);
  let m = Obs.metrics obs in
  let count name =
    match Metrics.find_histogram m name with
    | Some h -> Stats.Histogram.count h
    | None -> 0
  in
  Alcotest.(check int) "queue-wait sample per commit" 4
    (count "aru.commit.queue_wait");
  Alcotest.(check int) "residency sample per commit" 4
    (count "aru.commit.batch_residency");
  Alcotest.(check bool) "barrier samples" true (count "aru.commit.barrier" >= 1);
  Alcotest.(check int) "wake sample per commit" 4 (count "aru.commit.wake");
  List.iteri
    (fun i _ ->
      Alcotest.(check int)
        (Printf.sprintf "client %d latency sample" i)
        1
        (count (Printf.sprintf "aru.commit.latency.c%d" i)))
    clients;
  (* every started flow chain terminates *)
  let evs = Trace.events (Obs.trace obs) in
  let phases want =
    List.length
      (List.filter
         (fun (e : Trace.event) ->
           e.Trace.ev_name = "commit"
           &&
           match e.Trace.ev_flow with
           | Some (p, _) -> p = want
           | None -> false)
         evs)
  in
  Alcotest.(check int) "flow starts" 4 (phases Trace.Flow_start);
  Alcotest.(check int) "flow ends" 4 (phases Trace.Flow_end);
  Alcotest.(check bool) "flow steps" true (phases Trace.Flow_step >= 8)

(* Run one client body through the engine twice — once with group
   commit enabled, once with the window at 0 — plus once blocking, each
   op applied at once, and require the window=0 run to be bit-identical
   (disk image, counters, device counters and virtual clock) to the
   blocking run. *)
let test_window_zero_identity () =
  let woken = ref [] in
  let run_engine window =
    let disk, lld = fresh_lld ~config:(config ~window ~batch:8) () in
    ignore (Engine.run lld [ client_commits ~writes:3 5 woken ]);
    Lld.flush lld;
    (disk, lld)
  in
  let run_blocking () =
    let disk, lld = fresh_lld ~config:(config ~window:0 ~batch:8) () in
    let module A = Op.Make (Lld) in
    commits ~writes:3 5 woken (A.apply lld);
    Lld.flush lld;
    (disk, lld)
  in
  let fingerprint (disk, lld) = Setup.fingerprint disk (Lld.counters lld) in
  let zero = run_engine 0 in
  let blocking = run_blocking () in
  Alcotest.(check (list string)) "window=0 run bit-identical" []
    (Setup.fingerprint_diff (fingerprint blocking) (fingerprint zero));
  (* group commit reaches the same committed state (the image may
     differ: commit records are batched) *)
  let reload (disk, _) =
    let disk =
      Disk.load ~clock:(Clock.create ()) small_geom (Disk.snapshot disk)
    in
    let lld, _ = Lld.recover disk in
    List.map
      (fun l -> (Types.List_id.to_int l, List.length (Lld.list_blocks lld l)))
      (Lld.lists lld)
  in
  Alcotest.(check (list (pair int int)))
    "grouped and immediate commits recover the same logical state"
    (reload blocking) (reload (run_engine max_int))

let () =
  Alcotest.run "lld_engine"
    [
      ( "queue",
        [
          Alcotest.test_case "batch closes on size" `Quick test_close_on_size;
          Alcotest.test_case "batch closes on window expiry" `Quick
            test_close_on_window;
          Alcotest.test_case "empty flush is free" `Quick
            test_flush_empty_is_free;
          Alcotest.test_case "queued ARUs reject end/resubmit" `Quick
            test_commit_pending_rejections;
          Alcotest.test_case "abort dequeues a queued ARU" `Quick
            test_queued_abort_dequeues;
          Alcotest.test_case "oversize drain splits into sub-batches" `Quick
            test_subbatch_split;
        ] );
      ( "direct",
        [
          Alcotest.test_case "first call runs to the first op" `Quick
            test_direct_first_call;
          Alcotest.test_case "later calls resume with the result" `Quick
            test_direct_resumes;
          Alcotest.test_case "empty body yields None at once" `Quick
            test_direct_empty_body;
          Alcotest.test_case "returned body stays done" `Quick
            test_direct_stays_done;
          Alcotest.test_case "body exception escapes Engine.run" `Quick
            test_direct_exception_escapes;
        ] );
      ( "engine",
        [
          Alcotest.test_case "all-parked forces the drain" `Quick
            test_engine_forced_drain;
          Alcotest.test_case "size-close drains mid-loop" `Quick
            test_engine_size_close;
          Alcotest.test_case "cross-client abort wakes the waiter" `Quick
            test_engine_cross_client_abort;
          Alcotest.test_case "stage histograms and flow chains" `Quick
            test_engine_stage_histograms;
          Alcotest.test_case "window=0 degenerates bit-identically" `Quick
            test_window_zero_identity;
        ] );
    ]
