(* Workload generators and the experiment harness: smoke-level checks
   that the reproduction machinery itself behaves (phases measure what
   they claim, variants differ the way the paper says, reports render). *)

module Geometry = Lld_disk.Geometry
module Config = Lld_core.Config
module Lld = Lld_core.Lld
module Setup = Lld_workload.Setup
module Smallfile = Lld_workload.Smallfile
module Largefile = Lld_workload.Largefile
module Aru_churn = Lld_workload.Aru_churn
module Concurrent = Lld_workload.Concurrent
module Experiment = Lld_harness.Experiment
module Report = Lld_harness.Report

let geom = Geometry.v ~num_segments:64 ()

let tiny_scale =
  { Experiment.files = 0.01; bytes = 0.01; arus = 0.002; geom }

let test_setup_variants () =
  List.iter
    (fun v ->
      let inst = Setup.make ~geom ~inode_count:512 v in
      Alcotest.(check int)
        (Setup.variant_label v ^ ": clock reset after setup")
        0
        (Lld_sim.Clock.now_ns inst.Setup.clock);
      Alcotest.(check bool) "fs mounted" true
        (Lld_minixfs.Fs.readdir inst.Setup.fs "/" = []))
    Setup.all_variants

(* Formatting runs before the clock reset: no record the instance's
   handle keeps may be stamped on the timeline the reset discarded,
   whether the caller passed a live handle, a black box, or none under
   LLD_FLIGHT=1. *)
let test_setup_drops_format_records () =
  let module Obs = Lld_obs.Obs in
  let module Trace = Lld_obs.Trace in
  let old = Sys.getenv_opt "LLD_FLIGHT" in
  Fun.protect ~finally:(fun () ->
      Unix.putenv "LLD_FLIGHT" (Option.value old ~default:""))
  @@ fun () ->
  Unix.putenv "LLD_FLIGHT" "1";
  let handles =
    [
      ("live", fun clock -> Some (Obs.create ~clock ()));
      ("black box", fun clock -> Some (Obs.flight_only ~clock ()));
      ("LLD_FLIGHT=1", fun _ -> None);
    ]
  in
  List.iter
    (fun (kind, handle) ->
      let check what clock lld =
        let obs = Lld.obs lld in
        let now = Lld_sim.Clock.now_ns clock in
        Alcotest.(check bool) (what ^ ", " ^ kind ^ ": black box on") true
          (Trace.enabled (Obs.flight obs));
        List.iter
          (fun (ring, t) ->
            let late =
              List.filter (fun e -> e.Trace.ev_ts_ns > now) (Trace.events t)
            in
            Alcotest.(check int)
              (Printf.sprintf "%s, %s: %s events after the clock" what kind
                 ring)
              0 (List.length late))
          [ ("black box", Obs.flight obs); ("tracer", Obs.trace obs) ]
      in
      let clock = Lld_sim.Clock.create () in
      let inst =
        Setup.make ~geom ~inode_count:64 ~clock ?obs:(handle clock) Setup.New
      in
      check "make" clock inst.Setup.lld;
      let clock = Lld_sim.Clock.create () in
      let _, lld = Setup.make_raw ~geom ~clock ?obs:(handle clock) Setup.New in
      check "make_raw" clock lld)
    handles

let test_smallfile_phases () =
  let inst = Setup.make ~geom ~inode_count:512 Setup.New in
  let p = { Smallfile.file_count = 60; file_bytes = 1024; dirs = 1 } in
  let r = Smallfile.run inst p in
  Alcotest.(check int) "files created" 60 r.Smallfile.create_write.Smallfile.files;
  Alcotest.(check bool) "create time positive" true
    (r.Smallfile.create_write.Smallfile.elapsed_ns > 0);
  Alcotest.(check bool) "read faster than create" true
    (r.Smallfile.read.Smallfile.files_per_sec
    > r.Smallfile.create_write.Smallfile.files_per_sec);
  (* after the delete phase everything is gone *)
  Alcotest.(check (list string)) "all deleted" []
    (Lld_minixfs.Fs.readdir inst.Setup.fs "/")

let test_smallfile_dirs () =
  let inst = Setup.make ~geom ~inode_count:512 Setup.New in
  let p = { Smallfile.file_count = 30; file_bytes = 1024; dirs = 3 } in
  let r = Smallfile.run inst p in
  Alcotest.(check int) "ran" 30 r.Smallfile.delete.Smallfile.files;
  Alcotest.(check int) "directories remain" 3
    (List.length (Lld_minixfs.Fs.readdir inst.Setup.fs "/"))

let test_smallfile_scaled () =
  let p = Smallfile.scaled Smallfile.paper_1k 0.01 in
  Alcotest.(check int) "scaled count" 100 p.Smallfile.file_count;
  Alcotest.(check int) "size unchanged" 1024 p.Smallfile.file_bytes;
  Alcotest.(check int) "never zero" 1
    (Smallfile.scaled Smallfile.paper_10k 0.0001).Smallfile.file_count

let test_largefile_phases () =
  let inst = Setup.make ~geom ~inode_count:64 Setup.New in
  let p = Largefile.scaled Largefile.paper 0.01 in
  let r = Largefile.run inst p in
  List.iter
    (fun (ph : Largefile.phase) ->
      Alcotest.(check bool)
        (ph.Largefile.label ^ " throughput positive")
        true
        (ph.Largefile.mb_per_sec > 0.))
    (Largefile.phases r);
  (* writes are log-structured: sequential and random writes comparable;
     random reads much slower than sequential ones *)
  Alcotest.(check bool) "write2 within 2x of write1" true
    (r.Largefile.write2.Largefile.mb_per_sec
    > r.Largefile.write1.Largefile.mb_per_sec /. 2.);
  Alcotest.(check bool) "read2 slower than read1" true
    (r.Largefile.read2.Largefile.mb_per_sec
    < r.Largefile.read1.Largefile.mb_per_sec)

let test_largefile_scaled_rounds_to_blocks () =
  let p = Largefile.scaled Largefile.paper 0.013 in
  Alcotest.(check int) "block multiple" 0 (p.Largefile.file_bytes mod 4096);
  Alcotest.(check bool) "positive" true (p.Largefile.file_bytes > 0)

let test_aru_churn () =
  let _, lld = Setup.make_raw ~geom Setup.New in
  let r = Aru_churn.run lld { Aru_churn.count = 5000 } in
  Alcotest.(check int) "count" 5000 r.Aru_churn.count;
  Alcotest.(check bool) "latency sane" true
    (r.Aru_churn.latency_us > 10. && r.Aru_churn.latency_us < 1000.);
  Alcotest.(check bool) "commit records flushed" true
    (r.Aru_churn.segments_written >= 1)

let test_aru_churn_old_cheaper () =
  let run v =
    let _, lld = Setup.make_raw ~geom v in
    (Aru_churn.run lld { Aru_churn.count = 2000 }).Aru_churn.latency_us
  in
  let old = run Setup.Old in
  let new_ = run Setup.New in
  Alcotest.(check bool)
    (Printf.sprintf "old (%.1f) cheaper than new (%.1f)" old new_)
    true (old < new_)

let test_concurrent_equal_ops () =
  let p = { Concurrent.streams = 4; ops_per_stream = 50; seed = 3 } in
  let run f =
    let _, lld = Setup.make_raw ~geom Setup.New in
    f lld p
  in
  let inter = run Concurrent.run_interleaved in
  let serial = run Concurrent.run_serial in
  Alcotest.(check int) "same op count" inter.Concurrent.ops serial.Concurrent.ops;
  Alcotest.(check bool) "interleaving keeps more shadows" true
    (inter.Concurrent.record_creates >= serial.Concurrent.record_creates)

let test_mixed_workload_phases () =
  let inst = Setup.make ~geom ~inode_count:512 Setup.New in
  let p = { Lld_workload.Mixed.default with Lld_workload.Mixed.dirs = 5; files_per_dir = 6 } in
  let r = Lld_workload.Mixed.run inst p in
  Alcotest.(check int) "five phases" 5 (List.length r.Lld_workload.Mixed.phases);
  List.iter
    (fun (ph : Lld_workload.Mixed.phase) ->
      Alcotest.(check bool)
        (ph.Lld_workload.Mixed.label ^ " positive")
        true
        (ph.Lld_workload.Mixed.ops > 0 && ph.Lld_workload.Mixed.ops_per_sec > 0.))
    r.Lld_workload.Mixed.phases;
  (* the tree the workload built is consistent *)
  Alcotest.(check bool) "fsck clean" true
    (Lld_minixfs.Fsck.ok (Lld_minixfs.Fsck.run inst.Setup.fs))

let run_quiet exps =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let checks, json = Experiment.run ppf tiny_scale exps in
  Format.pp_print_flush ppf ();
  (checks, json, Buffer.contents buf)

let field key = function
  | Report.Obj fields -> List.assoc key fields
  | _ -> Alcotest.failf "expected an object holding %S" key

let test_experiment_figure5_shape () =
  (* the paper's direction (old >= new on create+write and delete,
     improved deletion >= new on delete) is F5's own declared checks *)
  let checks, json, _ = run_quiet [ Experiment.figure5 ] in
  Alcotest.(check int) "positive + three directions" 4 (List.length checks);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Experiment.ck_name ^ ": " ^ c.Experiment.ck_detail)
        true c.Experiment.ck_ok)
    checks;
  match field "tables" (field "F5" (field "experiments" json)) with
  | Report.List [ table ] -> (
    match field "rows" table with
    | Report.List rows ->
      Alcotest.(check int) "3 variants x 2 sizes" 6 (List.length rows)
    | _ -> Alcotest.fail "rows is not a list")
  | _ -> Alcotest.fail "F5 should declare one table"

let test_experiment_prints () =
  (* every table of the F5-derived experiments renders *)
  let exps =
    List.filter
      (fun (Experiment.T e) ->
        List.mem e.Experiment.id [ "F5"; "F6"; "L1"; "A1"; "X2" ])
      Experiment.all
  in
  let _, _, out = run_quiet exps in
  let contains needle =
    let nl = String.length needle and ol = String.length out in
    let rec scan i = i + nl <= ol && (String.sub out i nl = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("output mentions " ^ needle) true (contains needle))
    [ "Figure 5"; "Figure 6"; "ARU latency"; "Summary"; "Ablation X2" ]

let test_report_table_alignment () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Report.print ppf
    (Report.table ~title:"T" ~header:[ "a"; "bb" ]
       [ [ Report.text "xxx"; Report.text "y" ]; [ Report.text "z"; Report.text "wwww" ] ]);
  Format.pp_print_flush ppf ();
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check int) "title + rule + header + 2 rows" 5 (List.length lines)

let test_report_pct () =
  Alcotest.(check string) "slower" "+10.0%" (Report.pct ~baseline:100. 90.);
  Alcotest.(check string) "faster" "-10.0%" (Report.pct ~baseline:100. 110.);
  Alcotest.(check string) "zero baseline" "n/a" (Report.pct ~baseline:0. 1.)

let test_report_typed_cells () =
  let c = Report.float (2. /. 3.) in
  Alcotest.(check string) "printed with two decimals" "0.67" c.Report.text;
  Alcotest.(check string) "JSON keeps the raw value" "0.6666666666666666"
    (Report.json_to_string c.Report.value);
  let t = Report.table ~title:"T" ~header:[ "v" ] [ [ c ] ] in
  Alcotest.(check string) "row keyed by header"
    {|{"title":"T","rows":[{"v":0.6666666666666666}]}|}
    (Report.json_to_string (Report.to_json t));
  Alcotest.(check string) "non-finite becomes null" "[null,null,null]"
    (Report.json_to_string
       (Report.List (List.map (fun f -> Report.Float f) [ nan; infinity; neg_infinity ])))

let test_runner_surfaces_failure () =
  let fake =
    Experiment.T
      {
        Experiment.id = "FAKE";
        paper_ref = "none";
        run = (fun _ -> 41);
        tables =
          (fun n -> [ Report.table ~title:"Fake" ~header:[ "n" ] [ [ Report.int n ] ] ]);
        checks =
          (fun n ->
            [
              { Experiment.ck_name = "fake: n is 42"; ck_ok = n = 42;
                ck_detail = string_of_int n };
            ]);
      }
  in
  let checks, json, out = run_quiet [ fake ] in
  Alcotest.(check (list bool)) "one failed check" [ false ]
    (List.map (fun c -> c.Experiment.ck_ok) checks);
  Alcotest.(check bool) "FAIL printed" true
    (List.exists
       (fun l -> String.length l >= 4 && String.sub l 0 4 = "fake"
                 && List.mem "FAIL" (String.split_on_char ' ' l))
       (String.split_on_char '\n' out));
  Alcotest.(check string) "failure in the JSON"
    {|[{"name":"fake: n is 42","ok":false,"detail":"41"}]|}
    (Report.json_to_string (field "checks" (field "FAKE" (field "experiments" json))));
  Alcotest.(check int) "exit status" 1 (Experiment.exit_status checks)

let () =
  Alcotest.run "lld_workload"
    [
      ( "setup",
        [
          Alcotest.test_case "variants" `Quick test_setup_variants;
          Alcotest.test_case "format records dropped" `Quick
            test_setup_drops_format_records;
        ] );
      ( "smallfile",
        [
          Alcotest.test_case "phases" `Quick test_smallfile_phases;
          Alcotest.test_case "directories" `Quick test_smallfile_dirs;
          Alcotest.test_case "scaling" `Quick test_smallfile_scaled;
        ] );
      ( "largefile",
        [
          Alcotest.test_case "phases" `Quick test_largefile_phases;
          Alcotest.test_case "scaling rounds to blocks" `Quick
            test_largefile_scaled_rounds_to_blocks;
        ] );
      ( "aru-churn",
        [
          Alcotest.test_case "latency" `Quick test_aru_churn;
          Alcotest.test_case "old cheaper than new" `Quick
            test_aru_churn_old_cheaper;
        ] );
      ( "concurrent",
        [ Alcotest.test_case "interleaved vs serial" `Quick test_concurrent_equal_ops ]
      );
      ( "mixed",
        [
          Alcotest.test_case "mixed workload phases" `Quick
            test_mixed_workload_phases;
        ] );
      ( "harness",
        [
          Alcotest.test_case "figure 5 shape" `Slow test_experiment_figure5_shape;
          Alcotest.test_case "printers render" `Slow test_experiment_prints;
          Alcotest.test_case "table alignment" `Quick test_report_table_alignment;
          Alcotest.test_case "percent formatting" `Quick test_report_pct;
          Alcotest.test_case "typed cells" `Quick test_report_typed_cells;
          Alcotest.test_case "failing check surfaces" `Quick
            test_runner_surfaces_failure;
        ] );
    ]
