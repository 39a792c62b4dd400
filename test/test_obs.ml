module Clock = Lld_sim.Clock
module Histogram = Lld_sim.Stats.Histogram
module Trace = Lld_obs.Trace
module Metrics = Lld_obs.Metrics
module Obs = Lld_obs.Obs
module Errors = Lld_core.Errors

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------- null *)

let test_null_is_inert () =
  Alcotest.(check bool) "inactive" false (Obs.active Obs.null);
  let r = Obs.timed Obs.null Trace.Op "write" (fun () -> 42) in
  Alcotest.(check int) "timed passes through" 42 r;
  Obs.event Obs.null Trace.Disk "marker" [];
  Obs.observe Obs.null "op.write" 123;
  Alcotest.(check int) "nothing recorded" 0 (Trace.count (Obs.trace Obs.null));
  Alcotest.(check int)
    "no histograms" 0
    (List.length (Metrics.histograms (Obs.metrics Obs.null)))

(* ------------------------------------------------------------ timed *)

let test_timed_records_span_and_histogram () =
  let clock = Clock.create () in
  let obs = Obs.create ~clock () in
  Clock.charge clock Clock.Cpu 1_000;
  let r =
    Obs.timed obs Trace.Op "write" (fun () ->
        Clock.charge clock Clock.Io 500;
        "done")
  in
  Alcotest.(check string) "result" "done" r;
  (match Trace.events (Obs.trace obs) with
  | [ e ] ->
    Alcotest.(check string) "name" "write" e.Trace.ev_name;
    Alcotest.(check bool) "cat" true (e.Trace.ev_cat = Trace.Op);
    Alcotest.(check int) "ts" 1_000 e.Trace.ev_ts_ns;
    Alcotest.(check int) "dur" 500 e.Trace.ev_dur_ns
  | es -> Alcotest.failf "expected one event, got %d" (List.length es));
  match Metrics.find_histogram (Obs.metrics obs) "op.write" with
  | None -> Alcotest.fail "histogram op.write missing"
  | Some h ->
    Alcotest.(check int) "samples" 1 (Histogram.count h);
    Alcotest.(check int) "sum is virtual duration" 500 (Histogram.sum h)

let test_timed_exn_span_no_sample () =
  let clock = Clock.create () in
  let obs = Obs.create ~clock () in
  (try
     Obs.timed obs Trace.Op "boom" (fun () ->
         Clock.charge clock Clock.Cpu 100;
         failwith "crash")
   with Failure _ -> ());
  (match Trace.events (Obs.trace obs) with
  | [ e ] ->
    Alcotest.(check bool)
      "exn tag present" true
      (List.mem_assoc "exn" e.Trace.ev_args)
  | es -> Alcotest.failf "expected one event, got %d" (List.length es));
  (* an interrupted operation is not a completed-latency sample *)
  match Metrics.find_histogram (Obs.metrics obs) "op.boom" with
  | None -> ()
  | Some h -> Alcotest.(check int) "no sample" 0 (Histogram.count h)

let test_hist_key () =
  Alcotest.(check string) "op" "op.read" (Obs.hist_key Trace.Op "read");
  Alcotest.(check string) "recovery" "recovery.replay"
    (Obs.hist_key Trace.Recovery "replay")

(* -------------------------------------------------------- filtering *)

let test_category_filter () =
  let clock = Clock.create () in
  let t = Trace.create ~categories:[ Trace.Op ] ~clock () in
  Alcotest.(check bool) "op on" true (Trace.on t Trace.Op);
  Alcotest.(check bool) "disk off" false (Trace.on t Trace.Disk);
  Trace.instant t Trace.Op "kept" [];
  Trace.instant t Trace.Disk "dropped" [];
  Alcotest.(check int) "only op recorded" 1 (Trace.count t);
  match Trace.events t with
  | [ e ] -> Alcotest.(check string) "kept" "kept" e.Trace.ev_name
  | _ -> Alcotest.fail "expected exactly one event"

(* ------------------------------------------------------ ring buffer *)

let test_ring_overwrites_oldest () =
  Alcotest.(check bool) "disabled is off" false (Trace.enabled Trace.disabled);
  Trace.instant Trace.disabled Trace.Op "noop" [];
  Alcotest.(check int) "disabled records nothing" 0
    (Trace.count Trace.disabled);
  let clock = Clock.create () in
  let t = Trace.create ~capacity:4 ~clock () in
  for i = 1 to 10 do
    Clock.charge clock Clock.Cpu 1;
    Trace.instant t Trace.Op (Printf.sprintf "e%d" i) []
  done;
  Alcotest.(check int) "total count" 10 (Trace.count t);
  Alcotest.(check int) "dropped" 6 (Trace.dropped t);
  let names = List.map (fun e -> e.Trace.ev_name) (Trace.events t) in
  Alcotest.(check (list string)) "last four, oldest first"
    [ "e7"; "e8"; "e9"; "e10" ] names;
  let ts = List.map (fun e -> e.Trace.ev_ts_ns) (Trace.events t) in
  Alcotest.(check (list int)) "timestamps ascending" [ 7; 8; 9; 10 ] ts;
  Trace.clear t;
  Alcotest.(check int) "clear empties the ring" 0
    (List.length (Trace.events t))

(* ----------------------------------------------------------- export *)

let test_chrome_export_shape () =
  let clock = Clock.create () in
  let t = Trace.create ~clock () in
  Trace.complete t Trace.Disk "write \"0\"\\" ~ts_ns:0 ~dur_ns:1500
    [ ("offset", Trace.I 512) ];
  Clock.charge clock Clock.Io 1500;
  Trace.instant t Trace.Clean "batch" [ ("gain", Trace.F 0.5) ];
  let s = Trace.to_chrome_string t in
  Alcotest.(check bool) "displayTimeUnit" true (contains s "\"displayTimeUnit\":\"ns\"");
  Alcotest.(check bool) "traceEvents" true (contains s "\"traceEvents\":[");
  Alcotest.(check bool) "escaped quote+backslash" true
    (contains s "write \\\"0\\\"\\\\");
  Alcotest.(check bool) "complete phase" true (contains s "\"ph\":\"X\"");
  Alcotest.(check bool) "instant phase" true (contains s "\"ph\":\"i\"");
  Alcotest.(check bool) "duration in us" true (contains s "\"dur\":1.500");
  let jsonl = Trace.to_jsonl_string t in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one JSONL line per event" 2 (List.length lines);
  List.iter
    (fun l -> Alcotest.(check bool) "line is an object" true (l.[0] = '{'))
    lines;
  Alcotest.(check bool) "exact ns in JSONL" true
    (contains jsonl "\"dur_ns\":1500")

(* ---------------------------------------------------------- metrics *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.observe m "op.read" 100;
  Metrics.observe m "op.read" 300;
  Metrics.observe m "op.write" 50;
  (match Metrics.find_histogram m "op.read" with
  | Some h -> Alcotest.(check int) "two samples" 2 (Histogram.count h)
  | None -> Alcotest.fail "op.read missing");
  Alcotest.(check (list string))
    "first-use order" [ "op.read"; "op.write" ]
    (List.map fst (Metrics.histograms m));
  let v = ref 1 in
  Metrics.register_gauge m ~name:"g" ~help:"old" (fun () -> !v);
  Metrics.register_gauge m ~name:"g" ~help:"new" (fun () -> !v * 2);
  v := 21;
  (match Metrics.sample_gauges m with
  | [ (name, value, help) ] ->
    Alcotest.(check string) "name" "g" name;
    Alcotest.(check int) "replaced closure sampled live" 42 value;
    Alcotest.(check string) "replaced help" "new" help
  | gs -> Alcotest.failf "expected one gauge, got %d" (List.length gs));
  let json = Metrics.to_json_string m in
  Alcotest.(check bool) "gauges key" true (contains json "\"gauges\":{");
  Alcotest.(check bool) "histograms key" true (contains json "\"histograms\":{");
  Alcotest.(check bool) "gauge value" true (contains json "\"g\":42");
  Alcotest.(check bool) "histogram count" true (contains json "\"count\":2")

(* ------------------------------------------------------------- flow *)

let test_flow_chrome_export () =
  let clock = Clock.create () in
  let t = Trace.create ~clock () in
  Trace.flow t Trace.Aru "commit" ~phase:Trace.Flow_start ~id:7
    [ ("stage", Trace.S "submit") ];
  Clock.charge clock Clock.Cpu 100;
  Trace.flow t Trace.Aru "commit" ~phase:Trace.Flow_step ~id:7
    [ ("stage", Trace.S "batch") ];
  Clock.charge clock Clock.Cpu 100;
  Trace.flow t Trace.Aru "commit" ~phase:Trace.Flow_end ~id:7
    [ ("stage", Trace.S "wake") ];
  Alcotest.(check int) "three links" 3 (Trace.count t);
  (match Trace.events t with
  | [ s; st; e ] ->
    Alcotest.(check bool) "start" true (s.Trace.ev_flow = Some (Trace.Flow_start, 7));
    Alcotest.(check bool) "step" true (st.Trace.ev_flow = Some (Trace.Flow_step, 7));
    Alcotest.(check bool) "end" true (e.Trace.ev_flow = Some (Trace.Flow_end, 7))
  | es -> Alcotest.failf "expected three events, got %d" (List.length es));
  let s = Trace.to_chrome_string t in
  Alcotest.(check bool) "flow start phase" true (contains s "\"ph\":\"s\"");
  Alcotest.(check bool) "flow step phase" true (contains s "\"ph\":\"t\"");
  Alcotest.(check bool) "flow end phase" true (contains s "\"ph\":\"f\"");
  Alcotest.(check bool) "bound by id" true (contains s "\"id\":7");
  Alcotest.(check bool) "end binds to enclosing slice" true
    (contains s "\"ph\":\"f\",\"id\":7,\"bp\":\"e\"")

(* --------------------------------------------------------- black box *)

let test_flight_only_handle () =
  let clock = Clock.create () in
  let obs = Obs.flight_only ~clock () in
  Alcotest.(check bool) "not active" false (Obs.active obs);
  Alcotest.(check bool) "still recording" true (Obs.recording obs);
  Obs.event obs ~flow:(Trace.Flow_start, 3) Trace.Aru "commit"
    [ ("stage", Trace.S "submit") ];
  Alcotest.(check int) "flight saw the event" 1
    (Trace.count (Obs.flight obs));
  Alcotest.(check int) "tracer stayed dark" 0 (Trace.count (Obs.trace obs));
  (match Trace.events (Obs.flight obs) with
  | [ e ] ->
    Alcotest.(check bool) "flow link kept" true
      (e.Trace.ev_flow = Some (Trace.Flow_start, 3))
  | es -> Alcotest.failf "expected one event, got %d" (List.length es));
  Clock.charge clock Clock.Cpu 1_000;
  let r =
    Obs.timed obs Trace.Op "write" (fun () ->
        Clock.charge clock Clock.Io 500;
        17)
  in
  Alcotest.(check int) "timed passes through" 17 r;
  (match Trace.events (Obs.flight obs) with
  | [ _; e ] ->
    Alcotest.(check string) "timed record" "write" e.Trace.ev_name;
    Alcotest.(check int) "timed record keeps its start" 1_000
      e.Trace.ev_ts_ns;
    Alcotest.(check int) "timed record keeps its duration" 500
      e.Trace.ev_dur_ns
  | es -> Alcotest.failf "expected two events, got %d" (List.length es));
  Alcotest.(check int) "no histograms on the black box" 0
    (List.length (Metrics.histograms (Obs.metrics obs)))

let test_env_default () =
  let clock = Clock.create () in
  Unix.putenv "LLD_FLIGHT" "0";
  let o = Obs.env_default ~clock Obs.null in
  Alcotest.(check bool) "stays inert without LLD_FLIGHT" false
    (Obs.recording o);
  Unix.putenv "LLD_FLIGHT" "1";
  let o = Obs.env_default ~clock Obs.null in
  Alcotest.(check bool) "upgraded to the black box" true (Obs.recording o);
  Alcotest.(check bool) "but not active" false (Obs.active o);
  let live = Obs.create ~clock () in
  Alcotest.(check bool) "recording handles pass through" true
    (Obs.env_default ~clock live == live);
  Unix.putenv "LLD_FLIGHT" "0"

(* ------------------------------------------------------- panic hook *)

let test_panic_hook () =
  Errors.clear_panic_hooks ();
  let seen = ref [] in
  Errors.on_panic (fun e -> seen := Printexc.to_string e :: !seen);
  Errors.on_panic (fun _ -> failwith "hook blows up (swallowed)");
  (try Errors.corrupt "bad segment"
   with Errors.Corrupt m -> Alcotest.(check string) "message" "bad segment" m);
  Alcotest.(check int) "surviving hook fired exactly once" 1
    (List.length !seen);
  Errors.clear_panic_hooks ();
  (try Errors.corrupt "again" with Errors.Corrupt _ -> ());
  Alcotest.(check int) "cleared hooks stay silent" 1 (List.length !seen)

(* ------------------------------------------------------ openmetrics *)

let test_counter_replace_by_name () =
  let m = Metrics.create () in
  let v = ref 1 in
  Metrics.register_counter m ~name:"c" ~help:"old" (fun () -> !v);
  Metrics.register_counter m ~name:"c" ~help:"new" (fun () -> !v * 10);
  v := 4;
  (match Metrics.sample_counters m with
  | [ ("c", 40, "new") ] -> ()
  | [ (n, v, h) ] -> Alcotest.failf "got (%s, %d, %s)" n v h
  | cs -> Alcotest.failf "expected one counter, got %d" (List.length cs));
  let om = Metrics.to_openmetrics_string m in
  Alcotest.(check bool) "counter family typed" true
    (contains om "# TYPE lld_c counter");
  Alcotest.(check bool) "_total suffix" true (contains om "lld_c_total 40")

let test_histogram_bucket_boundaries () =
  (* log2 buckets: bucket 0 holds the value 0; bucket i >= 1 holds
     [2^(i-1) .. 2^i - 1], so an exact power of two opens a bucket. *)
  Alcotest.(check int) "zero" 0 (Histogram.bucket_of 0);
  Alcotest.(check int) "one" 1 (Histogram.bucket_of 1);
  Alcotest.(check int) "1023 closes bucket 10" 10 (Histogram.bucket_of 1023);
  Alcotest.(check int) "1024 opens bucket 11" 11 (Histogram.bucket_of 1024);
  Alcotest.(check int) "bucket 11 lower bound" 1024 (Histogram.bucket_lo 11);
  Alcotest.(check int) "bucket 10 upper bound" 1023 (Histogram.bucket_hi 10);
  let h = Histogram.create () in
  Histogram.add h 1023;
  Histogram.add h 1024;
  (match Histogram.nonzero_buckets h with
  | [ (lo1, hi1, n1); (lo2, hi2, n2) ] ->
    Alcotest.(check (list int)) "adjacent buckets split the boundary"
      [ 512; 1023; 1; 1024; 2047; 1 ]
      [ lo1; hi1; n1; lo2; hi2; n2 ]
  | bs -> Alcotest.failf "expected two buckets, got %d" (List.length bs));
  (* percentiles clamp to the observed range, never under-reporting *)
  Alcotest.(check int) "p99 clamps to max" 1024 (Histogram.p99 h);
  Alcotest.(check bool) "p50 within factor 2" true
    (Histogram.p50 h >= 1023 && Histogram.p50 h <= 2046)

let test_openmetrics_golden () =
  let m = Metrics.create () in
  let reads = ref 7 in
  Metrics.register_counter m ~name:"reads" ~help:"total reads" (fun () ->
      !reads);
  Metrics.register_gauge m ~name:"free.segments" ~help:"free\\seg\ncount"
    (fun () -> 3);
  Metrics.observe m "op.read" 0;
  Metrics.observe m "op.read" 7;
  Metrics.observe m "op.read" 8;
  let expected =
    String.concat "\n"
      [
        "# TYPE lld_reads counter";
        "# HELP lld_reads total reads";
        "lld_reads_total 7";
        "# TYPE lld_free_segments gauge";
        "# HELP lld_free_segments free\\\\seg\\ncount";
        "lld_free_segments 3";
        "# TYPE lld_op_read histogram";
        "# HELP lld_op_read latency histogram (virtual ns)";
        "lld_op_read_bucket{le=\"0\"} 1";
        "lld_op_read_bucket{le=\"7\"} 2";
        "lld_op_read_bucket{le=\"15\"} 3";
        "lld_op_read_bucket{le=\"+Inf\"} 3";
        "lld_op_read_sum 15";
        "lld_op_read_count 3";
        "# EOF";
        "";
      ]
  in
  Alcotest.(check string) "golden exposition" expected
    (Metrics.to_openmetrics_string m)

let () =
  Alcotest.run "obs"
    [
      ( "obs",
        [
          Alcotest.test_case "null handle is inert" `Quick test_null_is_inert;
          Alcotest.test_case "timed records span + histogram" `Quick
            test_timed_records_span_and_histogram;
          Alcotest.test_case "timed on exception: span, no sample" `Quick
            test_timed_exn_span_no_sample;
          Alcotest.test_case "hist_key convention" `Quick test_hist_key;
        ] );
      ( "trace",
        [
          Alcotest.test_case "category filtering" `Quick test_category_filter;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_ring_overwrites_oldest;
          Alcotest.test_case "chrome + JSONL export shape" `Quick
            test_chrome_export_shape;
          Alcotest.test_case "flow events bind s/t/f by id" `Quick
            test_flow_chrome_export;
        ] );
      ( "flight",
        [
          Alcotest.test_case "flight-only black box" `Quick
            test_flight_only_handle;
          Alcotest.test_case "LLD_FLIGHT=1 upgrades inert handles" `Quick
            test_env_default;
          Alcotest.test_case "panic hook fires and clears" `Quick
            test_panic_hook;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "counter replace-by-name" `Quick
            test_counter_replace_by_name;
          Alcotest.test_case "bucket boundaries at powers of two" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "OpenMetrics golden exposition" `Quick
            test_openmetrics_golden;
        ] );
    ]
