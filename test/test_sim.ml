module Clock = Lld_sim.Clock
module Cost = Lld_sim.Cost
module Rng = Lld_sim.Rng
module Stats = Lld_sim.Stats

let test_clock_charges () =
  let c = Clock.create () in
  Clock.charge c Clock.Cpu 100;
  Clock.charge c Clock.Io 250;
  Clock.charge c Clock.Cpu 50;
  Alcotest.(check int) "now" 400 (Clock.now_ns c);
  Alcotest.(check int) "cpu" 150 (Clock.total_ns c Clock.Cpu);
  Alcotest.(check int) "io" 250 (Clock.total_ns c Clock.Io)

let test_clock_reset () =
  let c = Clock.create () in
  Clock.charge c Clock.Cpu 42;
  Clock.reset c;
  Alcotest.(check int) "now" 0 (Clock.now_ns c);
  Alcotest.(check int) "cpu" 0 (Clock.total_ns c Clock.Cpu)

let test_clock_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Clock.charge: negative duration") (fun () ->
      Clock.charge c Clock.Cpu (-1))

let test_cost_calibration_anchor () =
  (* DESIGN.md §5.4: an empty Begin/End ARU pair should cost about
     76 us of CPU (78.47 us total minus its I/O share). *)
  let c = Cost.sparc5_70 in
  let begin_end =
    (2 * c.Cost.op_dispatch_ns)
    + (2 * c.Cost.record_lookup_ns)
    + c.Cost.aru_begin_ns + c.Cost.aru_commit_ns + c.Cost.summary_entry_ns
  in
  Alcotest.(check bool)
    (Printf.sprintf "begin/end pair ~76us (got %dns)" begin_end)
    true
    (begin_end > 70_000 && begin_end < 80_000)

let test_cost_free_is_zero () =
  let c = Cost.free in
  Alcotest.(check int) "dispatch" 0 c.Cost.op_dispatch_ns;
  Alcotest.(check int) "copy" 0 c.Cost.block_copy_ns;
  Alcotest.(check int) "commit" 0 c.Cost.aru_commit_ns

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 in
  let b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 in
  let b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false
    (Int64.equal (Rng.next a) (Rng.next b))

let test_rng_bounds () =
  let r = Rng.create ~seed:42 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let r = Rng.create ~seed:9 in
  let child = Rng.split r in
  Alcotest.(check bool) "split differs" false
    (Int64.equal (Rng.next r) (Rng.next child))

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50. (Stats.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Stats.percentile xs 100.);
  Alcotest.(check (float 1e-9)) "p1" 1. (Stats.percentile xs 1.)

let test_stats_throughput () =
  Alcotest.(check (float 1e-9)) "files/s" 1000.
    (Stats.throughput ~work:1000. ~elapsed_ns:1_000_000_000)

module H = Stats.Histogram

let test_hist_bucket_boundaries () =
  Alcotest.(check int) "0 -> bucket 0" 0 (H.bucket_of 0);
  Alcotest.(check int) "1 -> bucket 1" 1 (H.bucket_of 1);
  Alcotest.(check int) "2 -> bucket 2" 2 (H.bucket_of 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (H.bucket_of 3);
  Alcotest.(check int) "4 -> bucket 3" 3 (H.bucket_of 4);
  Alcotest.(check int) "bucket 0 lo" 0 (H.bucket_lo 0);
  Alcotest.(check int) "bucket 0 hi" 0 (H.bucket_hi 0);
  for i = 1 to 40 do
    let lo = 1 lsl (i - 1) and hi = (1 lsl i) - 1 in
    Alcotest.(check int) (Printf.sprintf "bucket %d lo" i) lo (H.bucket_lo i);
    Alcotest.(check int) (Printf.sprintf "bucket %d hi" i) hi (H.bucket_hi i);
    Alcotest.(check int) (Printf.sprintf "lo of bucket %d maps back" i) i
      (H.bucket_of lo);
    Alcotest.(check int) (Printf.sprintf "hi of bucket %d maps back" i) i
      (H.bucket_of hi)
  done

let test_hist_percentile_agreement () =
  (* the histogram estimate uses the same nearest-rank rule as
     Stats.percentile: it must never under-report the exact value and
     stay within a factor of two of it *)
  let rng = Rng.create ~seed:11 in
  for _trial = 1 to 20 do
    let n = 1 + Rng.int rng 200 in
    let xs = List.init n (fun _ -> 1 + Rng.int rng 1_000_000) in
    let h = H.create () in
    List.iter (H.add h) xs;
    let fxs = List.map float_of_int xs in
    List.iter
      (fun p ->
        let exact = int_of_float (Stats.percentile fxs p) in
        let est = H.percentile h p in
        if est < exact then
          Alcotest.failf "p%.0f under-reports: %d < exact %d" p est exact;
        if est > 2 * exact then
          Alcotest.failf "p%.0f beyond 2x: %d > 2 * exact %d" p est exact)
      [ 10.; 50.; 90.; 95.; 99.; 100. ]
  done

let test_hist_empty_and_singleton () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check int) "empty min" 0 (H.min_ns h);
  Alcotest.(check int) "empty max" 0 (H.max_ns h);
  Alcotest.(check (float 1e-9)) "empty mean" 0. (H.mean h);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.Histogram.percentile: empty histogram")
    (fun () -> ignore (H.p50 h));
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Stats.Histogram.add: negative value") (fun () ->
      H.add h (-1));
  H.add h 5;
  (* clamping to the observed range makes singletons exact *)
  Alcotest.(check int) "singleton p50" 5 (H.p50 h);
  Alcotest.(check int) "singleton p99" 5 (H.p99 h);
  Alcotest.(check int) "singleton min" 5 (H.min_ns h);
  Alcotest.(check int) "singleton max" 5 (H.max_ns h);
  H.add h 0;
  Alcotest.(check int) "zero lands in bucket 0" 0 (H.percentile h 50.)

let test_hist_reset () =
  let a = H.create () in
  List.iter (H.add a) [ 1; 2; 3 ];
  H.reset a;
  Alcotest.(check int) "reset count" 0 (H.count a);
  Alcotest.(check int) "reset sum" 0 (H.sum a)

let rng_int_uniform =
  QCheck.Test.make ~name:"rng int covers range" ~count:50
    QCheck.(int_range 2 64)
    (fun bound ->
      let r = Rng.create ~seed:bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 100 do
        seen.(Rng.int r bound) <- true
      done;
      Array.for_all Fun.id seen)

let () =
  Alcotest.run "lld_sim"
    [
      ( "clock",
        [
          Alcotest.test_case "charges accumulate by category" `Quick
            test_clock_charges;
          Alcotest.test_case "reset" `Quick test_clock_reset;
          Alcotest.test_case "negative charge rejected" `Quick
            test_clock_negative;
        ] );
      ( "cost",
        [
          Alcotest.test_case "calibration anchor" `Quick
            test_cost_calibration_anchor;
          Alcotest.test_case "free model is zero" `Quick test_cost_free_is_zero;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          QCheck_alcotest.to_alcotest rng_int_uniform;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "throughput" `Quick test_stats_throughput;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "log2 bucket boundaries" `Quick
            test_hist_bucket_boundaries;
          Alcotest.test_case "percentile agrees with nearest-rank" `Quick
            test_hist_percentile_agreement;
          Alcotest.test_case "empty and singleton edge cases" `Quick
            test_hist_empty_and_singleton;
          Alcotest.test_case "reset" `Quick test_hist_reset;
        ] );
    ]
