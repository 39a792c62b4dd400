(* The two-clock benchmark (see README.md): run the workloads, check
   their outputs, and print every end-to-end metric (untraced) or every
   per-layer metric (traced) by name with its unit.  The last line of
   standard output is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. *)

module W = Workloads

(* The end-to-end metrics BENCHMARK.json declares, printed on the result
   line; [reported] ones go only to the table and the --out JSON. *)
let e2e =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_us", "us");
    ("vops_per_s", "1/vs");
    ("vop_p50_vus", "vus");
    ("vop_tail_vus", "vus");
    ("write_amp", "ratio");
    ("space_amp", "ratio");
    ("top_heap_mb", "MB");
  ]

(* The real-clock tail follows other load on a shared machine too
   closely to gate on (CALIBRATION.md); fail_frac is 0 on a correct run
   and the result line carries it as "failed". *)
let reported = [ ("op_tail_us", "us"); ("fail_frac", "frac") ]

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest of p99/p95/p90 with at least ten samples beyond it in one
   round (p90 for smaller rounds).  It depends only on the op count, so
   every run of a workload at a given scale reports the same percentile. *)
let tail_pct n = if n >= 1000 then 99. else if n >= 200 then 95. else 90.

let us a p = float_of_int (W.percentile a p) /. 1e3

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* What the summary keeps of a round: its real-clock latency statistics,
   and the latency arrays of the first round only, so memory does not
   grow with the round count. *)
type kept = { r : W.round; p50_us : float; tail_us : float }

let tail_of (r : W.round) = tail_pct (Array.length r.W.lat_w)
let rate (r : W.round) = W.idiv r.W.ops r.W.wall_ns *. 1e9

(* End-to-end metrics of a workload.  Set-up time is the median over
   rounds.  The real-clock op metrics are each the best round's: other
   load on the machine only ever slows a round down, so the
   least-disturbed round is the steadiest estimate of the code's own
   cost.  Virtual and count values come from the first round [r0]
   (every round of one seed reproduces them exactly, which is checked). *)
let summarize (ks : kept list) (r0 : W.round) ~heap =
  let all f = List.map f ks in
  let best_low f = List.fold_left Float.min Float.infinity (all f) in
  [
    ("setup_s", median (all (fun k -> float_of_int k.r.W.setup_ns /. 1e9)));
    ("ops_per_s", List.fold_left Float.max 0. (all (fun k -> rate k.r)));
    ("op_p50_us", best_low (fun k -> k.p50_us));
    ("op_tail_us", best_low (fun k -> k.tail_us));
    ("vops_per_s", W.idiv r0.W.ops r0.W.vns *. 1e9);
    ("vop_p50_vus", us r0.W.lat_v 50.);
    ("vop_tail_vus", us r0.W.lat_v (tail_of r0));
    ("write_amp", r0.W.write_amp);
    ("space_amp", r0.W.space_amp);
    ("top_heap_mb", heap);
  ]

let same_virtual (a : W.round) (b : W.round) =
  a.W.vns = b.W.vns && a.W.lat_v = b.W.lat_v && a.W.write_amp = b.W.write_amp
  && a.W.space_amp = b.W.space_amp

let metrics_json names values =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         ( name,
           Json.Obj
             [ ("value", Json.Num (List.assoc name values)); ("unit", Json.Str unit) ]
         ))
       names)

let config_json (c : Lld_core.Config.t) =
  let module C = Lld_core.Config in
  let s pp v = Json.Str (Format.asprintf "%a" pp v) in
  Json.Obj
    [
      ("mode", s C.pp_mode c.C.mode);
      ("visibility", s C.pp_visibility c.C.visibility);
      ("cost", Json.Str "sparc5_70");
      ("cache_blocks", Json.int c.C.cache_blocks);
      ("readahead", Json.Bool c.C.readahead);
      ("auto_clean", Json.Bool c.C.auto_clean);
      ("clean_policy", s C.pp_clean_policy c.C.clean_policy);
      ("clean_reserve_segments", Json.int c.C.clean_reserve_segments);
      ("checkpoint_interval_segments", Json.int c.C.checkpoint_interval_segments);
      ("checkpoint_dirty_threshold", Json.int c.C.checkpoint_dirty_threshold);
      ("recovery_sweep", Json.Bool c.C.recovery_sweep);
      ("recovery_parallel", Json.Bool c.C.recovery_parallel);
      ("recovery_early_open", Json.Bool c.C.recovery_early_open);
      ("group_commit_window", Json.int c.C.group_commit_window);
      ("group_commit_batch", Json.int c.C.group_commit_batch);
      ("scrub_on_mount", Json.Bool c.C.scrub_on_mount);
    ]

(* [git rev-parse HEAD], or "unknown" outside a work tree *)
let git_rev () =
  match
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let r, w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process "git" [| "git"; "rev-parse"; "HEAD" |] Unix.stdin w
        devnull
    in
    Unix.close w;
    Unix.close devnull;
    let ic = Unix.in_channel_of_descr r in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with
  | rev -> rev
  | exception Unix.Unix_error _ -> "unknown"

type outcome = {
  o_correct : bool;
  o_attempted : int;
  o_failed : int;
  o_metrics : Json.t;
}

let run_workload ~name ~seed ~scale ~seconds ~traced ~dir ~out =
  let p = { W.seed; scale; dir; traced = false } in
  let t0 = Span.now_ns () in
  let elapsed () = float_of_int (Span.now_ns () - t0) /. 1e9 in
  let problems = ref [] in
  let problem msg = problems := msg :: !problems in
  let first = ref None in
  let keep (r : W.round) =
    let k = { r; p50_us = us r.W.lat_w 50.; tail_us = us r.W.lat_w (tail_of r) } in
    match !first with
    | None ->
      first := Some r;
      k
    | Some r0 ->
      if not (same_virtual r0 r) then
        problem "virtual-clock results differ between rounds of one seed";
      { k with r = { r with W.lat_w = [||]; lat_v = [||] } }
  in
  (* Rounds until the next one would end past [limit] (at least one);
     traced runs spend the first half untraced. *)
  let rounds_until limit p =
    let rec go acc =
      let start = elapsed () in
      Gc.compact ();
      let r = W.run name p in
      Printf.eprintf "%s%s round %d: setup %.3f s, %d ops at %.1f ops/s\n%!" name
        (if p.W.traced then " (traced)" else "")
        (List.length acc + 1)
        (float_of_int r.W.setup_ns /. 1e9)
        r.W.ops
        (rate r);
      let acc = keep r :: acc in
      let now = elapsed () in
      if now +. (now -. start) > limit then List.rev acc else go acc
    in
    go []
  in
  let plain = rounds_until (if traced then seconds /. 2. else seconds) p in
  let heap = top_heap_mb () in
  let traced_rounds =
    if traced then rounds_until seconds { p with W.traced = true } else []
  in
  let r0 = Option.get !first in
  let all = List.map (fun k -> k.r) (plain @ traced_rounds) in
  let attempted = List.fold_left (fun a (r : W.round) -> a + r.W.ops) 0 all in
  let failed_ops = List.fold_left (fun a (r : W.round) -> a + r.W.failed) 0 all in
  let bad_checks = List.fold_left (fun a (r : W.round) -> a + r.W.bad_checks) 0 all in
  List.iter (fun (r : W.round) -> List.iter problem r.W.problems) all;
  let failed = min attempted (failed_ops + bad_checks) in
  let e2e_values = summarize plain r0 ~heap in
  let layer_values =
    if not traced then []
    else
      let plain_rate = List.assoc "ops_per_s" e2e_values in
      let traced_rate =
        List.fold_left (fun a k -> Float.max a (rate k.r)) 0. traced_rounds
      in
      List.map
        (fun (k, _) ->
          if k = "trace.overhead_frac" then (k, 1. -. W.fdiv traced_rate plain_rate)
          else
            (k, median (List.map (fun t -> List.assoc k t.r.W.layers) traced_rounds)))
        W.layer_names
  in
  (* The spans of the last traced round are still in memory.  Ops that
     are root spans must have their spans' self times add up to their
     wall time; an engine client's ARU is not one (its calls interleave
     with the other clients'). *)
  let self_sum_err =
    match List.rev traced_rounds with
    | last :: _ when last.r.W.async = [] -> Some (Span.self_sum_error ())
    | _ -> None
  in
  Option.iter
    (fun e ->
      if e > 0.01 then
        problem
          (Printf.sprintf "span self times miss an op's wall time by %.2f%%"
             (100. *. e)))
    self_sum_err;
  let correct = !problems = [] && failed = 0 in
  let problems = List.rev !problems in
  let fail_frac = W.idiv failed attempted in
  let n_ops = r0.W.ops in
  Printf.printf "== %s: %d+%d rounds (untraced+traced) of %d ops, %d failed, %s\n"
    name (List.length plain) (List.length traced_rounds) n_ops failed
    (if correct then "outputs correct" else "OUTPUTS WRONG");
  List.iteri (fun i m -> if i < 10 then Printf.printf "   problem: %s\n" m) problems;
  let show (k, unit) v = Printf.printf "   %-36s %14.6g %s\n" k v unit in
  let e2e_values = ("fail_frac", fail_frac) :: e2e_values in
  List.iter
    (fun (k, unit) -> show (k, unit) (List.assoc k e2e_values))
    (e2e @ reported);
  Printf.printf "   (tail = p%.0f; %d ops per round)\n"
    (tail_of r0) n_ops;
  List.iter (fun (k, unit) -> show (k, unit) (List.assoc k layer_values))
    (if traced then W.layer_names else []);
  Option.iter
    (fun dir ->
      let path suffix = Filename.concat dir (name ^ suffix) in
      Json.to_file (path ".json")
        (Json.Obj
           [
             ("workload", Json.Str name);
             ("seed", Json.int seed);
             ("scale", Json.Num scale);
             ("seconds", Json.Num seconds);
             ("rounds", Json.int (List.length plain));
             ("traced_rounds", Json.int (List.length traced_rounds));
             ("git_rev", Json.Str (git_rev ()));
             ("backend", Json.Str r0.W.backend);
             ("config", config_json W.config);
             ("env_pinned", Json.Arr [ Json.Str "LLD_FLIGHT" ]);
             ("correct", Json.Bool correct);
             ("attempted", Json.int attempted);
             ("failed", Json.int failed);
             ("problems", Json.Arr (List.map (fun m -> Json.Str m) problems));
             ("ops", Json.int n_ops);
             ("tail_percentile", Json.Num (tail_of r0));
             ("end_to_end", metrics_json (e2e @ reported) e2e_values);
             ( "per_layer",
               if traced then metrics_json W.layer_names layer_values else Json.Null );
           ]);
      if traced then begin
        let last = List.nth traced_rounds (List.length traced_rounds - 1) in
        Span.write_chrome ~async:last.r.W.async (path ".trace.json");
        let agg = Span.aggregate () in
        Json.to_file (path ".layers.json")
          (Json.Obj
             [
               ("workload", Json.Str name);
               ("seed", Json.int seed);
               ("scale", Json.Num scale);
               ("per_layer", metrics_json W.layer_names layer_values);
               ( "span_self_sum_error",
                 match self_sum_err with Some e -> Json.Num e | None -> Json.Null );
               ( "spans",
                 Json.Obj
                   (List.map
                      (fun s ->
                        let a = agg s in
                        ( s,
                          Json.Obj
                            [
                              ("calls", Json.int a.Span.calls);
                              ("self_us", Json.Num (float_of_int a.Span.self_w /. 1e3));
                              ("self_vus", Json.Num (float_of_int a.Span.self_v /. 1e3));
                              ("total_us", Json.Num (float_of_int a.Span.total_w /. 1e3));
                            ] ))
                      (Span.names ())) );
             ])
      end)
    out;
  {
    o_correct = correct;
    o_attempted = attempted;
    o_failed = failed;
    o_metrics =
      (if traced then metrics_json W.layer_names layer_values
       else metrics_json e2e e2e_values);
  }

let () =
  let workload = ref "all" and seed = ref 1 and seconds = ref 0. in
  let trace = ref 0 and scale = ref 1. and out = ref None in
  let dir = ref Filename.current_dir_name in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  one of " ^ String.concat ", " W.all ^ ", or all (default)" );
      ("--seed", Arg.Set_int seed, "N  generator seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  repeat rounds while another fits in S seconds (default: one round)" );
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run, per-layer metrics");
      ("--traced", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
      ("--scale", Arg.Set_float scale, "F  op-count multiplier (default 1)");
      ("--out", Arg.String (fun d -> out := Some d), "DIR  write JSON results here");
      ( "--dir",
        Arg.Set_string dir,
        "DIR  where the file backend's (unlinked) image lives (default .)" );
    ]
  in
  let usage = "perf.exe [options]: the two-clock benchmark" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let bad msg =
    prerr_endline ("perf.exe: " ^ msg);
    exit 2
  in
  let names =
    if !workload = "all" then W.all
    else if List.mem !workload W.all then [ !workload ]
    else bad ("unknown workload " ^ !workload)
  in
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if not (!scale > 0.) then bad "--scale must be positive";
  if !seconds < 0. then bad "--seconds must not be negative";
  Option.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    !out;
  (* LLD_FLIGHT=1 would attach a flight recorder to every instance; the
     other LLD_* variables are overridden by the explicit config and
     backends *)
  Unix.putenv "LLD_FLIGHT" "0";
  let results =
    List.map
      (fun name ->
        ( name,
          run_workload ~name ~seed:!seed ~scale:!scale ~seconds:!seconds
            ~traced:(!trace = 1) ~dir:!dir ~out:!out ))
      names
  in
  let correct = List.for_all (fun (_, o) -> o.o_correct) results in
  let total f = List.fold_left (fun a (_, o) -> a + f o) 0 results in
  let metrics =
    match results with
    | [ (_, o) ] -> o.o_metrics
    | _ ->
      Json.Obj
        (List.concat_map
           (fun (name, o) ->
             match o.o_metrics with
             | Json.Obj l -> List.map (fun (k, v) -> (name ^ "/" ^ k, v)) l
             | _ -> [])
           results)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.int (total (fun o -> o.o_attempted)));
            ("failed", Json.int (total (fun o -> o.o_failed)));
            ("metrics", metrics);
          ]));
  exit (if correct then 0 else 1)
