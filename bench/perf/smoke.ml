(* Smoke test of the benchmark, run by [dune runtest]: every workload at
   a tiny scale through the benchmark's own command-line contract, once
   untraced and once traced with every LLD_* environment variable the
   library reads set against the pinned configuration.  It checks that
   the runs pass their own output checks, that the last line of output
   names exactly the metrics BENCHMARK.json declares (so names and units
   cannot drift), and that the environment changes no virtual-clock or
   count result.

   Usage: smoke.exe PERF_EXE BENCHMARK_JSON *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("smoke: " ^ s))
    fmt

let hostile_env =
  [
    "LLD_GROUP_COMMIT_WINDOW=0"; "LLD_GROUP_COMMIT_BATCH=1"; "LLD_BACKEND=file";
    "LLD_FLIGHT=1"; "LLD_SCRUB_ON_MOUNT=1";
  ]

(* Run perf.exe; its exit status and the last line of its output (its
   progress lines on stderr go to the same file, ahead of that line). *)
let run perf ~env args =
  let out = Filename.temp_file ~temp_dir:"." "smoke" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env perf
      (Array.of_list (perf :: args))
      (Array.append (Array.of_list env) (Unix.environment ()))
      Unix.stdin fd fd
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let ic = open_in out in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> close_in ic);
  Sys.remove out;
  (status, !last)

let declared decl key =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member key decl))

(* the result line: exactly the four keys, and exactly [names] with their
   units as metrics *)
let check_line ~what line names =
  match Json.parse line with
  | exception Json.Parse_error e -> fail "%s: last line is not JSON (%s)" what e
  | Json.Obj fields as j ->
    let keys = List.map fst fields in
    if List.sort compare keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
      fail "%s: result keys are %s" what (String.concat "," keys);
    if Json.member "correct" j <> Json.Bool true then fail "%s: not correct" what;
    if Json.member "failed" j <> Json.Num 0. then fail "%s: failed ops" what;
    let metrics =
      match Json.member "metrics" j with Json.Obj l -> l | _ -> []
    in
    if List.length metrics <> List.length names then
      fail "%s: %d metrics printed, %d declared" what (List.length metrics)
        (List.length names);
    List.iter
      (fun (name, unit) ->
        match List.assoc_opt name metrics with
        | None -> fail "%s: declared metric %s missing" what name
        | Some m -> (
          if Json.member "unit" m <> Json.Str unit then
            fail "%s: %s has unit %s, declared %s" what name
              (Json.to_str (Json.member "unit" m))
              unit;
          match Json.member "value" m with
          | Json.Num _ -> ()
          | _ -> fail "%s: %s has no numeric value" what name))
      names
  | _ -> fail "%s: last line is not a JSON object" what

(* metrics the seed alone decides *)
let virtual_metrics =
  [ "vops_per_s"; "vop_p50_vus"; "vop_tail_vus"; "write_amp"; "space_amp" ]

let () =
  let perf, bench = (Sys.argv.(1), Sys.argv.(2)) in
  let perf =
    if Filename.is_implicit perf then Filename.concat Filename.current_dir_name perf
    else perf
  in
  let decl = Json.read_file bench in
  let e2e = declared decl "end_to_end" and layers = declared decl "per_layer" in
  let workloads =
    List.map
      (fun w -> Json.to_str (Json.member "name" w))
      (Json.to_list (Json.member "workloads" decl))
  in
  let common w =
    [ "--workload"; w; "--seed"; "3"; "--seconds"; "0"; "--scale"; "0.01" ]
  in
  List.iter
    (fun w ->
      let out = "smoke-" ^ w in
      let status, line =
        run perf ~env:[] (common w @ [ "--trace"; "0"; "--out"; out ^ "-plain" ])
      in
      if status <> Unix.WEXITED 0 then fail "%s: untraced run failed" w;
      check_line ~what:(w ^ " untraced") line e2e;
      let status, line =
        run perf ~env:hostile_env
          (common w @ [ "--trace"; "1"; "--out"; out ^ "-traced" ])
      in
      if status <> Unix.WEXITED 0 then fail "%s: traced run failed" w;
      check_line ~what:(w ^ " traced") line layers;
      let result dir = Json.read_file (Filename.concat dir (w ^ ".json")) in
      let metric j k =
        Json.member "value" (Json.member k (Json.member "end_to_end" j))
      in
      let a = result (out ^ "-plain") and b = result (out ^ "-traced") in
      List.iter
        (fun k ->
          if metric a k <> metric b k then
            fail "%s: %s changes under %s" w k (String.concat " " hostile_env))
        virtual_metrics;
      List.iter
        (fun suffix ->
          if not (Sys.file_exists (Filename.concat (out ^ "-traced") (w ^ suffix)))
          then fail "%s: no %s written" w suffix)
        [ ".trace.json"; ".layers.json" ];
      ignore (Json.read_file (Filename.concat (out ^ "-traced") (w ^ ".trace.json"))))
    workloads;
  if !failures > 0 then exit 1;
  Printf.printf "bench/perf smoke: %d workloads ok\n" (List.length workloads)
