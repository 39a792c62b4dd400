(* Benchmark driver: reproduces every table and figure of the paper's
   evaluation on the virtual clock (DESIGN.md §4), judges each
   experiment's declared checks, and writes the bench JSON (default
   BENCH.json, overridable with BENCH_JSON=path).  Real-clock
   measurements live in bench/perf.

   Environment:
     FULL=1      paper-sized workloads (10,000 files, 78.125 MB file,
                 500,000 ARUs) on the 400 MB partition
     SCALE=0.2   custom workload multiplier *)

module Experiment = Lld_harness.Experiment
module Report = Lld_harness.Report

let scale_of_env () =
  match Sys.getenv_opt "FULL" with
  | Some "1" -> Experiment.full
  | Some _ | None -> (
    match Sys.getenv_opt "SCALE" with
    | None -> Experiment.quick
    | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0. -> Experiment.scaled f
      | Some _ | None ->
        prerr_endline "SCALE must be a positive float; using quick scale";
        Experiment.quick))

let () =
  let scale = scale_of_env () in
  let checks, json = Experiment.run Format.std_formatter scale Experiment.all in
  let path = Option.value ~default:"BENCH.json" (Sys.getenv_opt "BENCH_JSON") in
  let oc = open_out path in
  output_string oc (Report.json_to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path;
  exit (Experiment.exit_status checks)
