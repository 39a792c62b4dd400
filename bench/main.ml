(* Benchmark driver: reproduces every table and figure of the paper's
   evaluation (on the virtual clock, DESIGN.md §4), then runs Bechamel
   micro-benchmarks of the same code paths in real time.

   Environment:
     FULL=1      paper-sized workloads (10,000 files, 78.125 MB file,
                 500,000 ARUs) on the 400 MB partition
     SCALE=0.2   custom workload multiplier
     MICRO=0     skip the Bechamel section *)

module Geometry = Lld_disk.Geometry
module Config = Lld_core.Config
module Lld = Lld_core.Lld
module Summary = Lld_core.Summary
module Fs = Lld_minixfs.Fs
module Setup = Lld_workload.Setup
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

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: real elapsed time of the key kernels,
   one per reproduced artifact.                                        *)

open Bechamel
open Toolkit

let bench_geom = Geometry.v ~num_segments:200 ()

(* F5 kernel: create+write+delete one small file (the meta-data path
   Figure 5 stresses), per variant. *)
let smallfile_test variant =
  let inst = Setup.make ~geom:bench_geom ~inode_count:4096 variant in
  let body = Bytes.make 1024 'x' in
  let i = ref 0 in
  Test.make
    ~name:(Printf.sprintf "f5/create+delete/%s" (Setup.variant_label variant))
    (Staged.stage (fun () ->
         incr i;
         let path = Printf.sprintf "/b%07d" !i in
         Fs.create inst.Setup.fs path;
         Fs.write_file inst.Setup.fs path ~off:0 body;
         Fs.unlink inst.Setup.fs path))

(* F6 kernel: one 64 KB overwrite (steady-state log write). *)
let largefile_test variant =
  let inst = Setup.make ~geom:bench_geom ~inode_count:1024 variant in
  let body = Bytes.make (64 * 1024) 'y' in
  Fs.create inst.Setup.fs "/big";
  Fs.write_file inst.Setup.fs "/big" ~off:0 body;
  Test.make
    ~name:(Printf.sprintf "f6/write64k/%s" (Setup.variant_label variant))
    (Staged.stage (fun () -> Fs.write_file inst.Setup.fs "/big" ~off:0 body))

(* L1 kernel: one Begin/End ARU pair. *)
let aru_test variant =
  let _, lld = Setup.make_raw ~geom:bench_geom variant in
  Test.make
    ~name:(Printf.sprintf "l1/begin-end-aru/%s" (Setup.variant_label variant))
    (Staged.stage (fun () ->
         let a = Lld.begin_aru lld in
         Lld.end_aru lld a))

(* Read kernels: cached vs shadow-versioned reads. *)
let read_test () =
  let _, lld = Setup.make_raw ~geom:bench_geom Setup.New in
  let list = Lld.new_list lld () in
  let b = Lld.new_block lld ~list ~pred:Summary.Head () in
  Lld.write lld b (Bytes.make 4096 'z');
  let aru = Lld.begin_aru lld in
  Lld.write lld ~aru b (Bytes.make 4096 'w');
  [
    Test.make ~name:"read/committed"
      (Staged.stage (fun () -> ignore (Lld.read lld b)));
    Test.make ~name:"read/shadow"
      (Staged.stage (fun () -> ignore (Lld.read lld ~aru b)));
  ]

let run_micro () =
  let tests =
    List.map smallfile_test Setup.all_variants
    @ List.map largefile_test [ Setup.Old; Setup.New ]
    @ List.map aru_test [ Setup.Old; Setup.New ]
    @ read_test ()
  in
  let grouped = Test.make_grouped ~name:"lld" tests in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name o ->
      match Analyze.OLS.estimates o with
      | Some (est :: _) -> rows := (name, est) :: !rows
      | Some [] | None -> ())
    results;
  let rows = List.sort compare !rows in
  Printf.printf
    "\nBechamel micro-benchmarks (real time on this machine, ns/op)\n";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun (name, est) -> Printf.printf "%-48s %12.1f\n" name est)
    rows;
  rows

(* The bench JSON: the experiments' tables and checks plus the
   micro-kernel timings (default BENCH.json, overridable with
   BENCH_JSON=path). *)
let emit_json ~tables ~micro =
  let path = Option.value ~default:"BENCH.json" (Sys.getenv_opt "BENCH_JSON") in
  let micro_json =
    Report.List
      (List.map
         (fun (name, ns) ->
           Report.Obj
             [ ("name", Report.String name); ("ns_per_op", Report.Float ns) ])
         micro)
  in
  let json =
    match tables with
    | Report.Obj fields -> Report.Obj (fields @ [ ("micro", micro_json) ])
    | other -> Report.Obj [ ("tables", other); ("micro", micro_json) ]
  in
  let oc = open_out path in
  output_string oc (Report.json_to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let () =
  let scale = scale_of_env () in
  let checks, tables =
    Experiment.run Format.std_formatter scale Experiment.all
  in
  let micro =
    match Sys.getenv_opt "MICRO" with
    | Some "0" -> []
    | Some _ | None -> run_micro ()
  in
  emit_json ~tables ~micro;
  exit (Experiment.exit_status checks)
