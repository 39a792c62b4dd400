(* Shared fixtures for the test suites. *)

module Clock = Lld_sim.Clock
module Geometry = Lld_disk.Geometry
module Timing = Lld_disk.Timing
module Fault = Lld_disk.Fault
module Disk = Lld_disk.Disk
module Types = Lld_core.Types
module Config = Lld_core.Config
module Lld = Lld_core.Lld
module Errors = Lld_core.Errors
module Summary = Lld_core.Summary
module Setup = Lld_workload.Setup

let block_bytes = 4096

(* A small partition (16 MB) so formatting and recovery scans stay fast
   in unit tests. *)
let small_geom = Geometry.small

(* Tests default to the in-memory store, but the whole suite can be
   pointed at real file images with LLD_BACKEND=file (the CI job). *)
let default_backend geom =
  Lld_disk.Backend.of_env ~size:(Geometry.total_bytes geom) ()

let fresh_disk ?(geom = small_geom) ?fault ?backend () =
  let clock = Clock.create () in
  let backend =
    match backend with Some b -> Some b | None -> default_backend geom
  in
  Disk.create ?fault ?backend ~clock geom

let fresh_lld ?(config = Config.default) ?geom ?fault () =
  let disk = fresh_disk ?geom ?fault () in
  let lld = Lld.create ~config disk in
  (disk, lld)

(* A block-sized payload recognisable by its tag. *)
let block_data tag =
  let b = Bytes.make block_bytes '\000' in
  let s = Printf.sprintf "payload-%d-" tag in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

let data_tag b =
  match String.index_opt (Bytes.to_string b) '\000' with
  | Some i -> Bytes.sub_string b 0 i
  | None -> Bytes.to_string b

let check_data msg expected actual =
  Alcotest.(check string) msg (data_tag expected) (data_tag actual)

let new_list lld = Lld.new_list lld ()

let append_block ?aru lld list =
  let pred =
    match Lld.list_blocks lld ?aru list with
    | [] -> Summary.Head
    | blocks -> Summary.After (List.nth blocks (List.length blocks - 1))
  in
  Lld.new_block lld ?aru ~list ~pred ()

let block_ids = Alcotest.testable (Fmt.Dump.list Types.Block_id.pp)
    (fun a b -> List.equal Types.Block_id.equal a b)

let crash_and_recover ?config disk =
  match Lld.recover ?config disk with lld, report -> (lld, report)
