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

let fresh_disk ?(geom = small_geom) ?backend () =
  let clock = Clock.create () in
  let backend =
    match backend with Some b -> Some b | None -> default_backend geom
  in
  Disk.create ?backend ~clock geom

let fresh_lld ?(config = Config.default) ?geom () =
  let disk = fresh_disk ?geom () in
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

(* Checkpoint tables.  [tables] builds a block map and list table
   holding the given anchors, identifiers as ints: a block as [(id,
   list, successor, phys, stamp)] with [phys] a [(segment, slot)]
   pair, a list as [(id, first, last, stamp, owner)].  [dump_tables]
   shows one line per anchor that differs from a fresh one, in id
   order.  The default capacity is that of [small_geom]'s tables. *)
module Record = Lld_core.Record
module Block_map = Lld_core.Block_map
module List_table = Lld_core.List_table

let tables ?(capacity = Lld_core.Disk_layout.block_capacity small_geom)
    ?(blocks = []) ?(lists = []) () =
  let bm = Block_map.create ~capacity in
  let lt = List_table.create ~max_lists:capacity in
  List.iter
    (fun (id, member, succ, phys, stamp) ->
      let r = Block_map.anchor bm (Types.Block_id.of_int id) in
      r.Record.alloc <- true;
      r.Record.member_of <- Option.map Types.List_id.of_int member;
      r.Record.successor <- Option.map Types.Block_id.of_int succ;
      r.Record.phys <-
        Option.map (fun (seg_index, slot) -> { Record.seg_index; slot }) phys;
      r.Record.stamp <- stamp)
    blocks;
  List.iter
    (fun (id, first, last, stamp, owner) ->
      let r = List_table.anchor lt (Types.List_id.of_int id) in
      r.Record.exists <- true;
      r.Record.first <- Option.map Types.Block_id.of_int first;
      r.Record.last <- Option.map Types.Block_id.of_int last;
      r.Record.lstamp <- stamp;
      r.Record.l_owner <- Option.map Types.Aru_id.of_int owner)
    lists;
  (bm, lt)

let dump_tables (bm, lt) =
  let opt to_int = function None -> "-" | Some i -> string_of_int (to_int i) in
  let lines = ref [] in
  Block_map.iter bm (fun r ->
      if r <> Record.fresh_block r.Record.id then
        lines :=
          Printf.sprintf "b%d alloc=%b list=%s succ=%s phys=%s stamp=%d"
            (Types.Block_id.to_int r.Record.id)
            r.Record.alloc
            (opt Types.List_id.to_int r.Record.member_of)
            (opt Types.Block_id.to_int r.Record.successor)
            (match r.Record.phys with
            | None -> "-"
            | Some p -> Printf.sprintf "%d.%d" p.Record.seg_index p.Record.slot)
            r.Record.stamp
          :: !lines);
  List_table.iter lt (fun r ->
      if r <> Record.fresh_list r.Record.lid then
        lines :=
          Printf.sprintf "l%d exists=%b first=%s last=%s stamp=%d owner=%s"
            (Types.List_id.to_int r.Record.lid)
            r.Record.exists
            (opt Types.Block_id.to_int r.Record.first)
            (opt Types.Block_id.to_int r.Record.last)
            r.Record.lstamp
            (opt Types.Aru_id.to_int r.Record.l_owner)
          :: !lines);
  List.rev !lines
