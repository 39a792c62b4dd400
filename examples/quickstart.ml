(* Quickstart: the raw Logical Disk interface with atomic recovery
   units.

     dune exec examples/quickstart.exe

   Creates a logical disk on a simulated partition, groups several
   operations in one ARU, crashes the machine at an inconvenient moment,
   and shows that recovery is all-or-nothing. *)

module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Clock = Lld_sim.Clock
module Lld = Lld_core.Lld
module Summary = Lld_core.Summary
module Recovery = Lld_core.Recovery

let block_of_string s =
  let b = Bytes.make 4096 '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

let string_of_block b =
  match Bytes.index_opt b '\000' with
  | Some i -> Bytes.sub_string b 0 i
  | None -> Bytes.to_string b

let () =
  (* a 16 MB simulated partition with 1996 disk mechanics *)
  let clock = Clock.create () in
  let disk = Disk.create ~clock Geometry.small in
  let lld = Lld.create disk in

  (* --- simple operations: each is atomic by itself ------------------ *)
  let list = Lld.new_list lld () in
  let b1 = Lld.new_block lld ~list ~pred:Summary.Head () in
  Lld.write lld b1 (block_of_string "hello from block 1");
  Lld.flush lld;
  Printf.printf "simple write:   %S\n" (string_of_block (Lld.read lld b1));

  (* --- an ARU groups several operations ----------------------------- *)
  let aru = Lld.begin_aru lld in
  Lld.write lld ~aru b1 (block_of_string "updated inside the ARU");
  let b2 = Lld.new_block lld ~aru ~list ~pred:(Summary.After b1) () in
  Lld.write lld ~aru b2 (block_of_string "a second block, same ARU");
  (* isolation: the simple stream still sees the old state (option 3) *)
  Printf.printf "before commit:  %S (simple view)\n"
    (string_of_block (Lld.read lld b1));
  Lld.end_aru lld aru;
  Lld.flush lld;
  Printf.printf "after commit:   %S + %S\n"
    (string_of_block (Lld.read lld b1))
    (string_of_block (Lld.read lld b2));

  (* --- crash in the middle of another ARU --------------------------- *)
  let aru = Lld.begin_aru lld in
  Lld.write lld ~aru b1 (block_of_string "doomed update 1");
  Lld.write lld ~aru b2 (block_of_string "doomed update 2");
  (* power fails before EndARU reaches the disk *)
  Disk.crash disk;
  Printf.printf "power failure!\n";

  let lld, report = Lld.recover disk in
  Format.printf "recovery: %a@." Recovery.pp_report report;
  Printf.printf "after recovery: %S + %S (the doomed ARU left no trace)\n"
    (string_of_block (Lld.read lld b1))
    (string_of_block (Lld.read lld b2));
  Printf.printf "virtual time elapsed: %.3f s\n"
    (float_of_int (Clock.now_ns clock) /. 1e9)
