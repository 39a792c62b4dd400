(* Two implementations of the Logical Disk, one client.

   The paper's §2: "LD implementations can be exchanged transparently,
   without changing applications" — here the same client function runs
   against the log-structured LLD and the journaling in-place JLD via a
   first-class module of the LD signature, then each disk crashes and
   recovers, and the same Minix file system (a functor over that
   signature) is mounted on both.

     dune exec examples/two_disks.exe *)

module Clock = Lld_sim.Clock
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Types = Lld_core.Types
module Summary = Lld_core.Summary

(* A client written once, against the signature. *)
module Client (Ld : Lld_core.Ld_intf.S) = struct
  let run lld =
    let list = Ld.new_list lld () in
    let b1 = Ld.new_block lld ~list ~pred:Summary.Head () in
    let data = Bytes.make 4096 '\000' in
    Bytes.blit_string "hello from the shared client" 0 data 0 28;
    Ld.write lld b1 data;
    (* a transactional update *)
    Ld.with_aru lld (fun aru ->
        let b2 = Ld.new_block lld ~aru ~list ~pred:(Summary.After b1) () in
        Ld.write lld ~aru b2 data;
        Ld.write lld ~aru b1 data);
    Ld.flush lld;
    Printf.printf "  %d blocks on the list, %d allocated, %.3f s virtual\n"
      (List.length (Ld.list_blocks lld list))
      (Ld.allocated_blocks lld)
      (float_of_int (Clock.now_ns (Ld.clock lld)) /. 1e9);
    list

  (* Then a crash: a committed ARU that swaps the list's tail for a new
     block, a simple delete of a second list, and an ARU still open when
     the disk goes down.  Recovery keeps the first two and sweeps the
     open ARU's block. *)
  let crash_and_recover lld list ~recover =
    let second = Ld.new_list lld () in
    ignore (Ld.new_block lld ~list:second ~pred:Summary.Head ());
    (match Ld.list_blocks lld list with
    | [ b1; b2 ] ->
      Ld.with_aru lld (fun aru ->
          Ld.delete_block lld ~aru b2;
          let b3 = Ld.new_block lld ~aru ~list ~pred:(Summary.After b1) () in
          Ld.write lld ~aru b3 (Bytes.make 4096 'c'))
    | _ -> assert false);
    Ld.delete_list lld second;
    let aru = Ld.begin_aru lld in
    ignore (Ld.new_block lld ~aru ~list ~pred:Summary.Head ());
    Ld.flush lld;
    let lld = recover () in
    Printf.printf "  recovered: list [%s], %d allocated, %d ns virtual\n"
      (String.concat "; "
         (List.map
            (fun b -> Format.asprintf "%a" Types.Block_id.pp b)
            (Ld.list_blocks lld list)))
      (Ld.allocated_blocks lld)
      (Clock.now_ns (Ld.clock lld))
end

module Lld_client = Client (Lld_core.Lld)
module Jld_client = Client (Lld_jld.Jld)

(* The Minix file system on both, through the same functor. *)
module Fs_on_jld = Lld_minixfs.Fs_generic.Make (Lld_jld.Jld)

let () =
  Printf.printf "raw LD client on LLD (log-structured):\n";
  let clock = Clock.create () in
  let disk = Disk.create ~clock Geometry.small in
  let lld = Lld_core.Lld.create disk in
  let list = Lld_client.run lld in
  Lld_client.crash_and_recover lld list ~recover:(fun () ->
      fst (Lld_core.Lld.recover disk));

  Printf.printf "raw LD client on JLD (in-place + journal):\n";
  let clock = Clock.create () in
  let disk = Disk.create ~clock Geometry.small in
  let jld = Lld_jld.Jld.create disk in
  let list = Jld_client.run jld in
  Jld_client.crash_and_recover jld list ~recover:(fun () ->
      fst (Lld_jld.Jld.recover disk));

  (* the same file-system code, two different disks underneath *)
  Printf.printf "Minix FS on LLD:  ";
  let clock = Clock.create () in
  let disk = Disk.create ~clock Geometry.small in
  let fs = Lld_minixfs.Fs.mkfs (Lld_core.Lld.create disk) in
  Lld_minixfs.Fs.mkdir fs "/d";
  Lld_minixfs.Fs.create fs "/d/x";
  Lld_minixfs.Fs.write_file fs "/d/x" ~off:0 (Bytes.of_string "on lld");
  Printf.printf "read back %S\n"
    (Bytes.to_string (Lld_minixfs.Fs.read_file fs "/d/x" ~off:0 ~len:6));

  Printf.printf "Minix FS on JLD:  ";
  let clock = Clock.create () in
  let disk = Disk.create ~clock Geometry.small in
  let fs = Fs_on_jld.Fs_impl.mkfs (Lld_jld.Jld.create disk) in
  Fs_on_jld.Fs_impl.mkdir fs "/d";
  Fs_on_jld.Fs_impl.create fs "/d/x";
  Fs_on_jld.Fs_impl.write_file fs "/d/x" ~off:0 (Bytes.of_string "on jld");
  Printf.printf "read back %S\n"
    (Bytes.to_string (Fs_on_jld.Fs_impl.read_file fs "/d/x" ~off:0 ~len:6))
