module Blk = Lld_util.Blk
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk

(* Slot layout (one logical block per slot, two slots in segment 0):
   magic u32, format version u32, epoch u64, region u8, zero padding to
   offset 20, crc32c u32 over [0, 20).  Epoch [g] lives in slot
   [g mod 2], so the two newest generations always coexist and a torn
   superblock write can only destroy the slot being replaced. *)
let magic = 0x4c4c5342 (* "LLSB" *)
let format_version = 3
let slot_count = 2
let crc_off = 20

type slot = { epoch : int; region : int }

let slot_for ~epoch = epoch mod slot_count

let slot_offset geom k =
  if k < 0 || k >= slot_count then invalid_arg "Superblock.slot_offset";
  (Disk_layout.superblock_segment * geom.Geometry.segment_bytes)
  + (k * geom.Geometry.block_bytes)

let encode geom { epoch; region } =
  let v = Blk.create geom.Geometry.block_bytes in
  Blk.set_u32 v 0 magic;
  Blk.set_u32 v 4 format_version;
  Blk.set_u64 v 8 (Int64.of_int epoch);
  Blk.set_u8 v 16 region;
  Blk.set_u32 v crc_off (Blk.crc32c ~len:crc_off v);
  v

let decode v =
  if Blk.length v < crc_off + 4 then None
  else if Blk.get_u32 v 0 <> magic || Blk.get_u32 v 4 <> format_version then None
  else if Blk.get_u32 v crc_off <> Blk.crc32c ~len:crc_off v then None
  else
    let epoch = Int64.to_int (Blk.get_u64 v 8) in
    let region = Blk.get_u8 v 16 in
    if epoch < 0 || region < 0 || region >= Disk_layout.region_count then None
    else Some { epoch; region }

let read_slot disk k =
  let geom = Disk.geometry disk in
  match
    Disk.read_view disk ~offset:(slot_offset geom k)
      ~length:geom.Geometry.block_bytes
  with
  | v -> decode v
  | exception Lld_disk.Fault.Media_error _ -> None

let write_slot disk s =
  let geom = Disk.geometry disk in
  Disk.write_view disk ~offset:(slot_offset geom (slot_for ~epoch:s.epoch))
    (encode geom s);
  (* the new generation pointer must be durable before logging resumes
     on top of it *)
  Disk.barrier disk

(* Slot 1 is read before slot 0.  The order moves the virtual clock,
   and every recorded clock and trace was taken with this order, so it
   is bound here rather than left to the unspecified evaluation order
   of tuple components. *)
let read_slots disk =
  let slot1 = read_slot disk 1 in
  let slot0 = read_slot disk 0 in
  (slot0, slot1)

let best disk =
  match read_slots disk with
  | None, None -> None
  | Some s, None | None, Some s -> Some s
  | Some a, Some b -> Some (if a.epoch >= b.epoch then a else b)

let pp ppf { epoch; region } =
  Format.fprintf ppf "epoch %d -> region %d" epoch region
