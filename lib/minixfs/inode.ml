module Blk = Lld_util.Blk

type t = {
  kind : Layout.kind;
  nlinks : int;
  size : int;
  list : Lld_core.Types.List_id.t option;
}

let free = { kind = Layout.Free; nlinks = 0; size = 0; list = None }

let read block ~index =
  let off = index * Layout.inode_bytes in
  let kind = Layout.kind_of_int (Bytes.get_uint16_le block off) in
  let nlinks = Bytes.get_uint16_le block (off + 2) in
  let size = Blk.get_u32_bytes block (off + 4) in
  let list =
    match Blk.get_u32_bytes block (off + 8) with
    | 0 -> None
    | l -> Some (Lld_core.Types.List_id.of_int l)
  in
  { kind; nlinks; size; list }

let write block ~index t =
  let off = index * Layout.inode_bytes in
  Bytes.set_uint16_le block off (Layout.kind_to_int t.kind);
  Bytes.set_uint16_le block (off + 2) t.nlinks;
  Blk.set_u32_bytes block (off + 4) t.size;
  Blk.set_u32_bytes block (off + 8)
    (match t.list with
    | None -> 0
    | Some l -> Lld_core.Types.List_id.to_int l)

let block_of_ino ino = ino / Layout.inodes_per_block
let index_of_ino ino = ino mod Layout.inodes_per_block
