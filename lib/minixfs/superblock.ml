module Blk = Lld_util.Blk

type t = {
  inode_count : int;
  inode_list : Lld_core.Types.List_id.t;
  root_ino : int;
}

let encode t =
  let b = Bytes.make Layout.block_bytes '\000' in
  Blk.set_u32_bytes b 0 Layout.superblock_magic;
  Blk.set_u32_bytes b 4 1 (* version *);
  Blk.set_u32_bytes b 8 t.inode_count;
  Blk.set_u32_bytes b 12 (Lld_core.Types.List_id.to_int t.inode_list);
  Blk.set_u32_bytes b 16 t.root_ino;
  Blk.set_u32_bytes b 20 Layout.block_bytes;
  b

let decode b =
  if Bytes.length b <> Layout.block_bytes then
    raise (Lld_core.Errors.Corrupt "superblock: wrong block size");
  if Blk.get_u32_bytes b 0 <> Layout.superblock_magic then
    raise (Lld_core.Errors.Corrupt "superblock: bad magic");
  if Blk.get_u32_bytes b 20 <> Layout.block_bytes then
    raise (Lld_core.Errors.Corrupt "superblock: block size mismatch");
  {
    inode_count = Blk.get_u32_bytes b 8;
    inode_list = Lld_core.Types.List_id.of_int (Blk.get_u32_bytes b 12);
    root_ino = Blk.get_u32_bytes b 16;
  }
