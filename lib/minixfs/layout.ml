let block_bytes = 4096
let inode_bytes = 32
let inodes_per_block = block_bytes / inode_bytes
let name_max = 14
let dirent_bytes = 16
let superblock_magic = 0x4d4c4644 (* "MLFD" *)
let root_ino = 1

type kind = Free | Regular | Directory

let kind_to_int = function Free -> 0 | Regular -> 1 | Directory -> 2

let kind_of_int = function
  | 0 -> Free
  | 1 -> Regular
  | 2 -> Directory
  | n -> invalid_arg (Printf.sprintf "Layout.kind_of_int: %d" n)
