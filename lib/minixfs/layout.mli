(** On-disk layout constants of the Minix-like file system.

    The structure follows the Minix file system the paper runs on top of
    LLD (§5.1), adapted to the Logical Disk: there are no zone bitmaps
    or block pointers — every file's data blocks live on one LD list
    (paper: "MinixLLD uses one list per file"), and the inode records
    the list identifier. *)

val block_bytes : int
(** 4096, matching the logical disk. *)

val inode_bytes : int
(** 32 bytes per inode. *)

val inodes_per_block : int

val name_max : int
(** 14 characters, as in classic Minix. *)

val dirent_bytes : int
(** 16: a u16 inode number plus the name. *)

val superblock_magic : int

val root_ino : int
(** Inode 1; inode 0 is reserved as "no entry". *)

(** File kinds stored in the inode mode field. *)
type kind = Free | Regular | Directory

val kind_to_int : kind -> int
val kind_of_int : int -> kind
(** Raises [Invalid_argument] on an unknown mode. *)
