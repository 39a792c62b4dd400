module Blk = Lld_util.Blk
module Lru = Lld_util.Lru
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Layout = Lld_minixfs.Layout
module Dirent = Lld_minixfs.Dirent

exception File_not_found of string
exception File_exists of string
exception No_space

let bb = Layout.block_bytes
let magic = 0x4d435453 (* "MCTS": Minix ClassicTanenbaum-Style *)
let inode_bytes = 64
let inodes_per_block = bb / inode_bytes
let ptrs_per_block = bb / 4
let direct_zones = 7
let bits_per_block = bb * 8
let root_ino = 1
let data_cache_limit = 64

(* In-core geometry of the on-disk layout, derived from the superblock. *)
type shape = {
  inode_count : int;
  inode_bitmap_first : int;
  inode_bitmap_blocks : int;
  zone_bitmap_first : int;
  zone_bitmap_blocks : int;
  inode_table_first : int;
  inode_table_blocks : int;
  first_data : int;
  data_zones : int;
}

type t = {
  disk : Disk.t;
  shape : shape;
  inode_bitmap : Bytes.t;
  zone_bitmap : Bytes.t;
  cache : bytes Lru.t; (* clean blocks only *)
  dirty : (int, bytes) Hashtbl.t; (* write-back data blocks *)
}

let disk t = t.disk

(* ------------------------------------------------------------------ *)
(* Raw block access: synchronous meta, write-back data                 *)

let read_block t b =
  match Hashtbl.find_opt t.dirty b with
  | Some data -> Bytes.copy data
  | None -> (
    match Lru.find t.cache b with
    | Some data -> Bytes.copy data
    | None ->
      let data = Disk.read t.disk ~offset:(b * bb) ~length:bb in
      Lru.add t.cache b (Bytes.copy data);
      data)

(* Conventional file systems write meta-data through to the disk, in
   update order (paper §3: "costly synchronous writes"). *)
let write_meta t b data =
  Lru.add t.cache b (Bytes.copy data);
  Hashtbl.remove t.dirty b;
  Disk.write t.disk ~offset:(b * bb) data

let flush_data t =
  let blocks = Hashtbl.fold (fun b data acc -> (b, data) :: acc) t.dirty [] in
  List.iter
    (fun (b, data) ->
      Disk.write t.disk ~offset:(b * bb) data;
      Lru.add t.cache b data)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) blocks);
  Hashtbl.reset t.dirty

let write_data t b data =
  Hashtbl.replace t.dirty b (Bytes.copy data);
  Lru.remove t.cache b;
  if Hashtbl.length t.dirty >= data_cache_limit then flush_data t

let flush t = flush_data t

(* ------------------------------------------------------------------ *)
(* Bitmaps                                                             *)

let bit_get bm i = Char.code (Bytes.get bm (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set bm i v =
  let c = Char.code (Bytes.get bm (i / 8)) in
  let c = if v then c lor (1 lsl (i mod 8)) else c land lnot (1 lsl (i mod 8)) in
  Bytes.set bm (i / 8) (Char.chr c)

(* Flip one bit and synchronously rewrite the bitmap block that holds
   it. *)
let bitmap_update t ~bitmap ~first_block i v =
  bit_set bitmap i v;
  let blk = first_block + (i / bits_per_block) in
  let off = i / bits_per_block * (bb * 8) / 8 in
  write_meta t blk (Bytes.sub bitmap off bb)

let bitmap_alloc bitmap limit =
  let rec scan i = if i >= limit then None else if bit_get bitmap i then scan (i + 1) else Some i in
  scan 0

(* ------------------------------------------------------------------ *)
(* Inodes                                                              *)

type inode = {
  mutable kind : int; (* 0 free, 1 regular, 2 directory *)
  mutable nlinks : int;
  mutable size : int;
  zones : int array; (* direct ++ [indirect; dindirect]; 0 = none *)
}

let fresh_inode () =
  { kind = 0; nlinks = 0; size = 0; zones = Array.make (direct_zones + 2) 0 }

let inode_block t ino = t.shape.inode_table_first + (ino / inodes_per_block)
let inode_offset ino = ino mod inodes_per_block * inode_bytes

let read_inode t ino =
  let data = read_block t (inode_block t ino) in
  let off = inode_offset ino in
  let i = fresh_inode () in
  i.kind <- Bytes.get_uint16_le data off;
  i.nlinks <- Bytes.get_uint16_le data (off + 2);
  i.size <- Blk.get_u32_bytes data (off + 4);
  for z = 0 to direct_zones + 1 do
    i.zones.(z) <- Blk.get_u32_bytes data (off + 8 + (z * 4))
  done;
  i

let write_inode t ino (i : inode) =
  let blk = inode_block t ino in
  let data = read_block t blk in
  let off = inode_offset ino in
  Bytes.set_uint16_le data off i.kind;
  Bytes.set_uint16_le data (off + 2) i.nlinks;
  Blk.set_u32_bytes data (off + 4) i.size;
  for z = 0 to direct_zones + 1 do
    Blk.set_u32_bytes data (off + 8 + (z * 4)) i.zones.(z)
  done;
  write_meta t blk data

let alloc_inode t =
  match bitmap_alloc t.inode_bitmap t.shape.inode_count with
  | None -> raise No_space
  | Some ino ->
    bitmap_update t ~bitmap:t.inode_bitmap
      ~first_block:t.shape.inode_bitmap_first ino true;
    ino

let free_inode t ino =
  bitmap_update t ~bitmap:t.inode_bitmap
    ~first_block:t.shape.inode_bitmap_first ino false

(* ------------------------------------------------------------------ *)
(* Zones                                                               *)

let alloc_zone t =
  match bitmap_alloc t.zone_bitmap t.shape.data_zones with
  | None -> raise No_space
  | Some z ->
    bitmap_update t ~bitmap:t.zone_bitmap ~first_block:t.shape.zone_bitmap_first
      z true;
    t.shape.first_data + z

let free_zone t blk =
  let z = blk - t.shape.first_data in
  bitmap_update t ~bitmap:t.zone_bitmap ~first_block:t.shape.zone_bitmap_first z
    false

(* Map a file block index to its disk block, optionally allocating the
   zone (and any indirect blocks) on the way.  Returns 0 when the block
   does not exist and [alloc] is false. *)
let rec zone_of t (i : inode) ~ino ~index ~alloc =
  if index < direct_zones then begin
    if i.zones.(index) = 0 && alloc then begin
      i.zones.(index) <- alloc_zone t;
      write_inode t ino i
    end;
    i.zones.(index)
  end
  else if index < direct_zones + ptrs_per_block then
    indirect_lookup t i ~ino ~slot:direct_zones
      ~offset:(index - direct_zones) ~alloc
  else begin
    let index = index - direct_zones - ptrs_per_block in
    if index >= ptrs_per_block * ptrs_per_block then
      invalid_arg "Classic: file too large";
    (* double indirect: first resolve the inner indirect block *)
    let outer = indirect_block t i ~ino ~slot:(direct_zones + 1) ~alloc in
    if outer = 0 then 0
    else begin
      let data = read_block t outer in
      let inner_idx = index / ptrs_per_block in
      let inner = Blk.get_u32_bytes data (inner_idx * 4) in
      let inner =
        if inner = 0 && alloc then begin
          let z = alloc_zone t in
          Blk.set_u32_bytes data (inner_idx * 4) z;
          write_meta t outer data;
          z
        end
        else inner
      in
      if inner = 0 then 0
      else begin
        let leaf = read_block t inner in
        let off = index mod ptrs_per_block * 4 in
        let z = Blk.get_u32_bytes leaf off in
        if z = 0 && alloc then begin
          let z = alloc_zone t in
          Blk.set_u32_bytes leaf off z;
          write_meta t inner leaf;
          z
        end
        else z
      end
    end
  end

and indirect_block t (i : inode) ~ino ~slot ~alloc =
  if i.zones.(slot) = 0 && alloc then begin
    i.zones.(slot) <- alloc_zone t;
    write_meta t i.zones.(slot) (Bytes.make bb '\000');
    write_inode t ino i
  end;
  i.zones.(slot)

and indirect_lookup t (i : inode) ~ino ~slot ~offset ~alloc =
  let blk = indirect_block t i ~ino ~slot ~alloc in
  if blk = 0 then 0
  else begin
    let data = read_block t blk in
    let z = Blk.get_u32_bytes data (offset * 4) in
    if z = 0 && alloc then begin
      let z = alloc_zone t in
      Blk.set_u32_bytes data (offset * 4) z;
      write_meta t blk data;
      z
    end
    else z
  end

let iter_zones t (i : inode) f =
  let blocks = (i.size + bb - 1) / bb in
  for index = 0 to blocks - 1 do
    let z = zone_of t i ~ino:0 ~index ~alloc:false in
    if z <> 0 then f z
  done;
  (* indirect blocks themselves *)
  if i.zones.(direct_zones) <> 0 then f i.zones.(direct_zones);
  if i.zones.(direct_zones + 1) <> 0 then begin
    let outer = i.zones.(direct_zones + 1) in
    let data = read_block t outer in
    for k = 0 to ptrs_per_block - 1 do
      let inner = Blk.get_u32_bytes data (k * 4) in
      if inner <> 0 then f inner
    done;
    f outer
  end

(* ------------------------------------------------------------------ *)
(* File I/O                                                            *)

let file_read t (i : inode) ~off ~len =
  let len = max 0 (min len (i.size - off)) in
  let out = Bytes.make len '\000' in
  let pos = ref off in
  while !pos < off + len do
    let index = !pos / bb in
    let boff = !pos mod bb in
    let n = min (bb - boff) (off + len - !pos) in
    let z = zone_of t i ~ino:0 ~index ~alloc:false in
    if z <> 0 then Bytes.blit (read_block t z) boff out (!pos - off) n;
    pos := !pos + n
  done;
  out

let file_write t (i : inode) ~ino ~off data =
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let index = abs / bb in
    let boff = abs mod bb in
    let n = min (bb - boff) (len - !pos) in
    let z = zone_of t i ~ino ~index ~alloc:true in
    let blk = if n = bb then Bytes.sub data !pos bb else read_block t z in
    if n <> bb then Bytes.blit data !pos blk boff n;
    write_data t z blk;
    pos := !pos + n
  done;
  if off + len > i.size then begin
    i.size <- off + len;
    write_inode t ino i
  end

(* ------------------------------------------------------------------ *)
(* The root directory                                                  *)

let dir_entries t =
  let root = read_inode t root_ino in
  let data = file_read t root ~off:0 ~len:root.size in
  let acc = ref [] in
  let off = ref 0 in
  while !off + Layout.dirent_bytes <= Bytes.length data do
    (match Dirent.read data ~off:!off with
    | Some e -> acc := (e, !off) :: !acc
    | None -> ());
    off := !off + Layout.dirent_bytes
  done;
  List.rev !acc

let dir_lookup t name =
  List.find_opt (fun ((e : Dirent.t), _) -> e.Dirent.name = name) (dir_entries t)

let dir_add t name ino =
  let root = read_inode t root_ino in
  (* first hole, else append *)
  let data = file_read t root ~off:0 ~len:root.size in
  let rec hole off =
    if off + Layout.dirent_bytes > Bytes.length data then root.size
    else if Dirent.read data ~off = None then off
    else hole (off + Layout.dirent_bytes)
  in
  let off = hole 0 in
  let buf = Bytes.make Layout.dirent_bytes '\000' in
  Dirent.write buf ~off:0 { Dirent.ino; name };
  file_write t root ~ino:root_ino ~off buf

let dir_remove t name =
  match dir_lookup t name with
  | None -> raise (File_not_found name)
  | Some (_, off) ->
    let root = read_inode t root_ino in
    file_write t root ~ino:root_ino ~off (Bytes.make Layout.dirent_bytes '\000')

(* ------------------------------------------------------------------ *)
(* Formatting and mounting                                             *)

let superblock_layout ~total_blocks ~inode_count =
  let inode_bitmap_blocks = ((inode_count + bits_per_block - 1) / bits_per_block) in
  let inode_table_blocks =
    (inode_count + inodes_per_block - 1) / inodes_per_block
  in
  (* the zone bitmap must cover what remains after all fixed areas; one
     extra block of slack keeps the arithmetic simple *)
  let fixed_guess = 1 + inode_bitmap_blocks + inode_table_blocks in
  let zone_bitmap_blocks =
    ((total_blocks - fixed_guess + bits_per_block - 1) / bits_per_block) + 1
  in
  let inode_bitmap_first = 1 in
  let zone_bitmap_first = inode_bitmap_first + inode_bitmap_blocks in
  let inode_table_first = zone_bitmap_first + zone_bitmap_blocks in
  let first_data = inode_table_first + inode_table_blocks in
  {
    inode_count;
    inode_bitmap_first;
    inode_bitmap_blocks;
    zone_bitmap_first;
    zone_bitmap_blocks;
    inode_table_first;
    inode_table_blocks;
    first_data;
    data_zones = total_blocks - first_data;
  }

let encode_superblock shape =
  let b = Bytes.make bb '\000' in
  Blk.set_u32_bytes b 0 magic;
  Blk.set_u32_bytes b 4 shape.inode_count;
  Blk.set_u32_bytes b 8 shape.first_data;
  Blk.set_u32_bytes b 12 shape.data_zones;
  b

let make disk shape =
  {
    disk;
    shape;
    inode_bitmap =
      Bytes.make (shape.inode_bitmap_blocks * bb) '\000';
    zone_bitmap = Bytes.make (shape.zone_bitmap_blocks * bb) '\000';
    cache = Lru.create ~capacity:256;
    dirty = Hashtbl.create 64;
  }

let mkfs ?(inode_count = 4096) disk =
  let geom = Disk.geometry disk in
  let total_blocks = Geometry.total_bytes geom / bb in
  let shape = superblock_layout ~total_blocks ~inode_count in
  let t = make disk shape in
  Disk.write disk ~offset:0 (encode_superblock shape);
  (* zero the bitmap and inode-table areas (the disk may be reused) *)
  let zero = Bytes.make bb '\000' in
  for b = shape.inode_bitmap_first to shape.first_data - 1 do
    Disk.write disk ~offset:(b * bb) zero
  done;
  (* inodes 0 (reserved) and 1 (root) *)
  bitmap_update t ~bitmap:t.inode_bitmap ~first_block:shape.inode_bitmap_first 0
    true;
  bitmap_update t ~bitmap:t.inode_bitmap ~first_block:shape.inode_bitmap_first
    root_ino true;
  let root = fresh_inode () in
  root.kind <- 2;
  root.nlinks <- 1;
  write_inode t root_ino root;
  t

let mount disk =
  let geom = Disk.geometry disk in
  let total_blocks = Geometry.total_bytes geom / bb in
  let sb = Disk.read disk ~offset:0 ~length:bb in
  if Blk.get_u32_bytes sb 0 <> magic then
    invalid_arg "Classic.mount: no classic-Minix superblock";
  let inode_count = Blk.get_u32_bytes sb 4 in
  let shape = superblock_layout ~total_blocks ~inode_count in
  let t = make disk shape in
  for b = 0 to shape.inode_bitmap_blocks - 1 do
    Bytes.blit
      (Disk.read disk ~offset:((shape.inode_bitmap_first + b) * bb) ~length:bb)
      0 t.inode_bitmap (b * bb) bb
  done;
  for b = 0 to shape.zone_bitmap_blocks - 1 do
    Bytes.blit
      (Disk.read disk ~offset:((shape.zone_bitmap_first + b) * bb) ~length:bb)
      0 t.zone_bitmap (b * bb) bb
  done;
  t

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

let resolve t name =
  match dir_lookup t name with
  | None -> raise (File_not_found name)
  | Some ((e : Dirent.t), _) -> e.Dirent.ino

let create t name =
  if not (Dirent.valid_name name) then invalid_arg "Classic.create: bad name";
  if dir_lookup t name <> None then raise (File_exists name);
  let ino = alloc_inode t in
  let i = fresh_inode () in
  i.kind <- 1;
  i.nlinks <- 1;
  write_inode t ino i;
  dir_add t name ino

let unlink t name =
  let ino = resolve t name in
  let i = read_inode t ino in
  dir_remove t name;
  iter_zones t i (fun z -> free_zone t z);
  write_inode t ino (fresh_inode ());
  free_inode t ino

let write_file t name ~off data =
  let ino = resolve t name in
  let i = read_inode t ino in
  file_write t i ~ino ~off data

let read_file t name ~off ~len =
  let ino = resolve t name in
  file_read t (read_inode t ino) ~off ~len

type stat = { size : int; blocks : int }

let stat t name =
  let i = read_inode t (resolve t name) in
  { size = i.size; blocks = (i.size + bb - 1) / bb }

let list t =
  List.map (fun ((e : Dirent.t), _) -> e.Dirent.name) (dir_entries t)
  |> List.sort String.compare
