module Blk = Lld_util.Blk
module Geometry = Lld_disk.Geometry

(* On-disk segment format v3 (DESIGN.md §5.13).  Data slots grow from
   the front; at the back sit, in order:

     [summary entries][slot CRC table: u32 per slot][32 B header]

   Trailing header: magic u32, seq u64, summary_len u32, entry_count
   u32, slots_used u32, meta CRC32c u32 (over summary + CRC table +
   header prefix, i.e. [summary_off, header+24)), 4 B zero pad.

   v2 checksummed the whole image with one hash64 — every seal and
   every parse paid a full-segment pass.  v3 checksums each data slot
   separately (CRC32c), so parse touches only the meta region, torn
   writes are still detected (the meta region sits at the end, so a
   persisted prefix never carries a matching meta CRC for the new
   content), and single-slot media rot is pinpointed — and repaired —
   per block ([lld scrub]). *)
let header_bytes = 32
let magic = 0x4c4c5333 (* "LLS3" *)
let slot_crc_bytes = 4

type scope = Simple_scope | Aru_scope of Types.Aru_id.t

type t = {
  geom : Geometry.t;
  seq : int;
  disk_index : int;
  image : Blk.t; (* data slots are blitted here as they arrive *)
  slot_of : (int, int * scope) Hashtbl.t; (* block id -> current slot *)
  mutable slots_used : int;
  mutable entries_rev : Summary.t list;
  mutable entry_count : int;
  mutable summary_bytes : int;
}

let create geom ~seq ~disk_index =
  {
    geom;
    seq;
    disk_index;
    image = Blk.create geom.Geometry.segment_bytes;
    slot_of = Hashtbl.create 64;
    slots_used = 0;
    entries_rev = [];
    entry_count = 0;
    summary_bytes = 0;
  }

let seq t = t.seq
let disk_index t = t.disk_index
let is_empty t = t.slots_used = 0 && t.entry_count = 0
let slots_used t = t.slots_used
let entry_count t = t.entry_count

(* every slot costs its block plus one CRC-table entry *)
let has_room t ~data_blocks ~entry_bytes =
  let data =
    (t.slots_used + data_blocks) * (t.geom.Geometry.block_bytes + slot_crc_bytes)
  in
  data + t.summary_bytes + entry_bytes + header_bytes
  <= t.geom.Geometry.segment_bytes

let slot_of_block t block =
  Option.map fst (Hashtbl.find_opt t.slot_of (Types.Block_id.to_int block))

let scope_equal a b =
  match (a, b) with
  | Simple_scope, Simple_scope -> true
  | Aru_scope x, Aru_scope y -> Types.Aru_id.equal x y
  | (Simple_scope | Aru_scope _), _ -> false

let put_block t ~scope ~allow_cross_scope block data =
  let bb = t.geom.Geometry.block_bytes in
  if Blk.length data <> bb then
    invalid_arg "Segment.put_block: data must be exactly one block";
  let key = Types.Block_id.to_int block in
  let reusable =
    match Hashtbl.find_opt t.slot_of key with
    | Some (slot, prev) when allow_cross_scope || scope_equal prev scope ->
      Some slot
    | Some _ | None -> None
  in
  let slot =
    match reusable with
    | Some slot -> slot
    | None ->
      if not (has_room t ~data_blocks:1 ~entry_bytes:0) then
        invalid_arg "Segment.put_block: no room";
      let slot = t.slots_used in
      t.slots_used <- slot + 1;
      slot
  in
  Hashtbl.replace t.slot_of key (slot, scope);
  Blk.blit data 0 t.image (slot * bb) bb;
  slot

(* A view into the open segment's buffer — valid until the next
   [put_block] to the same slot or the segment is discarded. *)
let read_slot t ~slot =
  if slot < 0 || slot >= t.slots_used then invalid_arg "Segment.read_slot";
  let bb = t.geom.Geometry.block_bytes in
  Blk.sub t.image (slot * bb) bb

let add_entry t entry =
  let size = Summary.encoded_size entry in
  if not (has_room t ~data_blocks:0 ~entry_bytes:size) then
    invalid_arg "Segment.add_entry: no room";
  t.entries_rev <- entry :: t.entries_rev;
  t.entry_count <- t.entry_count + 1;
  t.summary_bytes <- t.summary_bytes + size

let entries t = List.rev t.entries_rev

let crc_table_off geom ~slots_used =
  geom.Geometry.segment_bytes - header_bytes - (slots_used * slot_crc_bytes)

let meta_off geom ~slots_used ~summary_len =
  crc_table_off geom ~slots_used - summary_len

(* One serialization pass straight into the image: the summary entries
   are encoded through a fixed writer over the meta region, then the
   slot CRCs and header are filled in place.  The returned view is the
   open buffer itself — it is immutable from here on (the caller seals
   exactly once and discards the builder). *)
let seal t =
  let total = t.geom.Geometry.segment_bytes in
  let bb = t.geom.Geometry.block_bytes in
  let table_off = crc_table_off t.geom ~slots_used:t.slots_used in
  let summary_off =
    meta_off t.geom ~slots_used:t.slots_used ~summary_len:t.summary_bytes
  in
  let w = Blk.Writer.of_view (Blk.sub t.image summary_off t.summary_bytes) in
  List.iter (Summary.encode w) (entries t);
  assert (Blk.Writer.length w = t.summary_bytes);
  for slot = 0 to t.slots_used - 1 do
    Blk.set_u32 t.image
      (table_off + (slot * slot_crc_bytes))
      (Blk.crc32c ~pos:(slot * bb) ~len:bb t.image)
  done;
  let h = total - header_bytes in
  Blk.set_u32 t.image h magic;
  Blk.set_u32 t.image (h + 4) (t.seq land 0xffffffff);
  Blk.set_u32 t.image (h + 8) (t.seq lsr 32);
  Blk.set_u32 t.image (h + 12) t.summary_bytes;
  Blk.set_u32 t.image (h + 16) t.entry_count;
  Blk.set_u32 t.image (h + 20) t.slots_used;
  Blk.set_u32 t.image (h + 24)
    (Blk.crc32c ~pos:summary_off ~len:(h + 24 - summary_off) t.image);
  t.image

type parsed = {
  p_seq : int;
  p_entries : Summary.t list;
  p_slots_used : int;
  p_image : Blk.t;
}

let parse geom image =
  let total = geom.Geometry.segment_bytes in
  if Blk.length image <> total then invalid_arg "Segment.parse: bad image size";
  let h = total - header_bytes in
  if Blk.get_u32 image h <> magic then None
  else begin
    let summary_len = Blk.get_u32 image (h + 12) in
    let entry_count = Blk.get_u32 image (h + 16) in
    let slots_used = Blk.get_u32 image (h + 20) in
    let max_meta = total - header_bytes in
    if
      slots_used < 0
      || slots_used > total / geom.Geometry.block_bytes
      || summary_len < 0
      || (slots_used * slot_crc_bytes) + summary_len > max_meta
    then None
    else begin
      let summary_off = meta_off geom ~slots_used ~summary_len in
      if slots_used * geom.Geometry.block_bytes > summary_off then None
      else if
        Blk.get_u32 image (h + 24)
        <> Blk.crc32c ~pos:summary_off ~len:(h + 24 - summary_off) image
      then None
      else begin
        let seq =
          Blk.get_u32 image (h + 4) lor (Blk.get_u32 image (h + 8) lsl 32)
        in
        let r = Blk.Reader.of_view ~pos:summary_off ~len:summary_len image in
        let rec decode_all n acc =
          if n = 0 then List.rev acc
          else decode_all (n - 1) (Summary.decode r :: acc)
        in
        match decode_all entry_count [] with
        | p_entries ->
          Some { p_seq = seq; p_entries; p_slots_used = slots_used; p_image = image }
        | exception (Blk.Truncated | Errors.Corrupt _) -> None
      end
    end
  end

let stored_slot_crc geom parsed ~slot =
  Blk.get_u32 parsed.p_image
    (crc_table_off geom ~slots_used:parsed.p_slots_used
    + (slot * slot_crc_bytes))

let verify_slot geom parsed ~slot =
  if slot < 0 || slot >= parsed.p_slots_used then
    invalid_arg "Segment.verify_slot";
  let bb = geom.Geometry.block_bytes in
  Blk.crc32c ~pos:(slot * bb) ~len:bb parsed.p_image
  = stored_slot_crc geom parsed ~slot

(* Checksum-verified zero-copy slot read: the per-slot CRC is checked
   on every access, so rot between the seal and this read surfaces as a
   typed [Errors.Corruption] instead of silently wrong data. *)
let parsed_slot geom parsed ~slot =
  let bb = geom.Geometry.block_bytes in
  if slot < 0 || slot >= parsed.p_slots_used then
    invalid_arg "Segment.parsed_slot";
  if not (verify_slot geom parsed ~slot) then
    raise (Errors.Corruption (Errors.Invalid_checksum { what = "segment slot"; index = slot }));
  Blk.sub parsed.p_image (slot * bb) bb

(* How many trailing bytes of a sealed image cover the header plus a
   maximal CRC table — what a single-block read must fetch (once per
   segment, then memoised) to verify slots without the whole image. *)
let tail_bytes geom =
  min geom.Geometry.segment_bytes
    (max geom.Geometry.block_bytes
       (header_bytes
       + (geom.Geometry.segment_bytes / geom.Geometry.block_bytes
         * slot_crc_bytes)))

let tail_slot_crc geom ~tail ~slot =
  let tlen = Blk.length tail in
  if tlen < header_bytes then None
  else begin
    let h = tlen - header_bytes in
    if Blk.get_u32 tail h <> magic then None
    else begin
      let slots_used = Blk.get_u32 tail (h + 20) in
      let total = geom.Geometry.segment_bytes in
      if
        slots_used < 0
        || slots_used > total / geom.Geometry.block_bytes
        || slot < 0 || slot >= slots_used
      then None
      else begin
        (* in-segment offset of the entry, rebased into the tail view *)
        let off =
          crc_table_off geom ~slots_used
          + (slot * slot_crc_bytes) - (total - tlen)
        in
        if off < 0 then None else Some (Blk.get_u32 tail off)
      end
    end
  end

(* For salvage paths that must look at a slot even though its checksum
   already failed. *)
let unverified_slot geom parsed ~slot =
  let bb = geom.Geometry.block_bytes in
  if slot < 0 || slot >= parsed.p_slots_used then
    invalid_arg "Segment.unverified_slot";
  Blk.sub parsed.p_image (slot * bb) bb
