module Codec = Lld_util.Blk
module Blk = Lld_util.Blk
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Fault = Lld_disk.Fault

type pending_entry = { pe_op : Summary.op; pe_seg : int }

type kind =
  | Full
  | Delta of { base_id : int; blocks : int list; lists : int list }

type snapshot = {
  ckpt_id : int;
  kind : kind;
  covered_seq : int;
  next_seq : int;
  stamp : int;
  next_aru : int;
  next_gid : int;
  pending : (int * pending_entry list) list;
  free_order : int list;
  prepared : (int * int * int) list;
}

let payload_version = 3

(* An optional identifier is one u32: 0 for [None], the id plus one
   otherwise. *)
let opt to_int w = function
  | None -> Codec.Writer.u32 w 0
  | Some i -> Codec.Writer.u32 w (to_int i + 1)

let read_opt of_int r =
  match Codec.Reader.u32 r with 0 -> None | n -> Some (of_int (n - 1))

(* A dirty list id names a live list only while its anchor exists. *)
let live_list lists i =
  match List_table.find_anchor lists (Types.List_id.of_int i) with
  | Some r when r.Record.exists -> Some r
  | Some _ | None -> None

let encode ~owner_active blocks lists snap =
  let w = Codec.Writer.create ~capacity:65536 () in
  let module W = Codec.Writer in
  W.u32 w payload_version;
  (match snap.kind with
  | Full -> W.u8 w 0
  | Delta { base_id; _ } ->
    W.u8 w 1;
    W.u64 w (Int64.of_int base_id));
  W.u64 w (Int64.of_int snap.ckpt_id);
  W.u64 w (Int64.of_int snap.covered_seq);
  W.u64 w (Int64.of_int snap.next_seq);
  W.u64 w (Int64.of_int snap.stamp);
  W.u64 w (Int64.of_int snap.next_aru);
  W.u64 w (Int64.of_int snap.next_gid);
  (* The anchors the payload names: every allocated block and existing
     list in a full, the dirty ids in a delta, where an id whose anchor
     is unallocated or absent is a tombstone. *)
  let block i = Block_map.anchor blocks (Types.Block_id.of_int i) in
  let each_block f =
    match snap.kind with
    | Full -> Block_map.iter blocks (fun r -> if r.Record.alloc then f r)
    | Delta d ->
      List.iter
        (fun i ->
          let r = block i in
          if r.Record.alloc then f r)
        d.blocks
  in
  let each_list f =
    match snap.kind with
    | Full -> List_table.iter lists (fun r -> if r.Record.exists then f r)
    | Delta d -> List.iter (fun i -> Option.iter f (live_list lists i)) d.lists
  in
  let dead_blocks, dead_lists =
    match snap.kind with
    | Full -> ([], [])
    | Delta d ->
      ( List.filter (fun i -> not (block i).Record.alloc) d.blocks,
        List.filter (fun i -> Option.is_none (live_list lists i)) d.lists )
  in
  let count each =
    let n = ref 0 in
    each (fun _ -> incr n);
    !n
  in
  let ints l =
    W.u32 w (List.length l);
    List.iter (W.u32 w) l
  in
  W.u32 w (count each_block);
  each_block (fun r ->
      W.u32 w (Types.Block_id.to_int r.Record.id);
      opt Types.List_id.to_int w r.Record.member_of;
      opt Types.Block_id.to_int w r.Record.successor;
      (match r.Record.phys with
      | None -> W.u8 w 0
      | Some { Record.seg_index; slot } ->
        W.u8 w 1;
        W.u32 w seg_index;
        W.u32 w slot);
      W.u64 w (Int64.of_int r.Record.stamp));
  W.u32 w (count each_list);
  each_list (fun r ->
      W.u32 w (Types.List_id.to_int r.Record.lid);
      opt Types.Block_id.to_int w r.Record.first;
      opt Types.Block_id.to_int w r.Record.last;
      W.u64 w (Int64.of_int r.Record.lstamp);
      (* an owner persists only while its ARU is active *)
      opt Types.Aru_id.to_int w
        (match r.Record.l_owner with
        | Some o when owner_active o -> r.Record.l_owner
        | Some _ | None -> None));
  ints dead_blocks;
  ints dead_lists;
  W.u32 w (List.length snap.pending);
  List.iter
    (fun (aru, entries) ->
      W.u32 w aru;
      W.u32 w (List.length entries);
      List.iter
        (fun pe ->
          Summary.encode w
            { Summary.stream = Summary.In_aru (Types.Aru_id.of_int aru);
              op = pe.pe_op };
          W.u32 w pe.pe_seg)
        entries)
    snap.pending;
  ints snap.free_order;
  W.u32 w (List.length snap.prepared);
  List.iter
    (fun (aru, gid, coordinator) ->
      W.u32 w aru;
      W.u64 w (Int64.of_int gid);
      W.u16 w coordinator)
    snap.prepared;
  W.contents w

(* The fields a payload leads with: all that generation selection needs
   to choose a winner before anything else is decoded.  The base is the
   full a delta rests on, [None] for a full. *)
let read_header r =
  let module R = Codec.Reader in
  let version = R.u32 r in
  if version <> payload_version then
    raise (Errors.Corrupt (Printf.sprintf "checkpoint version %d" version));
  let base =
    match R.u8 r with
    | 0 -> None
    | 1 -> Some (Int64.to_int (R.u64 r))
    | n -> raise (Errors.Corrupt (Printf.sprintf "checkpoint kind %d" n))
  in
  (base, Int64.to_int (R.u64 r))

(* A tombstone leaves its anchor as a fresh one. *)
let reset_block (r : Record.block) =
  let fresh = Record.fresh_block r.Record.id in
  r.Record.alloc <- fresh.Record.alloc;
  r.Record.member_of <- fresh.Record.member_of;
  r.Record.successor <- fresh.Record.successor;
  r.Record.phys <- fresh.Record.phys;
  r.Record.stamp <- fresh.Record.stamp

let reset_list (r : Record.list_r) =
  let fresh = Record.fresh_list r.Record.lid in
  r.Record.exists <- fresh.Record.exists;
  r.Record.first <- fresh.Record.first;
  r.Record.last <- fresh.Record.last;
  r.Record.lstamp <- fresh.Record.lstamp;
  r.Record.l_owner <- fresh.Record.l_owner

let decode_into blocks lists buf =
  let r = Codec.Reader.of_view buf in
  let module R = Codec.Reader in
  let u64 () = Int64.to_int (R.u64 r) in
  let ints () = List.init (R.u32 r) (fun _ -> R.u32 r) in
  (* an id outside the tables is corruption, like any undecodable field *)
  let block_anchor i =
    let id = Types.Block_id.of_int i in
    if not (Block_map.in_range blocks id) then
      raise (Errors.Corrupt (Printf.sprintf "checkpoint names block %d" i));
    Block_map.anchor blocks id
  in
  let list_id i =
    let id = Types.List_id.of_int i in
    if not (List_table.in_range lists id) then
      raise (Errors.Corrupt (Printf.sprintf "checkpoint names list %d" i));
    id
  in
  try
    let base, ckpt_id = read_header r in
    let covered_seq = u64 () in
    let next_seq = u64 () in
    let stamp = u64 () in
    let next_aru = u64 () in
    let next_gid = u64 () in
    (* a delta reports the ids it names; a full names every anchor *)
    let delta = Option.is_some base in
    let named_blocks = ref [] and named_lists = ref [] in
    for _ = 1 to R.u32 r do
      let i = R.u32 r in
      let b = block_anchor i in
      b.Record.alloc <- true;
      b.Record.member_of <- read_opt Types.List_id.of_int r;
      b.Record.successor <- read_opt Types.Block_id.of_int r;
      (b.Record.phys <-
         match R.u8 r with
         | 0 -> None
         | 1 ->
           let seg_index = R.u32 r in
           let slot = R.u32 r in
           Some { Record.seg_index; slot }
         | n -> raise (Errors.Corrupt (Printf.sprintf "phys tag %d" n)));
      b.Record.stamp <- u64 ();
      if delta then named_blocks := i :: !named_blocks
    done;
    for _ = 1 to R.u32 r do
      let i = R.u32 r in
      let l = List_table.anchor lists (list_id i) in
      l.Record.exists <- true;
      l.Record.first <- read_opt Types.Block_id.of_int r;
      l.Record.last <- read_opt Types.Block_id.of_int r;
      l.Record.lstamp <- u64 ();
      l.Record.l_owner <- read_opt Types.Aru_id.of_int r;
      if delta then named_lists := i :: !named_lists
    done;
    let dead_blocks = ints () in
    List.iter (fun i -> reset_block (block_anchor i)) dead_blocks;
    let dead_lists = ints () in
    List.iter
      (fun i -> Option.iter reset_list (List_table.find_anchor lists (list_id i)))
      dead_lists;
    let pending =
      List.init (R.u32 r) (fun _ ->
          let aru = R.u32 r in
          let entries =
            List.init (R.u32 r) (fun _ ->
                let entry = Summary.decode r in
                let pe_seg = R.u32 r in
                { pe_op = entry.Summary.op; pe_seg })
          in
          (aru, entries))
    in
    let free_order = ints () in
    let prepared =
      List.init (R.u32 r) (fun _ ->
          let aru = R.u32 r in
          let gid = u64 () in
          let coordinator = R.u16 r in
          (aru, gid, coordinator))
    in
    let kind =
      match base with
      | None -> Full
      | Some base_id ->
        Delta
          {
            base_id;
            blocks = List.merge Int.compare (List.rev !named_blocks) dead_blocks;
            lists = List.merge Int.compare (List.rev !named_lists) dead_lists;
          }
    in
    {
      ckpt_id; kind; covered_seq; next_seq; stamp; next_aru; next_gid; pending;
      free_order; prepared;
    }
  with Codec.Truncated -> raise (Errors.Corrupt "truncated checkpoint payload")

(* Chunk format (one chunk per region segment, only the used prefix is
   meaningful): magic u32, ckpt_id u64, chunk_index u32, chunk_count u32,
   payload_len u32 (this chunk), total_len u32, payload, checksum u64 at
   a fixed position right after the payload. *)
let chunk_magic = 0x4c4c4443 (* "LLDC" *)
let chunk_header_bytes = 28
let chunk_trailer_bytes = 8

let chunk_capacity geom =
  geom.Geometry.segment_bytes - chunk_header_bytes - chunk_trailer_bytes

let write disk ~region ~owner_active blocks lists snap =
  let geom = Disk.geometry disk in
  let payload = encode ~owner_active blocks lists snap in
  let total_len = Blk.length payload in
  let cap = chunk_capacity geom in
  let chunk_count = max 1 ((total_len + cap - 1) / cap) in
  if chunk_count > Disk_layout.region_segments geom then raise Errors.Disk_full;
  let first = Disk_layout.region_first geom ~region in
  let image = Blk.create geom.Geometry.segment_bytes in
  for i = 0 to chunk_count - 1 do
    let off = i * cap in
    let len = min cap (total_len - off) in
    if i > 0 then Blk.fill image '\000';
    Blk.set_u32 image 0 chunk_magic;
    Blk.set_u32 image 4 (snap.ckpt_id land 0xffffffff);
    Blk.set_u32 image 8 (snap.ckpt_id lsr 32);
    Blk.set_u32 image 12 i;
    Blk.set_u32 image 16 chunk_count;
    Blk.set_u32 image 20 len;
    Blk.set_u32 image 24 total_len;
    Blk.blit payload off image chunk_header_bytes len;
    (* hash64 trailer kept bit-identical to the pre-view format *)
    let sum = Blk.hash64 ~pos:0 ~len:(chunk_header_bytes + len) image in
    let cksum_off = chunk_header_bytes + len in
    Blk.set_u64 image cksum_off sum;
    Disk.write_view disk ~offset:(Geometry.segment_offset geom (first + i)) image
  done;
  (* The checkpoint must be durable before the caller flips its current
     region / resumes logging: recovery trusts the highest complete
     ckpt_id it can read (paper §4 ordering). *)
  Disk.barrier disk

let read_chunk geom image =
  if Blk.get_u32 image 0 <> chunk_magic then None
  else begin
    let ckpt_id = Blk.get_u32 image 4 lor (Blk.get_u32 image 8 lsl 32) in
    let index = Blk.get_u32 image 12 in
    let count = Blk.get_u32 image 16 in
    let len = Blk.get_u32 image 20 in
    let total_len = Blk.get_u32 image 24 in
    if len > chunk_capacity geom || count > Disk_layout.region_segments geom then
      None
    else begin
      let cksum_off = chunk_header_bytes + len in
      let stored = Blk.get_u64 image cksum_off in
      if not (Int64.equal stored (Blk.hash64 ~pos:0 ~len:cksum_off image)) then
        None
      else
        Some (ckpt_id, index, count, total_len, Blk.sub image chunk_header_bytes len)
    end
  end

(* The region's payload, read and checksummed but not decoded: [None]
   when the region holds no complete, checksummed checkpoint. *)
let read_payload disk ~region =
  let geom = Disk.geometry disk in
  let first = Disk_layout.region_first geom ~region in
  let read_seg i =
    Disk.read_view disk
      ~offset:(Geometry.segment_offset geom (first + i))
      ~length:geom.Geometry.segment_bytes
  in
  match read_chunk geom (read_seg 0) with
  | None -> None
  | Some (ckpt_id, 0, count, total_len, chunk0) ->
    let rec gather i acc =
      if i = count then Some (List.rev acc)
      else
        match read_chunk geom (read_seg i) with
        | Some (id, idx, cnt, tot, payload)
          when id = ckpt_id && idx = i && cnt = count && tot = total_len ->
          gather (i + 1) (payload :: acc)
        | Some _ | None -> None
    in
    (match gather 1 [ chunk0 ] with
    | None -> None
    | Some chunks ->
      let combined = List.fold_left (fun n c -> n + Blk.length c) 0 chunks in
      if combined <> total_len then None
      else begin
        match chunks with
        | [ only ] ->
          (* the chunk is a view into its own fresh segment read, which
             nothing else holds: it is the payload *)
          Some only
        | _ ->
          (* stitch the chunks' views into one payload for the decoder *)
          let payload = Blk.create total_len in
          let _ =
            List.fold_left
              (fun off c ->
                Blk.blit c 0 payload off (Blk.length c);
                off + Blk.length c)
              0 chunks
          in
          Some payload
      end)
  | Some (_, _, _, _, _) -> None

type best = {
  best_snap : snapshot;
  best_blocks : Block_map.t;
  best_lists : List_table.t;
  best_region : int;
  best_full_region : int;
}

(* Generation selection: a full checkpoint stands alone; a delta is
   consistent only when the other region still holds the exact full it
   was taken against.  Among consistent generations the highest ckpt_id
   wins — so a torn newest write (delta or full) falls back to the
   previous generation, and a delta orphaned by a later full (never
   produced by the writer, but conceivable after media errors) is
   ignored rather than restored over the wrong base.

   The choice reads only each payload's header; then the winner is
   decoded into fresh tables, its base full first when it is a delta.
   A payload that does not decode drops out and the choice runs again.
   The answer is the one decoding both regions first would give: a
   payload that does not decode can neither win nor be a base, and once
   the winner and its base decode, no payload that dropped out could
   have beaten it. *)
let select geom ~region0 ~region1 =
  let header payload =
    match read_header (Codec.Reader.of_view payload) with
    | h -> Some h
    | exception (Errors.Corrupt _ | Codec.Truncated) -> None
  in
  let headers =
    Array.map
      (fun p -> Option.bind p (fun p -> Option.map (fun h -> (p, h)) (header p)))
      [| region0; region1 |]
  in
  (* the winner's region, its ckpt_id and its base's region *)
  let candidate region =
    match headers.(region) with
    | None -> None
    | Some (_, (None, id)) -> Some (region, id, region)
    | Some (_, (Some base_id, id)) -> (
      match headers.(1 - region) with
      | Some (_, (None, full_id)) when full_id = base_id && id > base_id ->
        Some (region, id, 1 - region)
      | Some _ | None -> None)
  in
  let rec choose () =
    let winner =
      match (candidate 0, candidate 1) with
      | None, None -> None
      | Some c, None | None, Some c -> Some c
      | (Some (_, a, _) as c0), (Some (_, b, _) as c1) ->
        if a >= b then c0 else c1
    in
    match winner with
    | None -> None
    | Some (region, _, full_region) -> (
      let blocks = Block_map.create ~capacity:(Disk_layout.block_capacity geom) in
      let lists = List_table.create ~max_lists:(Disk_layout.max_lists geom) in
      let decoded region =
        match decode_into blocks lists (fst (Option.get headers.(region))) with
        | snap -> Some snap
        | exception Errors.Corrupt _ ->
          headers.(region) <- None;
          None
      in
      match decoded full_region with
      | None -> choose ()
      | Some full -> (
        match if full_region = region then Some full else decoded region with
        | None -> choose ()
        | Some best_snap ->
          Some
            {
              best_snap;
              best_blocks = blocks;
              best_lists = lists;
              best_region = region;
              best_full_region = full_region;
            }))
  in
  choose ()

(* Selection over possibly failing media: a region whose read raises a
   media error is treated as empty. *)
let read_best disk =
  let payload region =
    match read_payload disk ~region with
    | payload -> payload
    | exception Fault.Media_error _ -> None
  in
  (* Region 1 is read before region 0.  The order moves the virtual
     clock (seek distances, rotation), and every recorded clock and
     trace was taken with this order, so it is bound here rather than
     left to the unspecified evaluation order of arguments. *)
  let region1 = payload 1 in
  let region0 = payload 0 in
  select (Disk.geometry disk) ~region0 ~region1
