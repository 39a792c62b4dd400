module Codec = Lld_util.Blk
module Blk = Lld_util.Blk
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Fault = Lld_disk.Fault

type pending_entry = { pe_op : Summary.op; pe_seg : int }

type block_entry = {
  b_id : int;
  b_member : Types.List_id.t option;
  b_succ : Types.Block_id.t option;
  b_phys : Record.phys option;
  b_stamp : int;
}

type list_entry = {
  l_id : int;
  l_first : Types.Block_id.t option;
  l_last : Types.Block_id.t option;
  l_stamp : int;
  l_owner : Types.Aru_id.t option;
}

type kind = Full | Delta of { base_id : int }

type snapshot = {
  ckpt_id : int;
  kind : kind;
  covered_seq : int;
  next_seq : int;
  stamp : int;
  next_aru : int;
  next_gid : int;
  blocks : block_entry list;
  lists : list_entry list;
  dead_blocks : int list;
  dead_lists : int list;
  pending : (int * pending_entry list) list;
  free_order : int list;
  prepared : (int * int * int) list;
}

let empty =
  {
    ckpt_id = 1;
    kind = Full;
    covered_seq = 0;
    next_seq = 1;
    stamp = 1;
    next_aru = 1;
    next_gid = 1;
    blocks = [];
    lists = [];
    dead_blocks = [];
    dead_lists = [];
    pending = [];
    free_order = [];
    prepared = [];
  }

let payload_version = 3

(* An optional identifier is one u32: 0 for [None], the id plus one
   otherwise. *)
let opt to_int w = function
  | None -> Codec.Writer.u32 w 0
  | Some i -> Codec.Writer.u32 w (to_int i + 1)

let read_opt of_int r =
  match Codec.Reader.u32 r with 0 -> None | n -> Some (of_int (n - 1))

let encode snap =
  let w = Codec.Writer.create ~capacity:65536 () in
  let module W = Codec.Writer in
  W.u32 w payload_version;
  (match snap.kind with
  | Full -> W.u8 w 0
  | Delta { base_id } ->
    W.u8 w 1;
    W.u64 w (Int64.of_int base_id));
  W.u64 w (Int64.of_int snap.ckpt_id);
  W.u64 w (Int64.of_int snap.covered_seq);
  W.u64 w (Int64.of_int snap.next_seq);
  W.u64 w (Int64.of_int snap.stamp);
  W.u64 w (Int64.of_int snap.next_aru);
  W.u64 w (Int64.of_int snap.next_gid);
  W.u32 w (List.length snap.blocks);
  List.iter
    (fun b ->
      W.u32 w b.b_id;
      opt Types.List_id.to_int w b.b_member;
      opt Types.Block_id.to_int w b.b_succ;
      (match b.b_phys with
      | None -> W.u8 w 0
      | Some { Record.seg_index; slot } ->
        W.u8 w 1;
        W.u32 w seg_index;
        W.u32 w slot);
      W.u64 w (Int64.of_int b.b_stamp))
    snap.blocks;
  W.u32 w (List.length snap.lists);
  List.iter
    (fun l ->
      W.u32 w l.l_id;
      opt Types.Block_id.to_int w l.l_first;
      opt Types.Block_id.to_int w l.l_last;
      W.u64 w (Int64.of_int l.l_stamp);
      opt Types.Aru_id.to_int w l.l_owner)
    snap.lists;
  W.u32 w (List.length snap.dead_blocks);
  List.iter (W.u32 w) snap.dead_blocks;
  W.u32 w (List.length snap.dead_lists);
  List.iter (W.u32 w) snap.dead_lists;
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
  W.u32 w (List.length snap.free_order);
  List.iter (W.u32 w) snap.free_order;
  W.u32 w (List.length snap.prepared);
  List.iter
    (fun (aru, gid, coordinator) ->
      W.u32 w aru;
      W.u64 w (Int64.of_int gid);
      W.u16 w coordinator)
    snap.prepared;
  W.contents w

(* The fields a payload leads with: all that generation selection needs
   to choose a winner before anything else is decoded. *)
let read_header r =
  let module R = Codec.Reader in
  let version = R.u32 r in
  if version <> payload_version then
    raise (Errors.Corrupt (Printf.sprintf "checkpoint version %d" version));
  let kind =
    match R.u8 r with
    | 0 -> Full
    | 1 -> Delta { base_id = Int64.to_int (R.u64 r) }
    | n -> raise (Errors.Corrupt (Printf.sprintf "checkpoint kind %d" n))
  in
  (kind, Int64.to_int (R.u64 r))

let decode buf =
  let r = Codec.Reader.of_view buf in
  let module R = Codec.Reader in
  try
    let kind, ckpt_id = read_header r in
    let covered_seq = Int64.to_int (R.u64 r) in
    let next_seq = Int64.to_int (R.u64 r) in
    let stamp = Int64.to_int (R.u64 r) in
    let next_aru = Int64.to_int (R.u64 r) in
    let next_gid = Int64.to_int (R.u64 r) in
    let nblocks = R.u32 r in
    let blocks =
      List.init nblocks (fun _ ->
          let b_id = R.u32 r in
          let b_member = read_opt Types.List_id.of_int r in
          let b_succ = read_opt Types.Block_id.of_int r in
          let b_phys =
            match R.u8 r with
            | 0 -> None
            | 1 ->
              let seg_index = R.u32 r in
              let slot = R.u32 r in
              Some { Record.seg_index; slot }
            | n -> raise (Errors.Corrupt (Printf.sprintf "phys tag %d" n))
          in
          { b_id; b_member; b_succ; b_phys; b_stamp = Int64.to_int (R.u64 r) })
    in
    let nlists = R.u32 r in
    let lists =
      List.init nlists (fun _ ->
          let l_id = R.u32 r in
          let l_first = read_opt Types.Block_id.of_int r in
          let l_last = read_opt Types.Block_id.of_int r in
          let l_stamp = Int64.to_int (R.u64 r) in
          { l_id; l_first; l_last; l_stamp;
            l_owner = read_opt Types.Aru_id.of_int r })
    in
    let ndead_b = R.u32 r in
    let dead_blocks = List.init ndead_b (fun _ -> R.u32 r) in
    let ndead_l = R.u32 r in
    let dead_lists = List.init ndead_l (fun _ -> R.u32 r) in
    let npending = R.u32 r in
    let pending =
      List.init npending (fun _ ->
          let aru = R.u32 r in
          let n = R.u32 r in
          let entries =
            List.init n (fun _ ->
                let entry = Summary.decode r in
                let pe_seg = R.u32 r in
                { pe_op = entry.Summary.op; pe_seg })
          in
          (aru, entries))
    in
    let nfree = R.u32 r in
    let free_order = List.init nfree (fun _ -> R.u32 r) in
    let nprep = R.u32 r in
    let prepared =
      List.init nprep (fun _ ->
          let aru = R.u32 r in
          let gid = Int64.to_int (R.u64 r) in
          let coordinator = R.u16 r in
          (aru, gid, coordinator))
    in
    {
      ckpt_id; kind; covered_seq; next_seq; stamp; next_aru; next_gid; blocks;
      lists; dead_blocks; dead_lists; pending; free_order; prepared;
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

let write disk ~region snap =
  let geom = Disk.geometry disk in
  let payload = encode snap in
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

let decode_opt payload =
  match decode payload with
  | snap -> Some snap
  | exception Errors.Corrupt _ -> None

let read_region disk ~region = Option.bind (read_payload disk ~region) decode_opt

(* Overlay a cumulative delta on its full base: delta entries replace
   (or add) base entries, tombstones remove them, and every scalar —
   position, pending ARU state, free order — comes from the delta, which
   is the newer generation.  Raises [Invalid_argument] when [delta] is
   not a delta against exactly [full]. *)
let compose ~full ~delta =
  let base_id =
    match delta.kind with
    | Delta { base_id } -> base_id
    | Full -> invalid_arg "Checkpoint.compose: delta is a full checkpoint"
  in
  if full.kind <> Full || full.ckpt_id <> base_id then
    invalid_arg "Checkpoint.compose: base mismatch";
  let dead_b = Hashtbl.create 64 and dead_l = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace dead_b i ()) delta.dead_blocks;
  List.iter (fun (b : block_entry) -> Hashtbl.replace dead_b b.b_id ())
    delta.blocks;
  List.iter (fun i -> Hashtbl.replace dead_l i ()) delta.dead_lists;
  List.iter (fun (l : list_entry) -> Hashtbl.replace dead_l l.l_id ())
    delta.lists;
  let blocks =
    List.filter (fun (b : block_entry) -> not (Hashtbl.mem dead_b b.b_id))
      full.blocks
    @ delta.blocks
  in
  let lists =
    List.filter (fun (l : list_entry) -> not (Hashtbl.mem dead_l l.l_id))
      full.lists
    @ delta.lists
  in
  {
    delta with
    blocks = List.sort (fun a b -> Int.compare a.b_id b.b_id) blocks;
    lists = List.sort (fun a b -> Int.compare a.l_id b.l_id) lists;
    dead_blocks = [];
    dead_lists = [];
  }

type best = {
  best_snap : snapshot;
      (* the effective (composed) snapshot; [kind] still names the
         newest generation it came from *)
  best_region : int;
  best_full_region : int;
}

(* Generation selection: a full checkpoint stands alone; a delta is
   consistent only when the other region still holds the exact full it
   was taken against.  Among consistent generations the highest ckpt_id
   wins — so a torn newest write (delta or full) falls back to the
   previous generation, and a delta orphaned by a later full (never
   produced by the writer, but conceivable after media errors) is
   ignored rather than composed against the wrong base.

   The choice reads only each payload's header; then the winner is
   decoded, and its base when it is a delta.  A payload that does not
   decode drops out and the choice runs again.  The answer is the one
   decoding both regions first would give: a payload that does not
   decode can neither win nor be a base, and once the winner and its
   base decode, no payload that dropped out could have beaten it. *)
let select ~region0 ~region1 =
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
    | Some (_, (Full, id)) -> Some (region, id, region)
    | Some (_, (Delta { base_id }, id)) -> (
      match headers.(1 - region) with
      | Some (_, (Full, full_id)) when full_id = base_id && id > base_id ->
        Some (region, id, 1 - region)
      | Some _ | None -> None)
  in
  let decoded region =
    match decode_opt (fst (Option.get headers.(region))) with
    | None ->
      headers.(region) <- None;
      None
    | snap -> snap
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
      let best best_snap =
        Some { best_snap; best_region = region; best_full_region = full_region }
      in
      match decoded region with
      | None -> choose ()
      | Some snap when full_region = region -> best snap
      | Some delta -> (
        match decoded full_region with
        | None -> choose ()
        | Some full -> best (compose ~full ~delta)))
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
  select ~region0 ~region1
