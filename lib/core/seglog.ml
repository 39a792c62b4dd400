module Clock = Lld_sim.Clock
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Fault = Lld_disk.Fault
module Lru = Lld_util.Lru
module Blk = Lld_util.Blk

(* ------------------------------------------------------------------ *)
(* Stateless readers                                                   *)

(* [n] physically contiguous segments from [first] in one request. *)
let read_run disk ~first ~n =
  let geom = Disk.geometry disk in
  Disk.read_view disk
    ~offset:(Geometry.segment_offset geom first)
    ~length:(n * geom.Geometry.segment_bytes)

let load disk idx =
  let image = read_run disk ~first:idx ~n:1 in
  (image, Segment.parse (Disk.geometry disk) image)

(* An unreadable segment reads as an unparsable one. *)
let parse_at disk idx =
  match load disk idx with _, p -> p | exception Fault.Media_error _ -> None

let fold_log disk ~init f =
  let geom = Disk.geometry disk in
  let acc = ref init in
  for i = Disk_layout.log_first geom to geom.Geometry.num_segments - 1 do
    acc := f !acc i (parse_at disk i)
  done;
  !acc

type tail = {
  segments : (int * Summary.t list) list;
  next_seq : int;
  invalid : int;
  reads : int;
}

let read_tail disk ~order ~after =
  let geom = Disk.geometry disk in
  let seg_bytes = geom.Geometry.segment_bytes in
  let expected = ref (after + 1) in
  let segments = ref [] in
  let invalid = ref 0 in
  let reads = ref 0 in
  let extends idx = function
    | Some p when p.Segment.p_seq = !expected ->
      incr expected;
      segments := (idx, p.Segment.p_entries) :: !segments;
      true
    | Some _ | None -> false
  in
  (match order with
  | _ :: _ ->
    (* Batched reads: the run length ramps up so a short tail — the
       common O(dirty) restart — over-reads at most one segment past the
       gap probe, while a long tail amortises to one request per 32 MB
       of log.  Per-segment images are O(1) views into the batched read.
       A media error on a batched read falls back to per-segment reads
       of the same run, so the stream ends exactly where an unbatched
       scan would end it. *)
    let order = Array.of_list order in
    let n = Array.length order in
    let continue = ref true in
    let pos = ref 0 in
    let cap = ref 1 in
    while !continue && !pos < n do
      let first = order.(!pos) in
      let len = ref 1 in
      while
        !len < !cap && !pos + !len < n && order.(!pos + !len) = first + !len
      do
        incr len
      done;
      let batched =
        if !len = 1 then None
        else begin
          incr reads;
          match read_run disk ~first ~n:!len with
          | image -> Some image
          | exception Fault.Media_error _ -> None
        end
      in
      for k = 0 to !len - 1 do
        if !continue then begin
          let parsed =
            match batched with
            | Some image ->
              Segment.parse geom (Blk.sub image (k * seg_bytes) seg_bytes)
            | None ->
              incr reads;
              parse_at disk (first + k)
          in
          if not (extends (first + k) parsed) then begin
            (* stale contents, torn write, or a media error: the stream
               ends here *)
            incr invalid;
            continue := false
          end
        end
      done;
      pos := !pos + !len;
      cap := min 64 (2 * !cap)
    done
  | [] ->
    let found =
      fold_log disk ~init:[] (fun acc i parsed ->
          incr reads;
          match parsed with
          | Some p when p.Segment.p_seq > after -> (p.Segment.p_seq, i, p) :: acc
          | Some _ -> acc
          | None ->
            incr invalid;
            acc)
    in
    List.iter
      (fun (_, i, p) -> ignore (extends i (Some p)))
      (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) found));
  {
    segments = List.rev !segments;
    next_seq = !expected;
    invalid = !invalid;
    reads = !reads;
  }

(* ------------------------------------------------------------------ *)
(* The log handle                                                      *)

type t = {
  disk : Disk.t;
  geom : Geometry.t;
  clock : Clock.t;
  config : Config.t;
  counters : Counters.t;
  mutable open_seg : Segment.t option;
  mutable next_seq : int;
  free : int Queue.t;
  sealed : bool array; (* per disk segment: written and not yet retired *)
  seal_seq : int array; (* per disk segment: seq when last sealed *)
  cache : Blk.t Lru.t;
  (* cached entries are views into immutable storage (sealed segment
     images, fresh disk reads) — never into a buffer that can mutate *)
  meta_cache : (int, Blk.t) Hashtbl.t;
  (* per sealed segment: its trailing meta view (header + CRC table),
     memoised so single-block reads can verify their slot CRC with one
     small extra fetch per segment; dropped when the segment is reused *)
  mutable last_read_gslot : int;
  mutable seq_read_run : int; (* consecutive sequential physical reads *)
  before_take : unit -> unit;
  after_seal : int -> unit;
}

let create ~config ~counters ~before_take ~after_seal disk =
  let geom = Disk.geometry disk in
  {
    disk;
    geom;
    clock = Disk.clock disk;
    config;
    counters;
    open_seg = None;
    next_seq = 0;
    free = Queue.create ();
    sealed = Array.make geom.Geometry.num_segments false;
    seal_seq = Array.make geom.Geometry.num_segments 0;
    cache = Lru.create ~capacity:(max 16 config.Config.cache_blocks);
    meta_cache = Hashtbl.create 32;
    last_read_gslot = min_int;
    seq_read_run = 0;
    before_take;
    after_seal;
  }

let bps t = Geometry.blocks_per_segment t.geom
let cpu t ns = Clock.charge t.clock Clock.Cpu ns

let elide t =
  t.counters.Counters.copy_elisions <- t.counters.Counters.copy_elisions + 1

let next_seq t = t.next_seq

let current_seq t =
  match t.open_seg with Some s -> Segment.seq s | None -> t.next_seq

let free_count t = Queue.length t.free
let free_order t = List.rev (Queue.fold (fun acc idx -> idx :: acc) [] t.free)
let is_sealed t idx = t.sealed.(idx)
let seal_seq t idx = t.seal_seq.(idx)

let sealed_count t =
  Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 t.sealed

let cache_blocks t = Lru.length t.cache
let cache_capacity t = Lru.capacity t.cache
let cached t ~seg ~slot = Lru.find t.cache ((seg * bps t) + slot)

let invalidate t idx =
  let base = idx * bps t in
  Hashtbl.remove t.meta_cache idx;
  Lru.remove_range t.cache ~lo:base ~hi:(base + bps t - 1)

let restore t ~next_seq ~in_use =
  t.next_seq <- next_seq;
  for i = Disk_layout.log_first t.geom to t.geom.Geometry.num_segments - 1 do
    if in_use i then t.sealed.(i) <- true else Queue.push i t.free
  done

let retire t idxs =
  List.iter
    (fun idx ->
      t.sealed.(idx) <- false;
      invalidate t idx;
      Queue.push idx t.free)
    idxs

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

let open_segment t =
  match t.open_seg with
  | Some s -> s
  | None -> (
    t.before_take ();
    match Queue.take_opt t.free with
    | None -> raise Errors.Disk_full
    | Some idx ->
      invalidate t idx;
      let seg = Segment.create t.geom ~seq:t.next_seq ~disk_index:idx in
      t.next_seq <- t.next_seq + 1;
      t.open_seg <- Some seg;
      seg)

let seal t =
  match t.open_seg with
  | None -> ()
  | Some s when Segment.is_empty s ->
    (* never written: return the slot unused *)
    t.open_seg <- None;
    t.next_seq <- t.next_seq - 1;
    Queue.push (Segment.disk_index s) t.free
  | Some s ->
    let image = Segment.seal s in
    let idx = Segment.disk_index s in
    Disk.write_view t.disk ~offset:(Geometry.segment_offset t.geom idx) image;
    (* Paper §4 ordering: a sealed segment (and every commit record in
       it) must be durable before any later segment or checkpoint refers
       to it.  No-op in memory; fsync on a file backend. *)
    Disk.barrier t.disk;
    t.counters.Counters.segments_written <-
      t.counters.Counters.segments_written + 1;
    t.sealed.(idx) <- true;
    t.seal_seq.(idx) <- Segment.seq s;
    (* the sealed segment's blocks are the most recently used data; the
       sealed image is immutable, so the cache aliases its slots *)
    let base = idx * bps t in
    for slot = 0 to Segment.slots_used s - 1 do
      elide t;
      Lru.add t.cache (base + slot) (Segment.read_slot s ~slot)
    done;
    t.open_seg <- None;
    t.after_seal (Segment.seq s)

let has_room t ~data_blocks ~entry_bytes =
  match t.open_seg with
  | Some s -> Segment.has_room s ~data_blocks ~entry_bytes
  | None -> true

(* The open segment if it has room, else a fresh one after a seal. *)
let with_room t ~data_blocks ~entry_bytes =
  let s = open_segment t in
  if Segment.has_room s ~data_blocks ~entry_bytes then s
  else begin
    seal t;
    open_segment t
  end

let append t s entry =
  Segment.add_entry s entry;
  t.counters.Counters.summary_entries <- t.counters.Counters.summary_entries + 1;
  cpu t t.config.Config.cost.Lld_sim.Cost.summary_entry_ns

let emit_entry t entry =
  let s = with_room t ~data_blocks:0 ~entry_bytes:(Summary.encoded_size entry) in
  append t s entry;
  (Segment.seq s, Segment.disk_index s)

let emit_write t ?(charge_copy = true) ~allow_cross_scope ~stream ~block ~data
    ~stamp () =
  let scope =
    match stream with
    | Summary.Simple -> Segment.Simple_scope
    | Summary.In_aru a -> Segment.Aru_scope a
  in
  let size =
    Summary.encoded_size
      { Summary.stream; op = Summary.Write { block; slot = 0; stamp } }
  in
  let s = with_room t ~data_blocks:1 ~entry_bytes:size in
  let slot = Segment.put_block s ~scope ~allow_cross_scope block data in
  if charge_copy then cpu t t.config.Config.cost.Lld_sim.Cost.block_copy_ns;
  append t s { Summary.stream; op = Summary.Write { block; slot; stamp } };
  (Segment.seq s, { Record.seg_index = Segment.disk_index s; slot })

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let corrupt what index =
  raise (Errors.Corruption (Errors.Invalid_checksum { what; index }))

let read_slot t (p : Record.phys) =
  let bb = t.geom.Geometry.block_bytes in
  let seg = p.Record.seg_index and slot = p.Record.slot in
  match t.open_seg with
  | Some s when Segment.disk_index s = seg ->
    (* view into the open buffer — the bytes wrapper copies, the view
       API's contract is "valid until the next mutating operation" *)
    elide t;
    Segment.read_slot s ~slot
  | Some _ | None -> (
    let gslot = (seg * bps t) + slot in
    let cached = Lru.find t.cache gslot in
    if gslot = t.last_read_gslot + 1 then t.seq_read_run <- t.seq_read_run + 1
    else t.seq_read_run <- 0;
    t.last_read_gslot <- gslot;
    match cached with
    | Some data ->
      t.counters.Counters.cache_hits <- t.counters.Counters.cache_hits + 1;
      elide t;
      data
    | None ->
      t.counters.Counters.cache_misses <- t.counters.Counters.cache_misses + 1;
      (* prefetch only on an established sequential run: a lone +1
         coincidence (adjacent meta blocks) must not drag in 0.5 MB *)
      if t.config.Config.readahead && t.seq_read_run >= 3 then begin
        (* fetch the whole segment in one request (paper §2: segments
           are the unit of disk transfer); the image is a fresh buffer,
           so the cache can alias its slots — but only the ones whose
           CRC still matches, keeping the cache free of media rot *)
        let image, parsed = load t.disk seg in
        t.counters.Counters.readaheads <- t.counters.Counters.readaheads + 1;
        match parsed with
        | None -> corrupt "segment" seg
        | Some parsed ->
          let base = seg * bps t in
          for i = 0 to parsed.Segment.p_slots_used - 1 do
            if Segment.verify_slot t.geom parsed ~slot:i then begin
              elide t;
              Lru.add t.cache (base + i)
                (Segment.unverified_slot t.geom parsed ~slot:i)
            end
          done;
          if not (Segment.verify_slot t.geom parsed ~slot) then
            corrupt "segment slot" slot;
          Blk.sub image (slot * bb) bb
      end
      else begin
        let seg_off = Geometry.segment_offset t.geom seg in
        let data =
          Disk.read_view t.disk ~offset:(seg_off + (slot * bb)) ~length:bb
        in
        (* per-slot CRC check against the segment's trailing meta,
           fetched once per segment and memoised *)
        let tail =
          match Hashtbl.find_opt t.meta_cache seg with
          | Some v -> v
          | None ->
            let tb = Segment.tail_bytes t.geom in
            let v =
              Disk.read_view t.disk
                ~offset:(seg_off + t.geom.Geometry.segment_bytes - tb)
                ~length:tb
            in
            Hashtbl.replace t.meta_cache seg v;
            v
        in
        (match Segment.tail_slot_crc t.geom ~tail ~slot with
        | Some crc when crc = Blk.crc32c data -> ()
        | Some _ -> corrupt "segment slot" slot
        | None -> corrupt "segment" seg);
        (* the read is a fresh buffer; cache and caller share it *)
        elide t;
        Lru.add t.cache gslot data;
        data
      end)
