type t = {
  block_bytes : int;
  segment_bytes : int;
  num_segments : int;
}

let v ?(block_bytes = 4096) ?(segment_bytes = 512 * 1024) ~num_segments () =
  if block_bytes <= 0 || segment_bytes <= 0 || num_segments <= 0 then
    invalid_arg "Geometry.v: sizes must be positive";
  if segment_bytes mod block_bytes <> 0 then
    invalid_arg "Geometry.v: segment size must be a multiple of the block size";
  { block_bytes; segment_bytes; num_segments }

let paper = v ~num_segments:800 ()
let small = v ~num_segments:32 ()

let blocks_per_segment t = t.segment_bytes / t.block_bytes
let total_blocks t = blocks_per_segment t * t.num_segments
let total_bytes t = t.segment_bytes * t.num_segments

let segment_offset t i =
  if i < 0 || i >= t.num_segments then invalid_arg "Geometry.segment_offset";
  i * t.segment_bytes

(* The seek model's cylinder: 1 MB of the partition. *)
let cylinder_of_offset off = off / (1024 * 1024)
