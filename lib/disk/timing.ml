(* The HP C3010 *)
let min_seek_ns = 2_500_000 (* track-to-track *)
let avg_seek_ns = 11_500_000 (* random; the seek curve is scaled to hit it *)
let rotation_ns = 11_111_111 (* one revolution at 5400 rpm *)
let settle_ns = 200_000 (* head settle on sequential continuation *)
let transfer_bytes_per_sec = 2_350_000

(* Seek time grows with the square root of the cylinder distance, scaled
   so that a random seek (expected normalised distance ~1/3, sqrt ~0.52)
   costs [avg_seek_ns]. *)
let seek_ns ~from_cyl ~to_cyl ~total_cyl =
  if from_cyl = to_cyl then 0
  else begin
    let d = float_of_int (abs (to_cyl - from_cyl)) /. float_of_int (max 1 total_cyl) in
    let scaled =
      float_of_int (avg_seek_ns - min_seek_ns) *. (sqrt d /. 0.52)
    in
    min_seek_ns + int_of_float (min scaled (1.8 *. float_of_int avg_seek_ns))
  end

let transfer_ns length =
  int_of_float
    (float_of_int length /. float_of_int transfer_bytes_per_sec *. 1e9)

type position_kind = Cold | Sequential | Same_cylinder | Seek

let position_kind_label = function
  | Cold -> "cold"
  | Sequential -> "sequential"
  | Same_cylinder -> "same_cylinder"
  | Seek -> "seek"

type breakdown = {
  position_ns : int;
  xfer_ns : int;
  kind : position_kind;
}

let request_breakdown geom ~last_end ~offset ~length =
  let total_cyl = Geometry.cylinder_of_offset (Geometry.total_bytes geom - 1) + 1 in
  let position_ns, kind =
    if last_end < 0 then (avg_seek_ns + (rotation_ns / 2), Cold)
    else if offset = last_end then (settle_ns, Sequential)
    else
      let from_cyl = Geometry.cylinder_of_offset last_end in
      let to_cyl = Geometry.cylinder_of_offset offset in
      let seek = seek_ns ~from_cyl ~to_cyl ~total_cyl in
      if seek = 0 then
        (* same cylinder, different position: partial rotation *)
        (settle_ns + (rotation_ns / 4), Same_cylinder)
      else (seek + (rotation_ns / 2), Seek)
  in
  { position_ns; xfer_ns = transfer_ns length; kind }
