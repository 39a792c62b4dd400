(** Mechanical timing model of the evaluation disk.

    Approximates the HP C3010 used in the paper: SCSI-II, 5400 rpm
    (11.1 ms revolution), 11.5 ms average seek, a sustained media rate
    of ~2.35 MB/s at the partition.  Request cost is
    [seek(distance) + rotational latency + transfer], where sequential
    requests (next byte after the previous request) pay no seek and only
    a small settle delay. *)

type position_kind =
  | Cold  (** first request: average seek + half rotation *)
  | Sequential  (** continues the previous request: settle only *)
  | Same_cylinder  (** head switch on the cylinder: settle + rotation/4 *)
  | Seek  (** cylinder move: distance-scaled seek + half rotation *)

val position_kind_label : position_kind -> string

type breakdown = {
  position_ns : int;
  xfer_ns : int;
  kind : position_kind;
}
(** How the head got into position, and how a request's cost splits
    between positioning (seek + rotation/settle) and media transfer. *)

val request_breakdown :
  Geometry.t -> last_end:int -> offset:int -> length:int -> breakdown
(** Cost of a request of [length] bytes at byte [offset], when the
    previous request ended at byte [last_end]; its virtual duration is
    [position_ns + xfer_ns].  [last_end < 0] means cold start (full
    average positioning cost). *)
