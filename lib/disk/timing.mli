(** Mechanical timing model of the evaluation disk.

    Approximates the HP C3010 used in the paper: SCSI-II, 5400 rpm
    (11.1 ms revolution), 11.5 ms average seek, a sustained media rate
    of ~2.35 MB/s at the partition.  Request cost is
    [seek(distance) + rotational latency + transfer], where sequential
    requests (next byte after the previous request) pay no seek and only
    a small settle delay. *)

type t = {
  min_seek_ns : int;  (** track-to-track seek *)
  avg_seek_ns : int;  (** average (random) seek; the curve is scaled to hit this *)
  rotation_ns : int;  (** one full revolution *)
  settle_ns : int;  (** head settle on sequential continuation *)
  transfer_bytes_per_sec : int;
}

val hp_c3010 : t

val request_ns :
  t -> Geometry.t -> last_end:int -> offset:int -> length:int -> int
(** Virtual duration of a request of [length] bytes at byte [offset],
    when the previous request ended at byte [last_end].  [last_end < 0]
    means cold start (full average positioning cost). *)

(** {2 Cost breakdown}

    The same model, decomposed for tracing: how the head got into
    position and how the total splits between positioning (seek +
    rotation/settle) and media transfer. *)

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

val request_breakdown :
  t -> Geometry.t -> last_end:int -> offset:int -> length:int -> breakdown
(** Same inputs and total cost as {!request_ns}:
    [request_ns = position_ns + xfer_ns]. *)
