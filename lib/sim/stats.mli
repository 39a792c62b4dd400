(** Small numeric summaries used by the experiment harness. *)

val percentile : float list -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], nearest-rank on the sorted
    sample. Raises [Invalid_argument] on []. *)

(** Log2-bucket latency histograms on the virtual clock.

    Bucket 0 counts the value 0; bucket [i >= 1] counts values in
    [2^(i-1) .. 2^i - 1].  Count, sum, min and max are tracked exactly,
    so [mean] is exact and percentile estimates are clamped to the
    observed range: a percentile never under-reports the exact
    nearest-rank value and is within a factor of two of it. *)
module Histogram : sig
  type t

  val create : unit -> t

  val add : t -> int -> unit
  (** Record one non-negative sample (nanoseconds by convention).
      Raises [Invalid_argument] on a negative sample. *)

  val count : t -> int
  val sum : t -> int
  val min_ns : t -> int
  val max_ns : t -> int
  val mean : t -> float

  val percentile : t -> float -> int
  (** Nearest-rank percentile (same rank rule as {!Stats.percentile}):
      the upper bound of the bucket holding the rank-th sample, clamped
      to [min_ns .. max_ns].  Raises [Invalid_argument] when empty or
      [p] is outside [0, 100]. *)

  val p50 : t -> int
  val p95 : t -> int
  val p99 : t -> int

  val nonzero_buckets : t -> (int * int * int) list
  (** [(lo, hi, count)] per populated bucket, ascending. *)

  val bucket_of : int -> int
  val bucket_lo : int -> int
  val bucket_hi : int -> int

  val reset : t -> unit
  val pp : Format.formatter -> t -> unit
end

type histogram = Histogram.t

val throughput : work:float -> elapsed_ns:int -> float
(** Units of work per second of virtual time. *)
