(** The ARU-latency experiment of paper §5.3: begin and end an empty
    ARU [count] times (paper: 500,000), measuring the latency per ARU
    and the number of segments written with the commit records (paper:
    78.47 µs and 24 segments). *)

type params = { count : int }

val paper : params

type result = {
  count : int;
  elapsed_ns : int;
  latency_us : float;  (** per Begin/End pair *)
  segments_written : int;
}

val run : Lld_core.Lld.t -> params -> result
(** The logical disk's clock is assumed to be at the epoch (use
    {!Setup.make_raw}). *)
