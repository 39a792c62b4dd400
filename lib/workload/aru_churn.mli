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

(** {1 Traced variant (crash-consistency checking)} *)

type traced_params = {
  arus : int;  (** committed ARUs to run *)
  blocks_per_aru : int;  (** blocks each ARU allocates and writes *)
  flush_every : int;  (** [Lld.flush] after this many ARUs; 0 = only at the end *)
}

val run_traced : Lld_core.Lld.t -> Oracle.t -> traced_params -> unit
(** Each ARU creates a list and [blocks_per_aru] blocks with
    recognisable payloads and registers its expected committed state as
    an oracle unit; a final ARU is left open (never committed) so the
    checker can assert it never surfaces.  Identifiers are never reused
    (nothing is deleted), so oracle units stay unambiguous at every
    crash point. *)
