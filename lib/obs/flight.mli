(** Flight recorder: an always-on black box of recent structured events.

    A bounded ring of cheap structured entries (category, name, integer/
    string arguments, virtual-ns timestamp) designed to run in every
    configuration — including ones where the span tracer is off — so
    that a crashcheck failure, differ divergence, or recovery invariant
    error can dump the last few thousand things the system did.  Like
    {!Trace}, recording only reads the virtual clock and never charges
    it, so an enabled flight recorder cannot perturb the cost model. *)

type entry = {
  fl_ns : int;
  fl_cat : string;
  fl_name : string;
  fl_args : (string * Trace.arg) list;
}

type t

val disabled : t
(** A recorder that records nothing; every probe on it is a no-op. *)

val create : ?capacity:int -> clock:Lld_sim.Clock.t -> unit -> t
(** Live recorder over [clock].  [capacity] bounds the ring (default
    4096 entries). *)

val enabled : t -> bool
val record : t -> string -> string -> (string * Trace.arg) list -> unit
val capacity : t -> int

val count : t -> int
(** Total entries recorded since creation (including overwritten). *)

val dropped : t -> int
(** Entries lost to ring overwrite. *)

val clear : t -> unit

val entries : t -> entry list
(** Entries currently held, oldest first. *)

val to_jsonl_string : t -> string
val write_jsonl_file : t -> string -> unit
