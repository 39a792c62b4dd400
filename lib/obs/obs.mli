(** Observability handle: two {!Trace} rings — the tracer and the
    black box (flight recorder) — and a {!Metrics} registry behind one
    switch.  The black box records every category in a small ring;
    {!event} and {!timed} record the same event in both.

    Components take an [Obs.t] and default to {!null}, on which every
    probe is an immediate no-op — no allocation, no clock reads — so the
    cost model and reproduction numbers are untouched unless a caller
    explicitly attaches a live handle ({!create}), or the environment
    asks for the black box ({!env_default}).  Probes never charge the
    virtual clock; they only read it. *)

type t

val null : t
(** The inert handle: [active null = false], all probes are no-ops. *)

val create :
  ?categories:Trace.category list -> clock:Lld_sim.Clock.t -> unit -> t
(** Live handle stamping events on [clock].  [categories] is passed to
    {!Trace.create} for the tracer (a ring of 65536 events);
    the black box is enabled too (the last 4096 events, every
    category). *)

val flight_only : clock:Lld_sim.Clock.t -> unit -> t
(** A black-box handle: no tracer, no histograms, just the bounded
    black-box ring (the last 4096 events).  [active] is false on it —
    only {!event} and {!timed} leave a record. *)

val env_default : clock:Lld_sim.Clock.t -> t -> t
(** [env_default ~clock obs] returns [obs] unchanged when it records
    anything; otherwise, when the [LLD_FLIGHT=1] environment variable
    is set, upgrades it to {!flight_only} so every instance carries an
    always-on black box. *)

val active : t -> bool
val trace : t -> Trace.t

val flight : t -> Trace.t
(** The black box; {!Trace.disabled} on {!null}. *)

val metrics : t -> Metrics.t

val recording : t -> bool
(** True when any probe on this handle leaves a record (tracer active
    or black box enabled). *)

val event :
  t -> ?flow:Trace.flow_phase * int -> Trace.category -> string ->
  (string * Trace.arg) list -> unit
(** Structured event at the current virtual time, recorded in the black
    box (when enabled) and in the tracer (when active) — as a
    causality-chain link when [flow] is given (see {!Trace.flow}), as a
    plain instant otherwise. *)

val complete :
  t -> Trace.category -> string -> ts_ns:int -> dur_ns:int ->
  (string * Trace.arg) list -> unit
(** Record an already-measured span in the tracer (active handles
    only; the black box does not see it). *)

val timed :
  t -> Trace.category -> string -> ?args:(string * Trace.arg) list ->
  (unit -> 'a) -> 'a
(** [timed t cat name f] runs [f], records a span (its start and
    virtual duration) in the black box and the tracer, and feeds the
    duration into the histogram keyed ["<cat>.<name>"] (e.g.
    ["op.read"]; active handles only).  If [f] raises, the span is
    recorded (tagged ["exn"]) but no histogram sample is taken.
    Exactly [f ()] when nothing records. *)

val hist_key : Trace.category -> string -> string

val observe : t -> string -> int -> unit
(** Record a pre-measured duration in the named histogram. *)

val register_gauge : t -> name:string -> help:string -> (unit -> int) -> unit

val register_counter :
  t -> name:string -> help:string -> (unit -> int) -> unit
(** Register a monotone counter in the registry (active handles
    only); see {!Metrics.register_counter}. *)
