(** Span/event tracer on the simulator's virtual clock.

    Events are stamped with {!Lld_sim.Clock.now_ns} — never wall time —
    so a trace is a deterministic function of the workload and
    configuration.  Events land in a bounded ring buffer: when it fills,
    the oldest events are overwritten and {!dropped} reports how many
    were lost.  Recording costs no virtual time (the tracer only reads
    the clock), so enabling a trace cannot perturb the cost model.

    Export targets the Chrome trace-event JSON format (loadable in
    Perfetto / [chrome://tracing]; timestamps in microseconds) and a
    JSONL sidecar keeping exact nanosecond integers. *)

type category = Op | Disk | Aru | Clean | Recovery | Checkpoint | Fs

val category_label : category -> string

(** Event argument payload, rendered into the [args] JSON object. *)
type arg = I of int | S of string | F of float

(** Phase of a causality-chain link: Chrome flow events ([ph] "s"/"t"/
    "f").  Flow events sharing the same (name, category, id) triple are
    rendered by Perfetto as connected arrows across slices. *)
type flow_phase = Flow_start | Flow_step | Flow_end

type event = {
  ev_name : string;
  ev_cat : category;
  ev_ts_ns : int;
  ev_dur_ns : int;  (** [-1] marks an instant event *)
  ev_args : (string * arg) list;
  ev_flow : (flow_phase * int) option;
}

type t

val disabled : t
(** A tracer that records nothing; every probe on it is a no-op. *)

val create :
  ?capacity:int -> ?categories:category list -> clock:Lld_sim.Clock.t ->
  unit -> t
(** Live tracer over [clock].  [capacity] bounds the ring buffer
    (default 65536 events); [categories] restricts recording (default:
    all). *)

val enabled : t -> bool
val on : t -> category -> bool
(** [on t cat] is true when events of [cat] would be recorded. *)

val record : t -> event -> unit
(** Record an already-built event when its category is on.  {!Obs}
    builds each event once and records it in both of its rings. *)

val instant : t -> category -> string -> (string * arg) list -> unit
(** Record a zero-duration marker at the current virtual time. *)

val flow :
  t -> category -> string -> phase:flow_phase -> id:int ->
  (string * arg) list -> unit
(** Record one link of a causality chain at the current virtual time.
    Links with equal (name, category, [id]) bind into one arrow chain:
    emit [Flow_start] where a request enters, [Flow_step] at each hop,
    and [Flow_end] where it completes. *)

val complete :
  t -> category -> string -> ts_ns:int -> dur_ns:int ->
  (string * arg) list -> unit
(** Record an already-measured span. *)

val count : t -> int
(** Total events recorded since creation (including overwritten). *)

val dropped : t -> int
(** Events lost to ring-buffer overwrite. *)

val now_ns : t -> int
val clear : t -> unit

val events : t -> event list
(** Events currently held, oldest first. *)

val json_escape : string -> string
(** Escape a string for inclusion inside a JSON string literal. *)

val to_chrome_string : t -> string
val to_jsonl_string : t -> string
val write_chrome_file : t -> string -> unit
val write_jsonl_file : t -> string -> unit
