(** Metrics registry: named latency histograms plus gauges sampled from
    live state.

    Histograms are created on first use and keyed by name (convention:
    ["op.read"], ["recovery.replay"], …).  Gauges are registered with a
    closure over live state and sampled at read time, so they always
    reflect the current structure occupancy (free segments, cache
    residency, live-index utilisation, …). *)

type t

val create : unit -> t

val histogram : t -> string -> Lld_sim.Stats.Histogram.t
(** Find-or-create the named histogram. *)

val observe : t -> string -> int -> unit
(** [observe t name v] records [v] (nanoseconds) in the named
    histogram. *)

val histograms : t -> (string * Lld_sim.Stats.Histogram.t) list
(** All histograms in first-use order. *)

val find_histogram : t -> string -> Lld_sim.Stats.Histogram.t option
val reset_histograms : t -> unit

val register_gauge : t -> name:string -> help:string -> (unit -> int) -> unit
(** Register a live gauge; [read] is called at each sampling.
    Re-registering a name replaces the previous closure (same row, new
    source), so re-mounting cannot duplicate gauges. *)

val register_counter :
  t -> name:string -> help:string -> (unit -> int) -> unit
(** Register a monotone counter sampled from live state.  Same
    replace-by-name semantics as {!register_gauge}; kept separate so the
    OpenMetrics exposition can type each family correctly. *)

val sample_gauges : t -> (string * int * string) list
(** [(name, current value, help)] in registration order. *)

val sample_counters : t -> (string * int * string) list
(** [(name, current value, help)] in registration order. *)

val pp : Format.formatter -> t -> unit

val to_json_string : t -> string
(** [{"counters":{...},"gauges":{...},"histograms":{...}}] with
    per-histogram count/sum/min/max/mean/p50/p95/p99. *)

val to_openmetrics_string : t -> string
(** OpenMetrics / Prometheus text exposition: counters as
    [name_total], gauges plain, histograms with cumulative
    [name_bucket{le="..."}] rows ending in [le="+Inf"] plus
    [name_sum]/[name_count].  Names are sanitised (dots to
    underscores) and prefixed [lld_]; the output ends with
    [# EOF]. *)
