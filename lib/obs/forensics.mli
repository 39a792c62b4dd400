(** Forensics bundles: dump everything an {!Obs.t} holds next to a
    failing check.

    A bundle is three files sharing a stem under [dir]:
    [<label>.flight.jsonl] (the black-box ring, in {!Trace}'s JSONL
    shape: [name], [cat], [ts_ns], [dur_ns] on spans, [flow]/[flow_id]
    on flow links, [args]), [<label>.trace.json] (the Chrome trace
    ring, Perfetto-loadable), and [<label>.metrics.json] (counters,
    gauges, histogram summaries).  Disabled or empty rings still
    produce their file, so bundles always have the same shape. *)

val ensure_dir : string -> unit
(** Create the directory and any missing parents.  Raises [Sys_error]
    when one cannot be created. *)

val dump : dir:string -> label:string -> Obs.t -> string list
(** [dump ~dir ~label obs] creates [dir] (and its parents) if needed,
    writes the bundle, and returns the paths written. *)
