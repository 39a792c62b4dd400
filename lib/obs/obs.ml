module Clock = Lld_sim.Clock

type t = {
  active : bool;
  clock : Clock.t;
  trace : Trace.t;
  flight : Trace.t; (* the black box: every category, the last events *)
  metrics : Metrics.t;
}

let null =
  {
    active = false;
    clock = Clock.create ();
    trace = Trace.disabled;
    flight = Trace.disabled;
    metrics = Metrics.create ();
  }

let black_box ?(capacity = 4096) clock = Trace.create ~capacity ~clock ()

let create ?capacity ?categories ?flight_capacity ~clock () =
  {
    active = true;
    clock;
    trace = Trace.create ?capacity ?categories ~clock ();
    flight = black_box ?capacity:flight_capacity clock;
    metrics = Metrics.create ();
  }

(* The black-box configuration: no tracer, no histogram sampling, just
   the bounded event ring.  Cheap enough to leave on everywhere. *)
let flight_only ?capacity ~clock () =
  {
    active = false;
    clock;
    trace = Trace.disabled;
    flight = black_box ?capacity clock;
    metrics = Metrics.create ();
  }

let active t = t.active
let trace t = t.trace
let flight t = t.flight
let metrics t = t.metrics
let recording t = t.active || Trace.enabled t.flight

(* [env_default ~clock obs] upgrades a fully inert handle to a
   flight-only one when LLD_FLIGHT=1, so every Lld instance carries a
   black box without callers opting in.  A handle the caller already
   made live is returned unchanged. *)
let env_default ~clock obs =
  if recording obs then obs
  else
    match Sys.getenv_opt "LLD_FLIGHT" with
    | Some "1" -> flight_only ~clock ()
    | _ -> obs

(* One event, recorded in the black box (every category, when enabled)
   and in the tracer (its categories, when the handle is active). *)
let record t ?flow cat name ~ts_ns ~dur_ns args =
  let ev =
    {
      Trace.ev_name = name;
      ev_cat = cat;
      ev_ts_ns = ts_ns;
      ev_dur_ns = dur_ns;
      ev_args = args;
      ev_flow = flow;
    }
  in
  Trace.record t.flight ev;
  if t.active then Trace.record t.trace ev

(* A structured event: a flow-chain link when [flow] is given, a plain
   instant otherwise. *)
let event t ?flow cat name args =
  if recording t then
    record t ?flow cat name ~ts_ns:(Clock.now_ns t.clock) ~dur_ns:(-1) args

let complete t cat name ~ts_ns ~dur_ns args =
  if t.active then Trace.complete t.trace cat name ~ts_ns ~dur_ns args

(* Histogram key for a span: "<category>.<name>", e.g. "op.read". *)
let hist_key cat name = Trace.category_label cat ^ "." ^ name

(* Time [f] on the virtual clock: record a span in both rings and feed
   the duration into the matching histogram.  On an exception the span
   is still recorded (tagged "exn") but the duration is not counted in
   the histogram — an interrupted operation is not a completed-latency
   sample. *)
let timed t cat name ?(args = []) f =
  if not (recording t) then f ()
  else begin
    let ts = Clock.now_ns t.clock in
    let finish args =
      record t cat name ~ts_ns:ts ~dur_ns:(max 0 (Clock.now_ns t.clock - ts))
        args
    in
    match f () with
    | v ->
      if t.active then
        Metrics.observe t.metrics (hist_key cat name) (Clock.now_ns t.clock - ts);
      finish args;
      v
    | exception e ->
      finish (("exn", Trace.S (Printexc.to_string e)) :: args);
      raise e
  end

let observe t name v = if t.active then Metrics.observe t.metrics name v

let register_gauge t ~name ~help read =
  if t.active then Metrics.register_gauge t.metrics ~name ~help read

let register_counter t ~name ~help read =
  if t.active then Metrics.register_counter t.metrics ~name ~help read
