module Blk = Lld_util.Blk

type counters = {
  writes : int;
  reads : int;
  bytes_written : int;
  bytes_read : int;
}

type observer = index:int -> offset:int -> data:Blk.t -> unit

type t = {
  geom : Geometry.t;
  fault : Fault.t;
  clock : Lld_sim.Clock.t;
  backend : Backend.t; (* the raw store *)
  mutable last_end : int; (* byte position after the previous request; -1 = cold *)
  mutable observer : observer option;
  mutable obs : Lld_obs.Obs.t;
  mutable writes : int;
  mutable reads : int;
  mutable bytes_written : int;
  mutable bytes_read : int;
}

(* Charge the mechanical cost of a request and, when an observability
   handle is attached, record a [disk] span with the seek/transfer
   breakdown.  The span brackets exactly the charged interval, so trace
   durations equal the cost-model charge. *)
let charge t op ~offset ~length =
  let b =
    Timing.request_breakdown t.geom ~last_end:t.last_end ~offset ~length
  in
  let ns = b.Timing.position_ns + b.Timing.xfer_ns in
  let module Obs = Lld_obs.Obs in
  if Obs.active t.obs then begin
    let ts = Lld_sim.Clock.now_ns t.clock in
    Lld_sim.Clock.charge t.clock Lld_sim.Clock.Io ns;
    Obs.observe t.obs ("disk." ^ op) ns;
    Obs.observe t.obs ("disk." ^ op ^ ".position") b.Timing.position_ns;
    Obs.complete t.obs Lld_obs.Trace.Disk op ~ts_ns:ts ~dur_ns:ns
      [
        ("offset", Lld_obs.Trace.I offset);
        ("length", Lld_obs.Trace.I length);
        ("position_ns", Lld_obs.Trace.I b.Timing.position_ns);
        ("transfer_ns", Lld_obs.Trace.I b.Timing.xfer_ns);
        ( "position",
          Lld_obs.Trace.S (Timing.position_kind_label b.Timing.kind) );
      ]
  end
  else Lld_sim.Clock.charge t.clock Lld_sim.Clock.Io ns;
  t.last_end <- offset + length

let make ~clock geom backend =
  if backend.Backend.size <> Geometry.total_bytes geom then
    invalid_arg "Disk: backend size does not match the geometry";
  {
    geom;
    fault = Fault.none ();
    clock;
    backend;
    last_end = -1;
    observer = None;
    obs = Lld_obs.Obs.null;
    writes = 0;
    reads = 0;
    bytes_written = 0;
    bytes_read = 0;
  }

let create ?backend ~clock geom =
  let backend =
    match backend with
    | Some b -> b
    | None -> Backend.mem ~size:(Geometry.total_bytes geom)
  in
  make ~clock geom backend

let load ~clock geom image =
  if Bytes.length image <> Geometry.total_bytes geom then
    invalid_arg "Disk.load: image size does not match the geometry";
  make ~clock geom (Backend.of_bytes image)

(* Queued [Fault.corrupt_sector] bit-rot is applied straight to the raw
   store, bypassing the fault plan, the charge and the meter: silent
   media decay charges nothing to the virtual clock, counts no write,
   and wakes no observer — exactly like real rot, it is only visible to
   whoever checks the checksums. *)
let apply_corruption t =
  List.iter
    (fun (offset, length) ->
      if offset < 0 || length < 0 || offset + length > t.backend.Backend.size
      then invalid_arg "Disk: corruption outside the partition";
      let v = t.backend.Backend.read ~offset ~length in
      for i = 0 to length - 1 do
        let mask = ((i * 131) + 7) land 0xff lor 1 in
        Blk.set_u8 v i (Blk.get_u8 v i lxor mask)
      done;
      t.backend.Backend.write ~offset v)
    (Fault.take_corruption t.fault)

let maybe_corrupt t =
  if Fault.corruption_pending t.fault then apply_corruption t

let snapshot_view t =
  maybe_corrupt t;
  t.backend.Backend.snapshot ()

let snapshot t = Blk.to_bytes (snapshot_view t)

let barrier t = t.backend.Backend.barrier ()
let close t = t.backend.Backend.close ()
let backend_label t = t.backend.Backend.label

let set_observer t obs = t.observer <- obs
let set_obs t obs = t.obs <- obs

let geometry t = t.geom
let fault t = t.fault
let clock t = t.clock

let check_range t ~offset ~length =
  if offset < 0 || length < 0 || offset + length > t.backend.Backend.size then
    invalid_arg "Disk: request outside the partition"

(* Every request passes, in order: the fault plan, the charge, the
   store, then the counters and the write observer.  The fault plan
   comes first so a crashed device charges nothing and a torn write
   charges, stores and shows the observer only its surviving prefix;
   the meter comes last so it counts exactly what reached the store. *)
let store_write t ~offset data =
  charge t "write" ~offset ~length:(Blk.length data);
  t.backend.Backend.write ~offset data;
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + Blk.length data;
  match t.observer with
  | None -> ()
  | Some f -> f ~index:(t.writes - 1) ~offset ~data

let write_view t ~offset data =
  check_range t ~offset ~length:(Blk.length data);
  maybe_corrupt t;
  match Fault.on_write t.fault ~length:(Blk.length data) with
  | `Ok -> store_write t ~offset data
  | `Torn keep ->
    (* the prefix reached the medium before power was lost; the slice
       is a view — no copy on the crash path either *)
    store_write t ~offset (Blk.sub data 0 keep);
    raise Fault.Crashed

let read_view t ~offset ~length =
  check_range t ~offset ~length;
  maybe_corrupt t;
  if Fault.crashed t.fault then raise Fault.Crashed;
  Fault.check_read t.fault ~offset ~length;
  charge t "read" ~offset ~length;
  let data = t.backend.Backend.read ~offset ~length in
  t.reads <- t.reads + 1;
  t.bytes_read <- t.bytes_read + length;
  data

let write t ~offset data = write_view t ~offset (Blk.of_bytes data)
let read t ~offset ~length = Blk.to_bytes (read_view t ~offset ~length)

let crash t =
  Fault.schedule_crash t.fault (Fault.After_writes 0);
  try write t ~offset:0 (Bytes.make 1 'x') with Fault.Crashed -> ()

let counters t =
  {
    writes = t.writes;
    reads = t.reads;
    bytes_written = t.bytes_written;
    bytes_read = t.bytes_read;
  }

let reset_counters t =
  t.writes <- 0;
  t.reads <- 0;
  t.bytes_written <- 0;
  t.bytes_read <- 0
