module Clock = Lld_sim.Clock
module Lld = Lld_core.Lld
module Counters = Lld_core.Counters

type params = { count : int }

let paper = { count = 500_000 }

type result = {
  count : int;
  elapsed_ns : int;
  latency_us : float;
  segments_written : int;
}

let run lld (p : params) =
  let clock = Lld.clock lld in
  let t0 = Clock.now_ns clock in
  let segs0 = (Lld.counters lld).Counters.segments_written in
  for _ = 1 to p.count do
    let a = Lld.begin_aru lld in
    Lld.end_aru lld a
  done;
  Lld.flush lld;
  let elapsed_ns = Clock.now_ns clock - t0 in
  {
    count = p.count;
    elapsed_ns;
    latency_us = float_of_int elapsed_ns /. 1e3 /. float_of_int p.count;
    segments_written = (Lld.counters lld).Counters.segments_written - segs0;
  }
