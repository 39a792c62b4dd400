module Clock = Lld_sim.Clock
module Lld = Lld_core.Lld
module Counters = Lld_core.Counters
module Summary = Lld_core.Summary

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

(* ------------------------------------------------------------------ *)
(* Oracle-producing variant for the crash-consistency checker: each
   ARU creates one list and a few blocks with recognisable payloads,
   and registers its expected committed state with the oracle.  One
   final ARU is deliberately left open — at no crash point may any of
   its effects surface. *)

type traced_params = { arus : int; blocks_per_aru : int; flush_every : int }

let payload ~block_bytes ~aru ~slot =
  let b = Bytes.make block_bytes '\000' in
  let tag = Printf.sprintf "churn-%d-%d:" aru slot in
  Bytes.blit_string tag 0 b 0 (String.length tag);
  for i = String.length tag to block_bytes - 1 do
    Bytes.set b i (Char.chr ((aru * 131 + slot * 31 + i) land 0xff))
  done;
  b

let one_aru lld oracle ~index ~blocks_per_aru ~must_not_commit =
  let block_bytes = Lld.block_bytes lld in
  let a = Lld.begin_aru lld in
  let l = Lld.new_list lld ~aru:a () in
  let blocks = ref [] in
  let prev = ref None in
  for j = 0 to blocks_per_aru - 1 do
    let pred =
      match !prev with None -> Summary.Head | Some b -> Summary.After b
    in
    let b = Lld.new_block lld ~aru:a ~list:l ~pred () in
    let data = payload ~block_bytes ~aru:index ~slot:j in
    Lld.write lld ~aru:a b data;
    blocks := (b, data) :: !blocks;
    prev := Some b
  done;
  if not must_not_commit then Lld.end_aru lld a;
  Oracle.add_blocks oracle
    ~label:
      (Printf.sprintf "aru-%d%s" index (if must_not_commit then "-open" else ""))
    ~must_not_commit ~lists:[ l ] (List.rev !blocks)

let run_traced lld oracle (p : traced_params) =
  for i = 0 to p.arus - 1 do
    one_aru lld oracle ~index:i ~blocks_per_aru:p.blocks_per_aru
      ~must_not_commit:false;
    if p.flush_every > 0 && (i + 1) mod p.flush_every = 0 then Lld.flush lld
  done;
  (* an ARU whose commit record is never written: recovery must discard
     it wholesale at every crash point, including the final image *)
  one_aru lld oracle ~index:p.arus ~blocks_per_aru:p.blocks_per_aru
    ~must_not_commit:true;
  Lld.flush lld
