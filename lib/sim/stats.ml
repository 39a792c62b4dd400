let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | _ ->
    if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
    let sorted = List.sort compare xs in
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* ------------------------------------------------------------------ *)
(* Log2-bucket latency histograms.

   Bucket 0 counts the value 0; bucket i (i >= 1) counts values in
   [2^(i-1), 2^i - 1].  Exact count/sum/min/max ride along, so the mean
   is exact and percentile estimates can be clamped to the observed
   range.  Designed for virtual-clock latencies in nanoseconds: 63
   buckets cover the whole non-negative [int] range. *)

module Histogram = struct
  let num_buckets = 63

  type t = {
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
    buckets : int array;
  }

  let create () =
    { count = 0; sum = 0; min_v = max_int; max_v = 0; buckets = Array.make num_buckets 0 }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let i = ref 0 in
      let v = ref v in
      while !v > 0 do
        incr i;
        v := !v lsr 1
      done;
      min !i (num_buckets - 1)
    end

  let bucket_lo i = if i = 0 then 0 else 1 lsl (i - 1)

  let bucket_hi i =
    if i = 0 then 0
    else if i >= num_buckets - 1 then max_int
    else (1 lsl i) - 1

  let add t v =
    if v < 0 then invalid_arg "Stats.Histogram.add: negative value";
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v;
    let i = bucket_of v in
    t.buckets.(i) <- t.buckets.(i) + 1

  let count t = t.count
  let sum t = t.sum
  let min_ns t = if t.count = 0 then 0 else t.min_v
  let max_ns t = t.max_v
  let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

  let reset t =
    t.count <- 0;
    t.sum <- 0;
    t.min_v <- max_int;
    t.max_v <- 0;
    Array.fill t.buckets 0 num_buckets 0

  (* Nearest-rank percentile, same rank rule as [Stats.percentile]:
     rank = ceil(p/100 * n), then the bucket holding the rank-th sample.
     The estimate is the bucket's inclusive upper bound clamped to the
     observed range, so it never under-reports and is within a factor of
     two of the exact nearest-rank value. *)
  let percentile t p =
    if t.count = 0 then invalid_arg "Stats.Histogram.percentile: empty histogram";
    if p < 0. || p > 100. then
      invalid_arg "Stats.Histogram.percentile: p out of range";
    let rank =
      max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.count)))
    in
    let rec find i acc =
      if i >= num_buckets then t.max_v
      else begin
        let acc = acc + t.buckets.(i) in
        if acc >= rank then max t.min_v (min (bucket_hi i) t.max_v)
        else find (i + 1) acc
      end
    in
    find 0 0

  let p50 t = percentile t 50.
  let p95 t = percentile t 95.
  let p99 t = percentile t 99.

  let nonzero_buckets t =
    let acc = ref [] in
    for i = num_buckets - 1 downto 0 do
      if t.buckets.(i) > 0 then acc := (bucket_lo i, bucket_hi i, t.buckets.(i)) :: !acc
    done;
    !acc

  let pp ppf t =
    if t.count = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf "n=%d mean=%.0fns p50=%d p95=%d p99=%d max=%d" t.count
        (mean t) (p50 t) (p95 t) (p99 t) t.max_v
end

type histogram = Histogram.t

let throughput ~work ~elapsed_ns =
  if elapsed_ns <= 0 then invalid_arg "Stats.throughput: non-positive time";
  work /. (float_of_int elapsed_ns /. 1e9)
