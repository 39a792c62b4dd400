(* The four workloads.  Each [run] performs one round: set up a fresh
   instance, run the timed phase (a fixed number of ops derived from
   [scale]; the seed drives only the generator), then check the outputs
   untimed.  With [traced] the timed phase goes through [Timed] and a
   wrapped backend and the round also returns the per-layer metrics. *)

module Clock = Lld_sim.Clock
module Rng = Lld_sim.Rng
module Blk = Lld_util.Blk
module Vec = Lld_util.Vec
module Geometry = Lld_disk.Geometry
module Backend = Lld_disk.Backend
module Disk = Lld_disk.Disk
module Fault = Lld_disk.Fault
module Config = Lld_core.Config
module Counters = Lld_core.Counters
module Lld = Lld_core.Lld
module Op = Lld_core.Op
module Summary = Lld_core.Summary
module Recovery = Lld_core.Recovery
module Obs = Lld_obs.Obs
module Trace = Lld_obs.Trace
module Crashcheck = Lld_crashcheck.Crashcheck

(* Every field is spelled out: [Config.default] reads
   LLD_GROUP_COMMIT_WINDOW, LLD_GROUP_COMMIT_BATCH and LLD_SCRUB_ON_MOUNT
   from the environment.  Recovery replays on one domain so the benchmark
   stays one thread. *)
let config =
  {
    Config.mode = Config.Concurrent;
    visibility = Config.Own_shadow;
    cost = Lld_sim.Cost.sparc5_70;
    cache_blocks = 2048;
    readahead = true;
    auto_clean = true;
    clean_policy = Config.Cost_benefit;
    clean_reserve_segments = 4;
    checkpoint_interval_segments = 0;
    checkpoint_dirty_threshold = 4096;
    recovery_sweep = true;
    recovery_parallel = false;
    recovery_early_open = false;
    group_commit_window = 200_000;
    group_commit_batch = 32;
    scrub_on_mount = false;
  }

type params = { seed : int; scale : float; dir : string; traced : bool }

type round = {
  backend : string;  (** ["mem"] or ["file"] *)
  setup_ns : int;
  ops : int;
  failed : int;  (** ops that raised or returned an error *)
  bad_checks : int;  (** failed output checks *)
  problems : string list;  (** the first few failures, for the report *)
  wall_ns : int;  (** real time of the timed phase *)
  vns : int;  (** virtual time of the timed phase *)
  lat_w : int array;  (** per-op real latency, ns *)
  lat_v : int array;  (** per-op virtual latency, ns *)
  write_amp : float;
  space_amp : float;
  layers : (string * float) list;  (** per-layer metrics; [] untraced *)
  async : (int * string * int * int * int * int) list;
      (** ops that are not root spans, for the trace file *)
}

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))
let fdiv a b = if b = 0. then 0. else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)

let layer_names =
  List.concat_map
    (fun op ->
      [
        ("lld." ^ op ^ ".calls", "count");
        ("lld." ^ op ^ ".us", "us");
        ("lld." ^ op ^ ".vus", "vus");
      ])
    Timed.ops
  @ [
      ("lld.mesh_hops_per_op", "1/op");
      ("lld.record_creates_per_op", "1/op");
      ("lld.record_transitions_per_op", "1/op");
      ("lld.pred_search_hops_per_op", "1/op");
      ("lld.summary_entries_per_op", "1/op");
      ("lld.bytes_copied_per_op", "B/op");
      ("engine.batch_mean", "arus");
      ("engine.forced_flush_frac", "frac");
      ("engine.commit_wait_us_p50", "us");
      ("engine.commit_wait_vus_p50", "vus");
      ("engine.commit_wait_vus_p99", "vus");
      ("log.segments_written_per_op", "1/op");
      ("log.barriers_per_commit", "ratio");
      ("log.mean_batch", "arus");
      ("cleaner.segments_cleaned_per_op", "1/op");
      ("cleaner.live_copied_per_cleaned", "blocks");
      ("cleaner.disk_reads_per_victim", "ratio");
      ("cleaner.victim_scans_per_pick", "ratio");
      ("cache.hit_rate", "frac");
      ("cache.readaheads_per_op", "1/op");
      ("disk.reads_per_op", "1/op");
      ("disk.writes_per_op", "1/op");
      ("disk.read_bytes_per_op", "B/op");
      ("disk.write_bytes_per_op", "B/op");
      ("disk.io_vshare", "frac");
      ("disk.cpu_vshare", "frac");
      ("backend.read.us", "us");
      ("backend.write.us", "us");
      ("backend.barrier.us", "us");
      ("backend.barriers_per_op", "1/op");
      ("backend.wall_share", "frac");
      ("recovery.segments_replayed", "count");
      ("recovery.disk_reads", "count");
      ("recovery.replay_groups", "count");
      ("recovery.entries_applied", "count");
      ("recovery.blocks_scavenged", "count");
      ("recovery.parallel_frac", "frac");
      ("checkpoint.count", "count");
    ]
  @ List.map
      (fun ph -> ("recovery." ^ ph ^ ".vus", "vus"))
      [ "checkpoint_restore"; "replay"; "partition"; "apply"; "sweep" ]
  @ List.concat_map
      (fun op ->
        [
          ("fs." ^ op ^ ".calls", "count");
          ("fs." ^ op ^ ".us", "us");
          ("fs." ^ op ^ ".vus", "vus");
        ])
      [ "create"; "write_file"; "read_file"; "unlink" ]
  @ [
      ("fs.ld_calls_per_op", "1/op");
      ("crashcheck.image.us", "us");
      ("crashcheck.recover.us", "us");
      ("crashcheck.check.us", "us");
      ("crashcheck.torn_frac", "frac");
      ("gc.minor_words_per_op", "words/op");
      ("gc.promoted_words_per_op", "words/op");
      ("gc.major_collections", "count");
      ("trace.overhead_frac", "frac");
    ]

(* A meter accumulates the growth of every counter the layers expose
   over the intervals it runs: Lld counters, device counters, virtual
   clock categories, GC statistics and wall time. *)
let meter_keys =
  List.map (fun (n, _, _) -> n) Counters.fields
  @ [
      "dev.reads"; "dev.writes"; "dev.bytes_read"; "dev.bytes_written";
      "clk.cpu"; "clk.io"; "clk.now"; "gc.minor"; "gc.promoted"; "gc.major";
      "wall";
    ]

type meter = {
  read : unit -> int array;
  acc : int array;
  mutable base : int array;
}

let reading ~counters ~disk ~clock () =
  let g = Gc.quick_stat () in
  let d =
    match disk with
    | Some d -> Disk.counters d
    | None -> { Disk.reads = 0; writes = 0; bytes_read = 0; bytes_written = 0 }
  in
  let ck cat = match clock with Some c -> Clock.total_ns c cat | None -> 0 in
  Array.of_list
    (List.map (fun (_, get, _) -> get (counters ())) Counters.fields
    @ [
        d.Disk.reads; d.Disk.writes; d.Disk.bytes_read; d.Disk.bytes_written;
        ck Clock.Cpu; ck Clock.Io;
        (match clock with Some c -> Clock.now_ns c | None -> 0);
        int_of_float g.Gc.minor_words; int_of_float g.Gc.promoted_words;
        g.Gc.major_collections; Span.now_ns ();
      ])

let meter read =
  { read; acc = Array.make (List.length meter_keys) 0; base = read () }

let meter_start m = m.base <- m.read ()

let meter_stop m =
  let now = m.read () in
  Array.iteri (fun i v -> m.acc.(i) <- m.acc.(i) + v - m.base.(i)) now

let meter_get m =
  let idx = Hashtbl.create 64 in
  List.iteri (fun i k -> Hashtbl.replace idx k i) meter_keys;
  fun k -> m.acc.(Hashtbl.find idx k)

(* Per-layer metrics of one traced round: counters from the meter, self
   times from the spans, plus the workload's own [extra] values.  Names
   a workload does not exercise read 0. *)
let layer_metrics ~ops ~meter ~extra =
  let g = meter_get meter in
  let agg = Span.aggregate () in
  let per_op k = idiv (g k) ops in
  let mean_us s =
    let a = agg s in
    idiv a.Span.self_w a.Span.calls /. 1e3
  in
  let mean_vus s =
    let a = agg s in
    idiv a.Span.self_v a.Span.calls /. 1e3
  in
  let span_rows prefix names =
    List.concat_map
      (fun op ->
        let s = prefix ^ op in
        [
          (s ^ ".calls", float_of_int (agg s).Span.calls);
          (s ^ ".us", mean_us s);
          (s ^ ".vus", mean_vus s);
        ])
      names
  in
  let backend_self =
    List.fold_left
      (fun acc s -> acc + (agg s).Span.self_w)
      0
      [ "backend.read"; "backend.write"; "backend.barrier" ]
  in
  let ld_calls =
    List.fold_left (fun acc op -> acc + (agg ("lld." ^ op)).Span.calls) 0 Timed.ops
  in
  let fs_ops = [ "create"; "write_file"; "read_file"; "unlink" ] in
  let fs_calls =
    List.fold_left (fun acc op -> acc + (agg ("fs." ^ op)).Span.calls) 0 fs_ops
  in
  let measured =
    span_rows "lld." Timed.ops
    @ [
        ("lld.mesh_hops_per_op", per_op "mesh_hops");
        ("lld.record_creates_per_op", per_op "record_creates");
        ("lld.record_transitions_per_op", per_op "record_transitions");
        ("lld.pred_search_hops_per_op", per_op "pred_search_hops");
        ("lld.summary_entries_per_op", per_op "summary_entries");
        ("lld.bytes_copied_per_op", per_op "bytes_copied");
        ("log.segments_written_per_op", per_op "segments_written");
        ( "log.barriers_per_commit",
          idiv (g "commit_barriers") (g "arus_committed") );
        ("log.mean_batch", idiv (g "group_commits") (g "commit_batches"));
        ("cleaner.segments_cleaned_per_op", per_op "segments_cleaned");
        ( "cleaner.live_copied_per_cleaned",
          idiv (g "blocks_copied_clean") (g "segments_cleaned") );
        ( "cleaner.disk_reads_per_victim",
          idiv (g "clean_disk_reads") (g "segments_cleaned") );
        ( "cleaner.victim_scans_per_pick",
          idiv (g "victim_scans") (g "clean_picks") );
        ( "cache.hit_rate",
          idiv (g "cache_hits") (g "cache_hits" + g "cache_misses") );
        ("cache.readaheads_per_op", per_op "readaheads");
        ("disk.reads_per_op", per_op "dev.reads");
        ("disk.writes_per_op", per_op "dev.writes");
        ("disk.read_bytes_per_op", per_op "dev.bytes_read");
        ("disk.write_bytes_per_op", per_op "dev.bytes_written");
        ("disk.io_vshare", idiv (g "clk.io") (g "clk.now"));
        ("disk.cpu_vshare", idiv (g "clk.cpu") (g "clk.now"));
        ("backend.read.us", mean_us "backend.read");
        ("backend.write.us", mean_us "backend.write");
        ("backend.barrier.us", mean_us "backend.barrier");
        ( "backend.barriers_per_op",
          idiv (agg "backend.barrier").Span.calls ops );
        ("backend.wall_share", idiv backend_self (g "wall"));
        ("checkpoint.count", float_of_int (g "checkpoints"));
      ]
    @ span_rows "fs." fs_ops
    @ [
        ("fs.ld_calls_per_op", idiv ld_calls fs_calls);
        ("gc.minor_words_per_op", per_op "gc.minor");
        ("gc.promoted_words_per_op", per_op "gc.promoted");
        ("gc.major_collections", float_of_int (g "gc.major"));
      ]
    @ extra
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layer_names) then
        invalid_arg ("undeclared per-layer metric " ^ name))
    measured;
  List.map
    (fun (name, _) ->
      (name, Option.value (List.assoc_opt name measured) ~default:0.))
    layer_names

(* Recovery reports and recovery phase spans of a round's recoveries. *)
type recoveries = {
  mutable reports : Recovery.report list;
  phases : (string, int) Hashtbl.t;  (** virtual ns per phase name *)
}

let recoveries () = { reports = []; phases = Hashtbl.create 8 }
let recovery_obs clock = Obs.create ~categories:[ Trace.Recovery ] ~clock ()

(* fold the phase spans a live handle recorded into [rc] *)
let add_phases rc obs =
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.ev_dur_ns >= 0 then
        Hashtbl.replace rc.phases e.Trace.ev_name
          (e.Trace.ev_dur_ns
          + Option.value (Hashtbl.find_opt rc.phases e.Trace.ev_name) ~default:0))
    (Trace.events (Obs.trace obs))

(* means per recovery *)
let recovery_layers rc =
  let n = List.length rc.reports in
  let mean f = idiv (List.fold_left (fun a r -> a + f r) 0 rc.reports) n in
  [
    ("recovery.segments_replayed", mean (fun r -> r.Recovery.segments_replayed));
    ("recovery.disk_reads", mean (fun r -> r.Recovery.disk_reads));
    ("recovery.replay_groups", mean (fun r -> r.Recovery.replay_groups));
    ("recovery.entries_applied", mean (fun r -> r.Recovery.entries_applied));
    ("recovery.blocks_scavenged", mean (fun r -> r.Recovery.blocks_scavenged));
    ( "recovery.parallel_frac",
      mean (fun r -> if r.Recovery.parallel_replay then 1 else 0) );
  ]
  @ List.map
      (fun ph ->
        ( "recovery." ^ ph ^ ".vus",
          idiv (Option.value (Hashtbl.find_opt rc.phases ph) ~default:0) n
          /. 1e3 ))
      [ "checkpoint_restore"; "replay"; "partition"; "apply"; "sweep" ]

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)

(* Latencies, failed ops and failed output checks of one round. *)
type tally = {
  w : int Vec.t;
  v : int Vec.t;
  mutable failed : int;
  mutable bad_checks : int;
  mutable problems : string list;  (** the first few, for the report *)
}

let tally () =
  { w = Vec.create (); v = Vec.create (); failed = 0; bad_checks = 0; problems = [] }

let note t msg = if List.length t.problems < 10 then t.problems <- msg :: t.problems

let fail_op t msg =
  t.failed <- t.failed + 1;
  note t msg

let fail_check t msg =
  t.bad_checks <- t.bad_checks + 1;
  note t msg

(* Time one synchronous op on both clocks; a root span when traced. *)
let timed_op t clock span f =
  let w0 = Span.now_ns () and v0 = Clock.now_ns clock in
  (match Span.op span f with
  | () -> ()
  | exception e -> fail_op t (Printexc.to_string e));
  Vec.push t.v (Clock.now_ns clock - v0);
  Vec.push t.w (Span.now_ns () - w0)

let to_array v = Array.of_list (Vec.to_list v)
let sum a = Array.fold_left ( + ) 0 a

(* nearest-rank percentile of an unsorted sample; 0 when empty *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

(* Deterministic block payload: a header naming (block, version, seed)
   over a fill byte derived from them. *)
let fill buf ~seed ~block ~version =
  Bytes.fill buf 0 (Bytes.length buf)
    (Char.chr (((block * 31) + (version * 7) + seed) land 0xff));
  Bytes.set_int64_le buf 0 (Int64.of_int block);
  Bytes.set_int64_le buf 8 (Int64.of_int version);
  Bytes.set_int64_le buf 16 (Int64.of_int seed)

(* The preloaded set: [n] blocks on lists of 128, each at version 0. *)
let preload lld ~seed n =
  let buf = Bytes.create (Lld.block_bytes lld) in
  let list = ref (Lld.new_list lld ()) and prev = ref None in
  Array.init n (fun i ->
      if i > 0 && i mod 128 = 0 then begin
        list := Lld.new_list lld ();
        prev := None
      end;
      let pred =
        match !prev with None -> Summary.Head | Some b -> Summary.After b
      in
      let b = Lld.new_block lld ~list:!list ~pred () in
      fill buf ~seed ~block:i ~version:0;
      Lld.write lld b buf;
      prev := Some b;
      b)

let preloaded = 8192

let space_amp lld =
  let geom = Disk.geometry (Lld.disk lld) in
  idiv
    (Lld.sealed_segments lld * geom.Geometry.segment_bytes)
    (Lld.allocated_blocks lld * Lld.block_bytes lld)

(* every block in [idx] reads back as its version in [versions] *)
let check_blocks t lld ~seed blocks versions idx =
  let buf = Bytes.create (Lld.block_bytes lld) in
  List.iter
    (fun i ->
      fill buf ~seed ~block:i ~version:versions.(i);
      match Lld.read lld blocks.(i) with
      | got when Bytes.equal got buf -> ()
      | _ ->
        fail_check t
          (Printf.sprintf "block %d does not hold version %d" i versions.(i))
      | exception e ->
        fail_check t (Printf.sprintf "block %d: %s" i (Printexc.to_string e)))
    idx

let since ns = Span.now_ns () - ns

(* [label] is a [Disk.backend_label]: "mem" or "file:<path>" *)
let finish ~label ~setup_ns ~ops t ~wall_ns ~vns ~write_amp ~space_amp ~layers
    ~async =
  {
    backend = List.hd (String.split_on_char ':' label);
    setup_ns;
    ops;
    failed = t.failed;
    bad_checks = t.bad_checks;
    problems = List.rev t.problems;
    wall_ns;
    vns;
    lat_w = to_array t.w;
    lat_v = to_array t.v;
    write_amp;
    space_amp;
    layers;
    async;
  }

(* ------------------------------------------------------------------ *)
(* The round bodies, over either [Lld] or [Timed]                     *)

module type LD = sig
  include module type of struct
    include Lld
  end

  val traced : bool
end

module Make (L : LD) = struct
  module E = Lld_core.Engine.Make (L)
  module F = Lld_minixfs.Fs_generic.Make (L)

  let traced = L.traced

  let device ~backend ~clock geom =
    Disk.create ~backend:(if traced then Timed.backend backend else backend)
      ~clock geom

  (* aru-sync: 4 engine clients, each a closed loop of ARUs that do 4
     reads and 2 writes over the preloaded set, on the file backend.  An
     op is one ARU, from Begin_aru until its commit wakes the client
     (durable). *)
  let aru_sync p =
    let s0 = Span.now_ns () in
    let geom = Geometry.v ~num_segments:200 () in
    let clock = Clock.create () in
    let disk =
      device ~clock geom
        ~backend:(Backend.temp_file ~dir:p.dir ~size:(Geometry.total_bytes geom) ())
    in
    Fun.protect ~finally:(fun () -> Disk.close disk) @@ fun () ->
    let lld = Lld.create ~config disk in
    let blocks = preload lld ~seed:p.seed preloaded in
    Lld.checkpoint lld;
    let setup_ns = since s0 in
    let arus_per_client = scaled p.scale 2000 in
    let bb = Lld.block_bytes lld in
    let versions = Array.make preloaded 0 in
    let next_version = ref 0 in
    let t = tally () in
    let wait_w = Vec.create () and wait_v = Vec.create () in
    let async = ref [] in
    let master = Rng.create ~seed:p.seed in
    let client () =
      let rng = Rng.split master in
      let buf = Bytes.create bb in
      let plan = Array.make 6 0 and pv = Array.make 2 0 in
      let remaining = ref arus_per_client and step = ref 0 in
      let aru = ref None and bad = ref false and op = ref 0 in
      let w0 = ref 0 and v0 = ref 0 and we = ref 0 and ve = ref 0 in
      fun (r : Op.result option) ->
        (match r with
        | Some (Op.R_error e) ->
          bad := true;
          note t e
        | _ -> ());
        if !step = 8 then begin
          (* woken: the commit is durable *)
          let w = Span.now_ns () and v = Clock.now_ns clock in
          Vec.push t.w (w - !w0);
          Vec.push t.v (v - !v0);
          Vec.push wait_w (w - !we);
          Vec.push wait_v (v - !ve);
          if traced then async := (!op, "aru", !w0, w, !v0, v) :: !async;
          (* a committed shadow version replaces the committed one only
             if it was written later (paper 3.1): keep the newest *)
          if !bad then t.failed <- t.failed + 1
          else begin
            versions.(plan.(2)) <- max versions.(plan.(2)) pv.(0);
            versions.(plan.(5)) <- max versions.(plan.(5)) pv.(1)
          end;
          bad := false;
          decr remaining;
          step := 0
        end;
        if !step = 0 then
          if !remaining = 0 then None
          else begin
            for k = 0 to 5 do
              plan.(k) <- Rng.int rng preloaded
            done;
            op := Span.fresh_op ();
            Span.set_op !op;
            w0 := Span.now_ns ();
            v0 := Clock.now_ns clock;
            step := 1;
            Some Op.Begin_aru
          end
        else begin
          if !step = 1 then
            aru := (match r with Some (Op.R_aru a) -> Some a | _ -> None);
          Span.set_op !op;
          match !aru with
          | None ->
            (* nothing to work in: count the ARU and stop this client *)
            t.failed <- t.failed + 1;
            None
          | Some a when !step <= 6 ->
            let k = !step - 1 in
            incr step;
            if k = 2 || k = 5 then begin
              incr next_version;
              pv.(k / 3) <- !next_version;
              fill buf ~seed:p.seed ~block:plan.(k) ~version:!next_version;
              Some (Op.Write { aru = Some a; block = blocks.(plan.(k)); data = buf })
            end
            else Some (Op.Read { aru = Some a; block = blocks.(plan.(k)) })
          | Some a ->
            step := 8;
            we := Span.now_ns ();
            ve := Clock.now_ns clock;
            Some (Op.End_aru a)
        end
    in
    Gc.full_major ();
    let m =
      meter
        (reading
           ~counters:(fun () -> Lld.counters lld)
           ~disk:(Some disk) ~clock:(Some clock))
    in
    if traced then Span.start ~clock;
    let w0 = Span.now_ns () and v0 = Clock.now_ns clock in
    let stats = E.run lld (List.init 4 (fun _ -> client ())) in
    let wall_ns = since w0 and vns = Clock.now_ns clock - v0 in
    Span.stop ();
    meter_stop m;
    let ops = 4 * arus_per_client in
    if stats.Lld_core.Engine.commits <> ops then
      fail_check t
        (Printf.sprintf "%d of %d ARUs committed" stats.Lld_core.Engine.commits ops);
    check_blocks t lld ~seed:p.seed blocks versions (List.init preloaded Fun.id);
    let payload = 2 * bb * (Vec.length t.w - t.failed) in
    let layers =
      if not traced then []
      else
        let e = stats in
        let ww = to_array wait_w and wv = to_array wait_v in
        layer_metrics ~ops ~meter:m
          ~extra:
            [
              ( "engine.batch_mean",
                idiv e.Lld_core.Engine.commits e.Lld_core.Engine.flushes );
              ( "engine.forced_flush_frac",
                idiv e.Lld_core.Engine.forced_flushes e.Lld_core.Engine.flushes );
              ("engine.commit_wait_us_p50", float_of_int (percentile ww 50.) /. 1e3);
              ("engine.commit_wait_vus_p50", float_of_int (percentile wv 50.) /. 1e3);
              ("engine.commit_wait_vus_p99", float_of_int (percentile wv 99.) /. 1e3);
            ]
    in
    finish ~label:(Disk.backend_label disk) ~setup_ns ~ops t ~wall_ns ~vns
      ~write_amp:(idiv (meter_get m "dev.bytes_written") payload)
      ~space_amp:(space_amp lld) ~layers ~async:!async

  (* fs-meta: passes of create+write, read and unlink over 1 KB files in
     10 directories, each step in a fresh seeded order, on the mem
     backend.  An op is one Fs call. *)
  let fs_meta p =
    let s0 = Span.now_ns () in
    let geom = Geometry.v ~num_segments:128 () in
    let clock = Clock.create () in
    let disk =
      device ~clock geom ~backend:(Backend.mem ~size:(Geometry.total_bytes geom))
    in
    let lld = Lld.create ~config disk in
    let fs = F.Fs_impl.mkfs ~config:F.Fs_impl.config_new lld in
    for d = 0 to 9 do
      F.Fs_impl.mkdir fs (Printf.sprintf "/d%d" d)
    done;
    F.Fs_impl.flush fs;
    let setup_ns = since s0 in
    (* 20 passes of 1 000 files at scale 1 *)
    let passes = scaled p.scale 20 in
    let files = min 1000 (scaled p.scale 20_000 / passes) in
    let rng = Rng.create ~seed:p.seed in
    let names =
      Array.init files (fun i -> Printf.sprintf "/d%d/f%d" (Rng.int rng 10) i)
    in
    let content pass i =
      let b =
        Bytes.make 1024 (Char.chr ((p.seed + (pass * 7) + (i * 13)) land 0xff))
      in
      Bytes.set_int64_le b 0 (Int64.of_int i);
      Bytes.set_int64_le b 8 (Int64.of_int pass);
      b
    in
    let order () =
      let a = Array.init files Fun.id in
      Rng.shuffle rng a;
      a
    in
    let s_create = Span.name "fs.create"
    and s_write = Span.name "fs.write_file"
    and s_read = Span.name "fs.read_file"
    and s_unlink = Span.name "fs.unlink" in
    let t = tally () in
    let got = Array.make files Bytes.empty in
    let payload = ref 0 and full = ref 0. in
    Gc.full_major ();
    let m =
      meter
        (reading
           ~counters:(fun () -> Lld.counters lld)
           ~disk:(Some disk) ~clock:(Some clock))
    in
    if traced then Span.start ~clock;
    for pass = 1 to passes do
      Array.iter
        (fun i ->
          timed_op t clock s_create (fun () -> F.Fs_impl.create fs names.(i));
          let data = content pass i in
          payload := !payload + Bytes.length data;
          timed_op t clock s_write (fun () ->
              F.Fs_impl.write_file fs names.(i) ~off:0 data))
        (order ());
      if pass = passes then full := space_amp lld;
      Array.iter
        (fun i ->
          timed_op t clock s_read (fun () ->
              got.(i) <- F.Fs_impl.read_file fs names.(i) ~off:0 ~len:1024))
        (order ());
      Span.stop ();
      meter_stop m;
      Array.iteri
        (fun i b ->
          if not (Bytes.equal b (content pass i)) then
            fail_check t
              (Printf.sprintf "pass %d: %s read back wrong content" pass names.(i)))
        got;
      meter_start m;
      if traced then Span.resume ();
      Array.iter
        (fun i -> timed_op t clock s_unlink (fun () -> F.Fs_impl.unlink fs names.(i)))
        (order ())
    done;
    Span.stop ();
    meter_stop m;
    let report = F.Fsck_impl.run fs in
    if not (F.Fsck_impl.ok report) then
      fail_check t (Format.asprintf "fsck: %a" F.Fsck_impl.pp_report report);
    let ops = Vec.length t.w in
    let layers = if traced then layer_metrics ~ops ~meter:m ~extra:[] else [] in
    finish ~label:(Disk.backend_label disk) ~setup_ns ~ops t
      ~wall_ns:(sum (to_array t.w))
      ~vns:(sum (to_array t.v))
      ~write_amp:(idiv (meter_get m "dev.bytes_written") !payload)
      ~space_amp:!full ~layers ~async:[]

  (* restart: cycles of 64 random simple writes, one ARU left open with
     a new list and block, flush, a simulated crash and [Lld.recover] on
     the same mem disk.  An op is one recovery. *)
  let restart p =
    let s0 = Span.now_ns () in
    let geom = Geometry.v ~num_segments:128 () in
    let clock = Clock.create () in
    let disk =
      device ~clock geom ~backend:(Backend.mem ~size:(Geometry.total_bytes geom))
    in
    let lld = Lld.create ~config disk in
    let blocks = preload lld ~seed:p.seed preloaded in
    let bb = Lld.block_bytes lld in
    let buf = Bytes.create bb in
    let versions = Array.make preloaded 0 in
    let next_version = ref 0 in
    let rng = Rng.create ~seed:p.seed in
    (* 64 random simple writes; the indices written *)
    let dirty_some l =
      List.init 64 (fun _ ->
          let i = Rng.int rng preloaded in
          incr next_version;
          versions.(i) <- !next_version;
          fill buf ~seed:p.seed ~block:i ~version:!next_version;
          L.write l blocks.(i) buf;
          i)
    in
    (* Dirty and flush until the cleaner runs: from then on it runs in
       every cycle, and its checkpoint is what the next recovery
       restores.  Before that, recoveries restore the previous
       recovery's full checkpoint and cost more, so timing from a fresh
       log would mix two regimes. *)
    while (Lld.counters lld).Counters.segments_cleaned = 0 do
      ignore (dirty_some lld);
      Lld.flush lld
    done;
    Lld.checkpoint lld;
    let setup_ns = since s0 in
    let cycles = scaled p.scale 500 in
    let t = tally () in
    let rc = recoveries () in
    let obs = if traced then Some (recovery_obs clock) else None in
    let s_recover = Span.name "restart.recover" in
    (* counters of the instances recovery replaced, so the meter reads
       one running total across them *)
    let cur = ref lld and retired = Counters.create () in
    let add_into dst src =
      List.iter (fun (_, get, set) -> set dst (get dst + get src)) Counters.fields
    in
    let total () =
      let c = Counters.copy retired in
      add_into c (Lld.counters !cur);
      c
    in
    Gc.full_major ();
    let m = meter (reading ~counters:total ~disk:(Some disk) ~clock:(Some clock)) in
    if traced then Span.start ~clock;
    (try
       for _ = 1 to cycles do
         let l = !cur in
         let dirty = dirty_some l in
         let a = L.begin_aru l in
         let lst = L.new_list l ~aru:a () in
         let b = L.new_block l ~aru:a ~list:lst ~pred:Summary.Head () in
         fill buf ~seed:p.seed ~block:(-1) ~version:!next_version;
         L.write l ~aru:a b buf;
         L.flush l;
         Fault.schedule_crash (Disk.fault disk) (Fault.After_writes 0);
         let failed = t.failed in
         timed_op t clock s_recover (fun () ->
             let l', report = Lld.recover ~config ?obs disk in
             rc.reports <- report :: rc.reports;
             add_into retired (Lld.counters l);
             cur := l');
         if t.failed > failed then raise Exit;
         Span.stop ();
         meter_stop m;
         (match Lld.recovery_invariant_errors !cur with
         | [] -> ()
         | es -> fail_check t (String.concat "; " es));
         if Lld.list_exists !cur lst then
           fail_check t "the open ARU's list survived recovery";
         check_blocks t !cur ~seed:p.seed blocks versions
           (List.sort_uniq compare dirty);
         meter_start m;
         if traced then Span.resume ()
       done
     with Exit -> ());
    Span.stop ();
    meter_stop m;
    let ops = Vec.length t.w in
    Option.iter (add_phases rc) obs;
    let layers =
      if traced then layer_metrics ~ops ~meter:m ~extra:(recovery_layers rc) else []
    in
    finish ~label:(Disk.backend_label disk) ~setup_ns ~ops t
      ~wall_ns:(sum (to_array t.w))
      ~vns:(sum (to_array t.v))
      ~write_amp:(idiv (meter_get m "dev.bytes_written") (ops * 65 * bb))
      ~space_amp:(space_amp !cur) ~layers ~async:[]
end

module Plain = Make (struct
  include Lld

  let traced = false
end)

module Traced = Make (struct
  include Timed

  let traced = true
end)

(* ------------------------------------------------------------------ *)
(* crashcheck                                                          *)

let churn_arus = 160
let churn_blocks_per_aru = 2

(* The spec's workload once more, keeping the (base image, write trace)
   pair and the final instance: the image probe, the probe recoveries
   and the amplification figures come from it. *)
let record_raw (spec : Crashcheck.spec) =
  let clock = Clock.create () in
  let geom = spec.Crashcheck.sc_geom in
  let disk =
    Disk.create ~backend:(Backend.mem ~size:(Geometry.total_bytes geom)) ~clock geom
  in
  let lld = Lld.create ~config:spec.Crashcheck.sc_config disk in
  Lld.flush lld;
  let base = Disk.snapshot disk in
  let writes = ref [] in
  Disk.set_observer disk
    (Some
       (fun ~index:_ ~offset ~data ->
         writes := (offset, Blk.to_bytes data) :: !writes));
  spec.Crashcheck.sc_run
    { Crashcheck.cx_clock = clock; cx_disk = disk; cx_lld = lld; cx_fs = None }
    (Lld_workload.Oracle.create ());
  Disk.set_observer disk None;
  let writes = Array.of_list (List.rev !writes) in
  let written = Array.fold_left (fun a (_, d) -> a + Bytes.length d) 0 writes in
  (Crashcheck.Raw.v ~base ~writes, written, space_amp lld)

(* The probe recoveries' virtual times for a (seed, scale), the same in
   every round: untraced rounds after the first reuse them. *)
let probed = Hashtbl.create 1

(* crashcheck: sample crash points of the aru-churn trace and check each.
   An op is one [Crashcheck.check_point]; its virtual time is a separate,
   untimed recovery of the same crash image. *)
let crashcheck p =
  let traced = p.traced in
  let s0 = Span.now_ns () in
  let spec =
    {
      (Crashcheck.aru_churn_spec ~arus:churn_arus
         ~blocks_per_aru:churn_blocks_per_aru ())
      with
      Crashcheck.sc_config = config;
    }
  in
  let geom = spec.Crashcheck.sc_geom in
  let trace =
    Crashcheck.record ~backend:(Backend.mem ~size:(Geometry.total_bytes geom)) spec
  in
  let raw, written, space = record_raw spec in
  let setup_ns = since s0 in
  let t = tally () in
  let points = Crashcheck.enumerate trace in
  if List.length (Crashcheck.Raw.enumerate raw) <> List.length points then
    fail_check t "the benchmark's own recording differs from Crashcheck.record";
  let sample =
    Crashcheck.Raw.sample ~budget:(scaled p.scale 500) ~seed:p.seed points
  in
  let rc = recoveries () in
  let s_check = Span.name "crashcheck.check"
  and s_image = Span.name "crashcheck.image"
  and s_recover = Span.name "crashcheck.recover" in
  (* the probe: recover the point's image on a fresh clock, untimed *)
  let probe pt =
    let image = Span.wrap s_image (fun () -> Crashcheck.Raw.image_at raw pt) in
    let clock = Clock.create () in
    Span.set_clock clock;
    let obs = if traced then Some (recovery_obs clock) else None in
    (match
       Span.wrap s_recover (fun () ->
           let store = Backend.of_bytes image in
           let disk =
             Disk.create ~clock geom
               ~backend:(if traced then Timed.backend store else store)
           in
           Lld.recover ~config ?obs disk)
     with
    | _, report -> rc.reports <- report :: rc.reports
    | exception e -> fail_check t ("probe recovery: " ^ Printexc.to_string e));
    Option.iter (add_phases rc) obs;
    Vec.push t.v (Clock.now_ns clock)
  in
  let key = (p.seed, p.scale) in
  let probing = traced || not (Hashtbl.mem probed key) in
  Gc.full_major ();
  let m = meter (reading ~counters:Counters.create ~disk:None ~clock:None) in
  if traced then Span.start ~clock:(Clock.create ());
  List.iter
    (fun pt ->
      let w0 = Span.now_ns () in
      (match Span.op s_check (fun () -> Crashcheck.check_point trace pt) with
      | [] -> ()
      | problems ->
        fail_op t
          (Format.asprintf "%a: %s" Crashcheck.pp_point pt
             (String.concat "; " problems))
      | exception e -> fail_op t (Printexc.to_string e));
      Vec.push t.w (since w0);
      if probing then begin
        meter_stop m;
        probe pt;
        meter_start m
      end)
    sample;
  Span.stop ();
  meter_stop m;
  if probing then Hashtbl.replace probed key (to_array t.v)
  else Array.iter (Vec.push t.v) (Hashtbl.find probed key);
  let ops = List.length sample in
  let layers =
    if not traced then []
    else
      let agg = Span.aggregate () in
      let mean_us s = idiv (agg s).Span.total_w (agg s).Span.calls /. 1e3 in
      let torn =
        List.length (List.filter (fun pt -> pt.Crashcheck.pt_keep <> None) sample)
      in
      layer_metrics ~ops ~meter:m
        ~extra:
          (recovery_layers rc
          @ [
              ("crashcheck.image.us", mean_us "crashcheck.image");
              ("crashcheck.recover.us", mean_us "crashcheck.recover");
              ("crashcheck.check.us", mean_us "crashcheck.check");
              ("crashcheck.torn_frac", idiv torn ops);
            ])
  in
  finish ~label:"mem" ~setup_ns ~ops t
    ~wall_ns:(sum (to_array t.w))
    ~vns:(sum (to_array t.v))
    ~write_amp:
      (idiv written
         ((churn_arus + 1) * churn_blocks_per_aru * geom.Geometry.block_bytes))
    ~space_amp:space ~layers ~async:[]

let all = [ "aru-sync"; "fs-meta"; "restart"; "crashcheck" ]

let run name p =
  let traced_or_plain a b = if p.traced then a p else b p in
  match name with
  | "aru-sync" -> traced_or_plain Traced.aru_sync Plain.aru_sync
  | "fs-meta" -> traced_or_plain Traced.fs_meta Plain.fs_meta
  | "restart" -> traced_or_plain Traced.restart Plain.restart
  | "crashcheck" -> crashcheck p
  | _ -> invalid_arg ("unknown workload " ^ name)
