module Clock = Lld_sim.Clock
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Config = Lld_core.Config
module Lld = Lld_core.Lld
module Fs = Lld_minixfs.Fs

type variant = Old | New | New_delete

(* Formatting happens before the clock reset, so the events it recorded
   would carry timestamps from a dead timeline: drop them from the
   instance's own handle (the caller's, or the black box LLD_FLIGHT=1
   gave it) along with the counters. *)
let reset_obs lld =
  let obs = Lld.obs lld in
  Lld_obs.Trace.clear (Lld_obs.Obs.trace obs);
  Lld_obs.Trace.clear (Lld_obs.Obs.flight obs);
  Lld_obs.Metrics.reset_histograms (Lld_obs.Obs.metrics obs)

let variant_label = function
  | Old -> "old"
  | New -> "new"
  | New_delete -> "new, delete"

let all_variants = [ Old; New; New_delete ]

let lld_config = function
  | Old -> Config.old_lld
  | New | New_delete -> Config.default

let fs_config = function
  | Old -> Fs.config_old
  | New -> Fs.config_new
  | New_delete -> Fs.config_new_delete

type instance = {
  disk : Lld_disk.Disk.t;
  lld : Lld_core.Lld.t;
  fs : Lld_minixfs.Fs.t;
  clock : Lld_sim.Clock.t;
}

(* [LLD_BACKEND=file] reruns every experiment against a real on-disk
   image; an explicit [?backend] always wins. *)
let resolve_backend geom backend =
  match backend with
  | Some b -> b
  | None -> (
    let size = Geometry.total_bytes geom in
    match Lld_disk.Backend.of_env ~size () with
    | Some b -> b
    | None -> Lld_disk.Backend.mem ~size)

let resolve_config variant visibility =
  let base = lld_config variant in
  match visibility with
  | None -> base
  | Some v -> { base with Config.visibility = v }

(* Format with [format], then zero the clock, the counters and the
   handle's records, so measurements exclude setup. *)
let formatted ?(geom = Geometry.paper) ?clock ?obs ?backend ?visibility variant
    format =
  let clock = match clock with Some c -> c | None -> Clock.create () in
  let backend = resolve_backend geom backend in
  let disk = Disk.create ~backend ~clock geom in
  let lld = Lld.create ~config:(resolve_config variant visibility) ?obs disk in
  let formatted = format lld in
  Clock.reset clock;
  Lld_core.Counters.reset (Lld.counters lld);
  reset_obs lld;
  (disk, lld, clock, formatted)

let make ?geom ?inode_count ?clock ?obs ?backend ?visibility variant =
  let disk, lld, clock, fs =
    formatted ?geom ?clock ?obs ?backend ?visibility variant (fun lld ->
        let fs = Fs.mkfs ~config:(fs_config variant) ?inode_count lld in
        Fs.flush fs;
        fs)
  in
  { disk; lld; fs; clock }

let make_raw ?geom ?clock ?obs ?backend ?visibility variant =
  let disk, lld, _, () =
    formatted ?geom ?clock ?obs ?backend ?visibility variant Lld.flush
  in
  (disk, lld)

(* ------------------------------------------------------------------ *)
(* Fingerprints: what "the same run" means                             *)

type fingerprint = {
  fp_image : int64;
  fp_counters : (string * int) list;
  fp_device : Disk.counters;
  fp_clock_ns : int;
}

(* A digest, not the image: the paper partition is 400 MB, and a digest
   lets a caller drop one run's image before the next run starts. *)
let fingerprint disk counters =
  {
    fp_image = Lld_util.Blk.hash64 (Disk.snapshot_view disk);
    fp_counters = Lld_core.Counters.to_alist counters;
    fp_device = Disk.counters disk;
    fp_clock_ns = Clock.now_ns (Disk.clock disk);
  }

let components =
  [
    ("disk image", fun a b -> Int64.equal a.fp_image b.fp_image);
    ("operation counters", fun a b -> a.fp_counters = b.fp_counters);
    ("device counters", fun a b -> a.fp_device = b.fp_device);
    ("virtual clock", fun a b -> a.fp_clock_ns = b.fp_clock_ns);
  ]

let fingerprint_components = List.map fst components

let fingerprint_diff a b =
  List.filter_map
    (fun (name, same) -> if same a b then None else Some name)
    components

let fingerprint_verdict = function
  | [] -> String.concat ", " fingerprint_components ^ " identical"
  | differs -> String.concat ", " differs ^ " DIFFER"
