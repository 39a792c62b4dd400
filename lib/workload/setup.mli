(** Shared experiment setup: build a fresh MinixLLD instance (disk +
    logical disk + file system) in one of the paper's three
    configurations (Table 1), with the virtual clock zeroed after
    formatting so measurements exclude setup. *)

(** Paper Table 1. *)
type variant = Old | New | New_delete

val variant_label : variant -> string
val all_variants : variant list

val lld_config : variant -> Lld_core.Config.t
val fs_config : variant -> Lld_minixfs.Fs.config

type instance = {
  disk : Lld_disk.Disk.t;
  lld : Lld_core.Lld.t;
  fs : Lld_minixfs.Fs.t;
  clock : Lld_sim.Clock.t;
}

val make :
  ?geom:Lld_disk.Geometry.t -> ?inode_count:int -> ?clock:Lld_sim.Clock.t ->
  ?obs:Lld_obs.Obs.t -> ?backend:Lld_disk.Backend.t ->
  ?visibility:Lld_core.Config.visibility -> variant -> instance
(** Default geometry is the paper's 400 MB partition.  [obs] (default
    {!Lld_obs.Obs.null}) is attached to the logical disk and the device;
    the clock reset after formatting also empties the instance's tracer,
    black box and histograms (whichever handle it carries, the one
    [LLD_FLIGHT=1] gives it included), so setup leaves no record on the
    discarded timeline.  Pass [clock] (reset after formatting, like the
    internally created one) when the caller needs the clock before
    construction — an {!Lld_obs.Obs.create} handle wraps it.  [backend]
    defaults to {!Lld_disk.Backend.of_env} (honouring [LLD_BACKEND=file])
    and then to an in-memory store.  [visibility] overrides the
    variant's read-visibility option (paper §3.3), e.g. to run a
    workload under [Committed_only] or [Any_shadow] semantics. *)

val make_raw :
  ?geom:Lld_disk.Geometry.t -> ?clock:Lld_sim.Clock.t ->
  ?obs:Lld_obs.Obs.t -> ?backend:Lld_disk.Backend.t ->
  ?visibility:Lld_core.Config.visibility -> variant ->
  Lld_disk.Disk.t * Lld_core.Lld.t
(** Logical disk only, no file system (for the ARU-latency experiment).
    [backend] defaults as in {!make}. *)

(** {1 Fingerprints}

    What "the same run" means wherever a workload runs twice and the
    two results must agree — under a tracer and without one, on the
    mem and the file backend, through a one-shard facade and a plain
    logical disk, through the commit engine and blocking calls. *)

type fingerprint = {
  fp_image : int64;  (** {!Lld_util.Blk.hash64} of the whole device image *)
  fp_counters : (string * int) list;
      (** the logical disk's operation counters ({!Lld_core.Counters.to_alist}) *)
  fp_device : Lld_disk.Disk.counters;  (** the device's request counters *)
  fp_clock_ns : int;  (** the virtual clock *)
}

val fingerprint : Lld_disk.Disk.t -> Lld_core.Counters.t -> fingerprint
(** The finished run on [disk] whose operations [counters] counted.
    Reads the image without charging the clock or counting a request,
    so taking a fingerprint changes none of its components.  The disk
    must still be open. *)

val fingerprint_components : string list
(** ["disk image"; "operation counters"; "device counters";
    "virtual clock"]: the order {!fingerprint_diff} reports in. *)

val fingerprint_diff : fingerprint -> fingerprint -> string list
(** The components on which the two fingerprints differ, in
    {!fingerprint_components} order; [[]] when the runs are the same. *)

val fingerprint_verdict : string list -> string
(** One line for a {!fingerprint_diff}: every component named
    ["... identical"] when it is empty, else the differing ones
    ["... DIFFER"]. *)
