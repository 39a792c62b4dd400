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
