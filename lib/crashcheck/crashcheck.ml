module Clock = Lld_sim.Clock
module Rng = Lld_sim.Rng
module Blk = Lld_util.Blk
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Backend = Lld_disk.Backend
module Fault = Lld_disk.Fault
module Config = Lld_core.Config
module Lld = Lld_core.Lld
module Shard = Lld_core.Shard
module Types = Lld_core.Types
module Layout = Lld_minixfs.Layout
module Fs = Lld_minixfs.Fs
module Fsck = Lld_minixfs.Fsck
module Summary = Lld_core.Summary
module Obs = Lld_obs.Obs
module Oracle = Lld_workload.Oracle
module Setup = Lld_workload.Setup
module Smallfile = Lld_workload.Smallfile

(* ------------------------------------------------------------------ *)
(* Workload specifications                                             *)

type ctx = {
  cx_clock : Clock.t;
  cx_disk : Disk.t;
  cx_lld : Lld.t;
  cx_fs : Fs.t option;
}

type spec = {
  sc_name : string;
  sc_geom : Geometry.t;
  sc_config : Config.t;
  sc_fs : Fs.config option;
  sc_inode_count : int option;
  sc_run : ctx -> Oracle.t -> unit;
}

(* Small segments so seals — the dominant crash granularity — happen
   every few operations, giving dense crash-point coverage. *)
let checker_geom = Geometry.v ~segment_bytes:(32 * 1024) ~num_segments:192 ()

(* A block's worth of recognisable data: the tag ["<tag>-<u>-<s>:"],
   then an affine byte pattern in unit [u] and slot [s]. *)
let payload ~tag ~mul:(mu, ms) block_bytes u s =
  let b = Bytes.make block_bytes '\000' in
  let tag = Printf.sprintf "%s-%d-%d:" tag u s in
  Bytes.blit_string tag 0 b 0 (String.length tag);
  for i = String.length tag to block_bytes - 1 do
    Bytes.set b i (Char.chr ((u * mu + s * ms + i) land 0xff))
  done;
  b

(* One raw-LD oracle unit: an ARU creating a list of [blocks] chained
   blocks holding [data j], handed to [commit], then registered with
   the oracle.  Returns the list and its (block, data) pairs. *)
let one_unit lld oracle ~label ~blocks ~data ~commit ~must_not_commit =
  let a = Lld.begin_aru lld in
  let l = Lld.new_list lld ~aru:a () in
  let rec chain j pred acc =
    if j = blocks then List.rev acc
    else
      let b = Lld.new_block lld ~aru:a ~list:l ~pred () in
      let d = data j in
      Lld.write lld ~aru:a b d;
      chain (j + 1) (Summary.After b) ((b, d) :: acc)
  in
  let bs = chain 0 Summary.Head [] in
  commit a;
  Oracle.add_blocks oracle ~label ~must_not_commit ~lists:[ l ] bs;
  (l, bs)

let smallfile_spec ?(files = 200) () =
  {
    sc_name = "smallfile";
    sc_geom = checker_geom;
    sc_config = Config.default;
    sc_fs = Some Fs.config_new;
    sc_inode_count = Some 1024;
    sc_run =
      (fun cx oracle ->
        let inst =
          {
            Setup.disk = cx.cx_disk;
            lld = cx.cx_lld;
            fs = Option.get cx.cx_fs;
            clock = cx.cx_clock;
          }
        in
        Smallfile.run_traced inst oracle
          { Smallfile.file_count = files; file_bytes = 1024; dirs = 1 });
  }

let aru_churn_spec ?(arus = 160) ?(blocks_per_aru = 2) () =
  {
    sc_name = "aru-churn";
    sc_geom = checker_geom;
    sc_config = Config.default;
    sc_fs = None;
    sc_inode_count = None;
    sc_run =
      (fun cx oracle ->
        let lld = cx.cx_lld in
        let payload =
          payload ~tag:"churn" ~mul:(131, 31) (Lld.block_bytes lld)
        in
        let one_unit ~index ~must_not_commit =
          ignore
            (one_unit lld oracle ~blocks:blocks_per_aru ~data:(payload index)
               ~must_not_commit
               ~commit:(if must_not_commit then ignore else Lld.end_aru lld)
               ~label:
                 (Printf.sprintf "aru-%d%s" index
                    (if must_not_commit then "-open" else "")))
        in
        for i = 0 to arus - 1 do
          one_unit ~index:i ~must_not_commit:false;
          Lld.flush lld
        done;
        (* an ARU whose commit record is never written: recovery must
           discard it wholesale at every crash point, including the
           final image *)
        one_unit ~index:arus ~must_not_commit:true;
        Lld.flush lld);
  }

(* Cleaning-heavy raw-LD workload: committed units, whole-unit
   deletions, same-content rewrites (dead space without changing the
   oracle's expected contents), then a forced cleaner run — so
   relocation, the live index and the checkpoint-with-extra-free path
   all land inside the recorded trace.  One ARU stays open across the
   cleaning.  Identifiers freed by the deletions are never reallocated
   (the open ARU allocates first), keeping oracle units unambiguous. *)
let cleaning_spec ?(units = 36) ?(blocks_per_unit = 2) () =
  {
    sc_name = "cleaning";
    sc_geom = checker_geom;
    sc_config = Config.default;
    sc_fs = None;
    sc_inode_count = None;
    sc_run =
      (fun cx oracle ->
        let lld = cx.cx_lld in
        let payload =
          payload ~tag:"clean" ~mul:(137, 29) (Lld.block_bytes lld)
        in
        let one_unit ~index ~must_not_commit =
          one_unit lld oracle ~blocks:blocks_per_unit ~data:(payload index)
            ~must_not_commit
            ~commit:(if must_not_commit then ignore else Lld.end_aru lld)
            ~label:
              (Printf.sprintf "clean-%d%s" index
                 (if must_not_commit then "-open" else ""))
        in
        let made =
          Array.init units (fun i ->
              let u = one_unit ~index:i ~must_not_commit:false in
              if (i + 1) mod 4 = 0 then Lld.flush lld;
              u)
        in
        (* opened before any deletion so its allocations take fresh ids;
           never committed, spanning the deletions and the cleaning *)
        ignore (one_unit ~index:units ~must_not_commit:true);
        Lld.flush lld;
        (* delete every third unit, one ARU per unit (atomic) *)
        Array.iteri
          (fun i (l, _) ->
            if i mod 3 = 0 then begin
              let a = Lld.begin_aru lld in
              Lld.delete_list lld ~aru:a l;
              Lld.end_aru lld a;
              if i mod 6 = 0 then Lld.flush lld
            end)
          made;
        Lld.flush lld;
        (* same-content rewrites: survivors relocate to fresh segments,
           turning their old slots dead without changing what the oracle
           expects to read *)
        for _pass = 1 to 2 do
          Array.iteri
            (fun i (_, blocks) ->
              if i mod 3 <> 0 then
                List.iter (fun (b, data) -> Lld.write lld b data) blocks)
            made;
          Lld.flush lld
        done;
        Lld.clean lld ~target_free:(Lld.free_segments lld + 6);
        Lld.flush lld);
  }

(* Group-commit workload: rounds of concurrent ARUs submitted to the
   commit queue and drained with [flush_commits], so every batch's
   commit records travel in one [Commit_group] summary entry.  The
   batch's data blocks exceed one segment, so the flusher's
   close-on-room path splits sub-batches mid-drain as well.  Crash
   points falling on (or tearing) the batch seals demand per-ARU
   all-or-nothing inside torn batches; one ARU is submitted but never
   flushed — its commit intent lives only in memory, so no crash image
   may surface it as committed. *)
let group_commit_spec ?(rounds = 10) ?(arus_per_round = 4)
    ?(blocks_per_aru = 2) () =
  {
    sc_name = "group-commit";
    sc_geom = checker_geom;
    sc_config =
      {
        Config.default with
        (* pinned explicitly: never from the environment *)
        group_commit_window = 100_000;
        group_commit_batch = 64;
      };
    sc_fs = None;
    sc_inode_count = None;
    sc_run =
      (fun cx oracle ->
        let lld = cx.cx_lld in
        let payload =
          payload ~tag:"group" ~mul:(211, 17) (Lld.block_bytes lld)
        in
        let one_unit ~index ~must_not_commit =
          ignore
            (one_unit lld oracle ~blocks:blocks_per_aru ~data:(payload index)
               ~must_not_commit ~commit:(Lld.submit_commit lld)
               ~label:
                 (Printf.sprintf "group-%d%s" index
                    (if must_not_commit then "-queued" else "")))
        in
        for r = 0 to rounds - 1 do
          for i = 0 to arus_per_round - 1 do
            one_unit ~index:((r * arus_per_round) + i) ~must_not_commit:false
          done;
          ignore (Lld.flush_commits lld)
        done;
        (* submitted after the last drain: queued forever *)
        one_unit ~index:(rounds * arus_per_round) ~must_not_commit:true;
        Lld.flush lld);
  }

(* The paper's §5.1 workload: 300 creates, writes, unlinks, renames,
   links, truncates and reads drawn from one seeded stream over 8
   directories of 12 names, so operations collide (create over an
   existing name, unlink a missing one, rename onto a file).  It
   registers no oracle units: each crash point is judged by fsck, the
   sweep-leak probe and idempotent re-recovery.  [variant] takes Table
   1's configuration pair, so [Old] (no ARU bracketing) is the contrast
   [New] must not show. *)
let torture_spec ?(variant = Setup.New) ?(seed = 42) () =
  let dir d = Printf.sprintf "/d%d" d in
  let file d f = Printf.sprintf "%s/f%d" (dir d) f in
  {
    sc_name = "torture";
    sc_geom = checker_geom;
    sc_config = Setup.lld_config variant;
    sc_fs = Some (Setup.fs_config variant);
    sc_inode_count = Some 1024;
    sc_run =
      (fun cx _oracle ->
        let fs = Option.get cx.cx_fs in
        let rng = Rng.create ~seed in
        let name () =
          let d = Rng.int rng 8 in
          let f = Rng.int rng 12 in
          file d f
        in
        let attempt op =
          try op () with
          | Fs.Not_found_path _ | Fs.Already_exists _ | Fs.Is_a_directory _
          | Fs.Not_a_directory _ | Fs.Directory_not_empty _
          | Fs.Invalid_name _ | Fs.Out_of_inodes ->
            ()
        in
        for d = 0 to 7 do
          Fs.mkdir fs (dir d)
        done;
        for _ = 1 to 300 do
          let path = name () in
          match Rng.int rng 10 with
          | 0 | 1 | 2 -> attempt (fun () -> Fs.create fs path)
          | 3 | 4 ->
            let data = Bytes.make (512 + Rng.int rng 8192) 'x' in
            attempt (fun () -> Fs.write_file fs path ~off:0 data)
          | 5 -> attempt (fun () -> Fs.unlink fs path)
          | 6 ->
            let target = name () in
            attempt (fun () -> Fs.rename fs path target)
          | 7 ->
            let target = name () in
            attempt (fun () -> Fs.link fs path target)
          | 8 ->
            let size = Rng.int rng 4096 in
            attempt (fun () -> Fs.truncate fs path ~size)
          | _ ->
            attempt (fun () -> ignore (Fs.read_file fs path ~off:0 ~len:1024))
        done;
        Fs.flush fs);
  }

let specs =
  [
    ("smallfile", fun () -> smallfile_spec ());
    ("aru-churn", fun () -> aru_churn_spec ());
    ("cleaning", fun () -> cleaning_spec ());
    ("group-commit", fun () -> group_commit_spec ());
    ("torture", fun () -> torture_spec ());
  ]

(* ------------------------------------------------------------------ *)
(* Crash points                                                        *)

type point = { pt_index : int; pt_keep : int option }

let pp_point ppf = function
  | { pt_index; pt_keep = None } ->
    Format.fprintf ppf "after write %d" pt_index
  | { pt_index; pt_keep = Some k } ->
    Format.fprintf ppf "torn write %d (first %d bytes persisted)" pt_index k

let torn_boundaries ~granularity len =
  let rec multiples acc k =
    if k >= len then acc else multiples (k :: acc) (k + granularity)
  in
  let ks = multiples [] granularity in
  let ks = if len > 1 then 1 :: (len - 1) :: ks else ks in
  List.sort_uniq Int.compare (List.filter (fun k -> k > 0 && k < len) ks)

(* The crash-trace engine for any number of disks: one recorder, the
   enumeration and sampling of crash points, and the one place per-disk
   crash images are built, as stores over the trace.  Checkers with
   their own notion of correctness — the differential tester in
   lib/model judges against the model's crash frontier — use it without
   the oracle/spec superstructure. *)
module Raw = struct
  type t = {
    bases : Blk.t array;
        (* each disk's image before the first write; never handed out,
           crash images read through to it *)
    writes : (int * int * bytes) array;
        (* (disk, offset, data) in global write order *)
    touching : int array array array;
        (* per disk, per overlay page: the indices of the writes that
           touch the page, in write order *)
  }

  let make bases writes =
    let touching =
      Array.map
        (fun base ->
          Array.make
            ((Blk.length base + Backend.page_bytes - 1) / Backend.page_bytes)
            [])
        bases
    in
    for i = Array.length writes - 1 downto 0 do
      let d, offset, data = writes.(i) in
      for
        p = offset / Backend.page_bytes
        to (offset + Bytes.length data - 1) / Backend.page_bytes
      do
        touching.(d).(p) <- i :: touching.(d).(p)
      done
    done;
    { bases; writes; touching = Array.map (Array.map Array.of_list) touching }

  (* The observers fire in the order writes reach the media; callers
     are single-threaded, so that is the global persistence order, and
     a crash freezes every disk's medium together. *)
  let record disks f =
    let bases = Array.map Disk.snapshot_view disks in
    let writes = ref [] in
    Array.iteri
      (fun d disk ->
        Disk.set_observer disk
          (Some
             (fun ~index:_ ~offset ~data ->
               (* the observer's view aliases the writer's buffer *)
               writes := (d, offset, Blk.to_bytes data) :: !writes)))
      disks;
    let result =
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun disk -> Disk.set_observer disk None) disks)
        f
    in
    (make bases (Array.of_list (List.rev !writes)), result)

  let v ~base ~writes =
    make [| Blk.of_bytes base |] (Array.map (fun (o, d) -> (0, o, d)) writes)

  let enumerate ?(granularity = 512) t =
    if granularity < 1 then
      invalid_arg
        (Printf.sprintf
           "Crashcheck.Raw.enumerate: granularity must be at least 1 byte \
            (got %d)"
           granularity);
    let n = Array.length t.writes in
    let points = ref [] in
    for i = n - 1 downto 0 do
      let _, _, data = t.writes.(i) in
      let torn =
        List.rev_map
          (fun k -> { pt_index = i; pt_keep = Some k })
          (List.rev (torn_boundaries ~granularity (Bytes.length data)))
      in
      points := ({ pt_index = i; pt_keep = None } :: torn) @ !points
    done;
    !points @ [ { pt_index = n; pt_keep = None } ]

  (* Deterministic subsample: keep complete points in preference to torn
     variants, always keep the first and last point, and fill the rest
     by shuffling with the seeded generator. *)
  let sample ~budget ~seed points =
    let total = List.length points in
    if budget >= total then points
    else begin
      let rng = Rng.create ~seed in
      let arr = Array.of_list points in
      let last = total - 1 in
      let complete = ref [] and torn = ref [] in
      Array.iteri
        (fun i p ->
          if i = 0 || i = last then ()
          else if p.pt_keep = None then complete := i :: !complete
          else torn := i :: !torn)
        arr;
      let budget = max 2 budget in
      let take n l =
        let a = Array.of_list l in
        Rng.shuffle rng a;
        Array.to_list (Array.sub a 0 (min n (Array.length a)))
      in
      let n_mid = budget - 2 in
      let picked_complete = take n_mid (List.rev !complete) in
      let picked_torn =
        take (n_mid - List.length picked_complete) (List.rev !torn)
      in
      let chosen =
        List.sort_uniq Int.compare
          (0 :: last :: (picked_complete @ picked_torn))
      in
      List.map (fun i -> arr.(i)) chosen
    end

  (* The number of entries of the ascending [ws.(lo .. hi-1)] below
     [index], plus [lo]. *)
  let rec count_below ws index lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if ws.(mid) < index then count_below ws index (mid + 1) hi
      else count_below ws index lo mid

  let covers t i ~start ~stop =
    let _, offset, data = t.writes.(i) in
    offset <= start && offset + Bytes.length data >= stop

  (* Copy what the first [len] bytes of write [i] put on the page at
     [start] into [page]. *)
  let apply t i ~len ~start page =
    let _, offset, data = t.writes.(i) in
    let lo = max start offset
    and hi =
      min (start + Blk.length page) (offset + min len (Bytes.length data))
    in
    if lo < hi then
      Blk.blit_from_bytes data (lo - offset) page (lo - start) (hi - lo)

  (* Page [p] of disk [d] as of [point], written into [page]: from the
     newest write before the point that covers the whole page (else from
     the base), then every later write before the point that reaches
     part of it, then the point's own torn prefix. *)
  let fill_page t d point p page =
    let start = p * Backend.page_bytes in
    let stop = start + Blk.length page in
    let ws = t.touching.(d).(p) in
    let before = count_below ws point.pt_index 0 (Array.length ws) in
    let from = ref (before - 1) in
    while !from >= 0 && not (covers t ws.(!from) ~start ~stop) do
      decr from
    done;
    if !from < 0 then Blk.blit t.bases.(d) start page 0 (stop - start);
    for j = max !from 0 to before - 1 do
      apply t ws.(j) ~len:max_int ~start page
    done;
    match point.pt_keep with
    | Some k ->
      let wd, _, _ = t.writes.(point.pt_index) in
      if wd = d then apply t point.pt_index ~len:k ~start page
    | None -> ()

  let stores_at t point =
    Array.mapi
      (fun d base ->
        Backend.overlay ~size:(Blk.length base) (fill_page t d point))
      t.bases

  let image_at t point =
    Blk.to_bytes ((stores_at t point).(0).Backend.snapshot ())
end

(* ------------------------------------------------------------------ *)
(* Judging one recovered state                                         *)

(* A unit's judged status; compared across the two recoveries of the
   idempotency check, so it must be a plain value. *)
type status = Present | Empty | Absent | Violated

(* The block-unit judge is a functor over the LD signature so one disk
   ({!Lld}) and S shards ({!Lld_core.Shard}) get the identical
   all-or-nothing verdict — for a cross-shard ARU "all" spans every
   participant shard, which is exactly the 2PC claim. *)
module Judge (Ld : Lld_core.Ld_intf.S) = struct
  let blocks ld (u : Oracle.block_unit) =
    let lists_exist = List.map (fun l -> Ld.list_exists ld l) u.Oracle.bu_lists in
    let block_states =
      List.map
        (fun (b, data) ->
          if not (Ld.block_allocated ld b) then `Absent
          else if Bytes.equal (Ld.read ld b) data then `Match
          else `Mismatch)
        u.Oracle.bu_blocks
    in
    (* Overwrite targets preexist the unit.  Committed ⇒ every target
       holds the new version; not committed ⇒ every target holds the
       old version (an aborted — or presumed-aborted — merge must not
       have clobbered the committed version's log slot), or is gone
       entirely because the crash point predates the target's own
       durability.  Any other content is torn. *)
    let over_states =
      List.map
        (fun (b, old_data, new_data) ->
          if not (Ld.block_allocated ld b) then `Gone
          else
            let got = Ld.read ld b in
            if Bytes.equal got new_data then `New
            else if Bytes.equal got old_data then `Old
            else `Bad)
        u.Oracle.bu_overwrites
    in
    let all p l = List.for_all p l in
    if
      all (( = ) `Match) block_states
      && all Fun.id lists_exist
      && all (( = ) `New) over_states
    then
      if u.Oracle.bu_must_not_commit then
        ( Violated,
          [
            Printf.sprintf
              "unit %s: ARU without a commit record surfaced as committed"
              u.Oracle.bu_label;
          ] )
      else begin
        (* fully present: the blocks must also sit on the unit's list in
           registration order *)
        match u.Oracle.bu_lists with
        | [ l ] ->
          let expect = List.map fst u.Oracle.bu_blocks in
          let got = Ld.list_blocks ld l in
          if List.equal Types.Block_id.equal expect got then (Present, [])
          else
            ( Violated,
              [
                Printf.sprintf "unit %s: committed but list %d holds %s"
                  u.Oracle.bu_label
                  (Types.List_id.to_int l)
                  (String.concat ","
                     (List.map
                        (fun b -> string_of_int (Types.Block_id.to_int b))
                        got));
              ] )
        | _ -> (Present, [])
      end
    else if
      all (( = ) `Absent) block_states
      && all not lists_exist
      && all (fun s -> s = `Old || s = `Gone) over_states
    then (Absent, [])
    else
      ( Violated,
        [
          Printf.sprintf
            "unit %s: partially recovered (blocks: %s; lists: %s; \
             overwrites: %s) — ARU not all-or-nothing"
            u.Oracle.bu_label
            (String.concat ","
               (List.map
                  (function
                    | `Match -> "ok" | `Absent -> "gone" | `Mismatch -> "BAD")
                  block_states))
            (String.concat ","
               (List.map (fun e -> if e then "ok" else "gone") lists_exist))
            (String.concat ","
               (List.map
                  (function
                    | `New -> "new" | `Old -> "old" | `Gone -> "GONE"
                    | `Bad -> "BAD")
                  over_states));
        ] )
end

module Lld_judge = Judge (Lld)

let judge_file fs (u : Oracle.file_unit) =
  let len = Bytes.length u.Oracle.fu_content in
  if not (Fs.exists fs u.Oracle.fu_path) then (Absent, [])
  else
    match Fs.stat fs u.Oracle.fu_path with
    | { Fs.kind = Layout.Directory; _ } | { Fs.kind = Layout.Free; _ } ->
      ( Violated,
        [ Printf.sprintf "file %s: not a regular file" u.Oracle.fu_path ] )
    | { Fs.size = 0; _ } -> (Empty, [])
    | { Fs.size; _ } when size = len ->
      let got = Fs.read_file fs u.Oracle.fu_path ~off:0 ~len in
      if Bytes.equal got u.Oracle.fu_content then (Present, [])
      else
        ( Violated,
          [
            Printf.sprintf "file %s: present with corrupted content"
              u.Oracle.fu_path;
          ] )
    | { Fs.size; _ } ->
      ( Violated,
        [
          Printf.sprintf
            "file %s: partial size %d (expected 0 or %d) — operation not \
             all-or-nothing"
            u.Oracle.fu_path size len;
        ] )

(* Every oracle unit in registration order: block units through
   [blocks], file units through the mounted file system.  Returns
   (violations, per-unit statuses). *)
let judge_units ~blocks ~fs oracle =
  let judged =
    List.map
      (function
        | Oracle.Blocks u -> blocks u
        | Oracle.File u -> (
          match fs with
          | Some fs -> judge_file fs u
          | None ->
            ( Violated,
              [
                Printf.sprintf "file unit %s but no mountable file system"
                  u.Oracle.fu_path;
              ] )))
      (Oracle.units oracle)
  in
  (List.concat_map snd judged, List.map fst judged)

(* The file system of an FS spec, mounted on a recovered disk. *)
let mount_fs ~what fs_config lld =
  match fs_config with
  | None -> (None, [])
  | Some config -> (
    match Fs.mount ~config lld with
    | fs -> (Some fs, [])
    | exception e -> (None, [ what ^ " failed: " ^ Printexc.to_string e ]))

(* Verify one freshly recovered logical disk: core invariant probe,
   oracle units, fsck. *)
let verify_recovered ~fs oracle lld =
  let invariants = Lld.recovery_invariant_errors lld in
  let fs, unmounted = mount_fs ~what:"mount after recovery" fs lld in
  let problems, statuses =
    judge_units ~blocks:(Lld_judge.blocks lld) ~fs oracle
  in
  let fsck =
    match fs with
    | None -> []
    | Some fs ->
      let report = Fsck.run fs in
      if Fsck.ok report then []
      else
        List.map
          (fun p -> Format.asprintf "fsck: %a" Fsck.pp_problem p)
          report.Fsck.problems
  in
  (invariants @ unmounted @ problems @ fsck, statuses)

(* ------------------------------------------------------------------ *)
(* Trace recording                                                     *)

type trace = {
  tr_name : string;
  tr_geom : Geometry.t;
  tr_config : Config.t;
  tr_fs : Fs.config option;  (* one-disk FS specs only *)
  tr_raw : Raw.t;
  tr_oracle : Oracle.t;
  tr_recover :
    obs:Obs.t ->
    Config.t ->
    Disk.t array ->
    (string list * status list, exn) result;
      (* the only step that differs between targets: recover the crash
         image's disks and judge the oracle units — [Lld.recover], FS
         mount and fsck on one disk, [Shard.recover] over S shards.
         [Error] carries what recovery raised. *)
}

let default_backend geom = function
  | Some b -> b
  | None -> (
    let size = Geometry.total_bytes geom in
    match Lld_disk.Backend.of_env ~size () with
    | Some b -> b
    | None -> Lld_disk.Backend.mem ~size)

(* One full traced run of the workload on the given backend.  The base
   image and every subsequent state come from the backend API
   ([Disk.snapshot] / the write observer), so the checker exercises
   whatever store it is pointed at.  The disk is left open, for the
   caller to fingerprint or close. *)
let record_on backend spec =
  let clock = Clock.create () in
  let disk = Disk.create ~backend ~clock spec.sc_geom in
  let lld = Lld.create ~config:spec.sc_config disk in
  let fs =
    Option.map
      (fun config -> Fs.mkfs ~config ?inode_count:spec.sc_inode_count lld)
      spec.sc_fs
  in
  (match fs with Some fs -> Fs.flush fs | None -> Lld.flush lld);
  let oracle = Oracle.create () in
  let raw, () =
    Raw.record [| disk |] (fun () ->
        spec.sc_run
          { cx_clock = clock; cx_disk = disk; cx_lld = lld; cx_fs = fs }
          oracle)
  in
  let trace =
    {
      tr_name = spec.sc_name;
      tr_geom = spec.sc_geom;
      tr_config = spec.sc_config;
      tr_fs = spec.sc_fs;
      tr_raw = raw;
      tr_oracle = oracle;
      tr_recover =
        (fun ~obs config disks ->
          match Lld.recover ~config ~obs disks.(0) with
          | exception e -> Error e
          | lld, _report -> Ok (verify_recovered ~fs:spec.sc_fs oracle lld));
    }
  in
  (trace, disk, lld)

let record ?backend spec =
  let backend = default_backend spec.sc_geom backend in
  let trace, disk, _ = record_on backend spec in
  Disk.close disk;
  trace

let trace_raw t = t.tr_raw
let trace_writes t = Array.length t.tr_raw.Raw.writes
let trace_oracle_units t = Oracle.size t.tr_oracle
let enumerate ?granularity t = Raw.enumerate ?granularity t.tr_raw

(* ------------------------------------------------------------------ *)
(* Differential backend check                                          *)

type differential = {
  d_workload : string;
  d_mem_label : string;
  d_file_label : string;
  d_writes : int;
  d_differs : string list;
  d_problems : string list;
}

let differential_ok d = d.d_problems = []

let differential ?dir spec =
  let size = Geometry.total_bytes spec.sc_geom in
  let run backend =
    let trace, disk, lld = record_on backend spec in
    let fp = Setup.fingerprint disk (Lld.counters lld) in
    let label = Disk.backend_label disk in
    Disk.close disk;
    (trace, label, fp)
  in
  let m_trace, m_label, m_fp = run (Lld_disk.Backend.mem ~size) in
  let f_trace, f_label, f_fp = run (Lld_disk.Backend.temp_file ?dir ~size ()) in
  let differs = Setup.fingerprint_diff m_fp f_fp in
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  check (differs = [])
    ("final states differ between mem and file backends: "
    ^ Setup.fingerprint_verdict differs);
  check
    (Blk.equal m_trace.tr_raw.Raw.bases.(0) f_trace.tr_raw.Raw.bases.(0))
    "post-format base images differ between mem and file backends";
  check
    (trace_writes m_trace = trace_writes f_trace)
    (Printf.sprintf "write traces differ in length: mem %d, file %d"
       (trace_writes m_trace) (trace_writes f_trace));
  {
    d_workload = spec.sc_name;
    d_mem_label = m_label;
    d_file_label = f_label;
    d_writes = trace_writes m_trace;
    d_differs = differs;
    d_problems = List.rev !problems;
  }

let pp_differential ppf d =
  Format.fprintf ppf "@[<v>workload %s: %d disk writes on %s and %s@,%s@,"
    d.d_workload d.d_writes d.d_mem_label d.d_file_label
    (Setup.fingerprint_verdict d.d_differs);
  if d.d_problems = [] then
    Format.fprintf ppf "backends are observably equivalent@]"
  else begin
    List.iter (fun p -> Format.fprintf ppf "  %s@," p) d.d_problems;
    Format.fprintf ppf "@]"
  end

(* ------------------------------------------------------------------ *)
(* Checking one crash point                                            *)

(* Mount a crash point of [raw] — the trace's own, or the writes of a
   recovery — as disks over its stores; recovery's writes land in the
   stores' private pages. *)
let load ?(clock = Clock.create ()) trace raw point =
  Array.map
    (fun backend -> Disk.create ~clock ~backend trace.tr_geom)
    (Raw.stores_at raw point)

let check_at ?recover_config trace raw point =
  let config = Option.value recover_config ~default:trace.tr_config in
  let disks = load trace raw point in
  let recover () = trace.tr_recover ~obs:Obs.null config disks in
  match recover () with
  | Error e -> [ "recovery raised: " ^ Printexc.to_string e ]
  | Ok (problems, statuses) -> (
    (* idempotency: recovery ends with its own checkpoint write; crash
       every disk in place right after it and recover again — the state
       must not change *)
    Array.iter Disk.crash disks;
    match recover () with
    | Error e ->
      problems @ [ "recovery after recovery raised: " ^ Printexc.to_string e ]
    | Ok (problems2, statuses2) ->
      let problems2 =
        List.map (fun p -> "after re-recovery: " ^ p) problems2
      in
      let idem =
        if statuses = statuses2 then []
        else [ "recovery is not idempotent: unit statuses changed" ]
      in
      problems @ problems2 @ idem)

(* Replay one crash point with live tracing attached to recovery (and
   to the verification reads), writing the Chrome trace next to the
   minimal reproducer so a failing point can be inspected in Perfetto
   without re-running the checker. *)
let replay_point_obs ?recover_config trace point =
  let config = Option.value recover_config ~default:trace.tr_config in
  let clock = Clock.create () in
  let obs = Obs.create ~clock () in
  let disks = load ~clock trace trace.tr_raw point in
  ignore (trace.tr_recover ~obs config disks);
  obs

(* The full black-box bundle for a failing point: the same replay, but
   everything the handle holds — flight ring, trace ring, metrics
   registry — written as a Forensics bundle sharing one stem. *)
let dump_point_bundle ?recover_config trace point ~dir ~label =
  let obs = replay_point_obs ?recover_config trace point in
  Lld_obs.Forensics.dump ~dir ~label obs

let hex_of_bytes b =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  let digits = "0123456789abcdef" in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.get b i) in
    Bytes.set out (2 * i) digits.[c lsr 4];
    Bytes.set out ((2 * i) + 1) digits.[c land 0xf]
  done;
  Bytes.unsafe_to_string out

(* The pre-crash write trace as JSON: every disk write the crash image
   contains, with its disk, offset and full data (the torn write carries
   its kept prefix length).  Together with the deterministic post-format
   base images this reconstructs the crash image exactly, so a
   reproducer bundle can be inspected — or replayed against another
   implementation — without re-running the workload. *)
let dump_point_writes trace point ~path =
  let raw = trace.tr_raw in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"workload\":\"%s\",\"base_bytes\":%d,\"point\":{\"index\":%d,\"keep\":%s},\"writes\":["
       trace.tr_name
       (Blk.length raw.Raw.bases.(0))
       point.pt_index
       (match point.pt_keep with
       | None -> "null"
       | Some k -> string_of_int k));
  let emit i ~keep =
    let disk, offset, data = raw.Raw.writes.(i) in
    if i > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf
      (Printf.sprintf
         "{\"i\":%d,\"disk\":%d,\"offset\":%d,\"len\":%d%s,\"data\":\"%s\"}" i
         disk offset (Bytes.length data)
         (match keep with
         | None -> ""
         | Some k -> Printf.sprintf ",\"keep\":%d" k)
         (hex_of_bytes data))
  in
  let n = trace_writes trace in
  for i = 0 to min point.pt_index n - 1 do
    emit i ~keep:None
  done;
  (match point.pt_keep with
  | Some k when point.pt_index < n -> emit point.pt_index ~keep:(Some k)
  | _ -> ());
  Buffer.add_string buf "]}";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc

(* A reproducer that cannot be written still leaves the verdict intact;
   say why its files are missing instead of dropping them silently. *)
let reproducer_not_written dir msg =
  Printf.eprintf "crashcheck: reproducer files not written under %s: %s\n%!"
    dir msg

let check_point ?recover_config trace point =
  let n = trace_writes trace in
  if point.pt_index < 0 || point.pt_index > n then
    invalid_arg "Crashcheck.check_point: write index outside the trace";
  if point.pt_keep <> None && point.pt_index = n then
    invalid_arg "Crashcheck.check_point: torn variant of a write not in trace";
  (match point.pt_keep with
  | Some k when point.pt_index < n ->
    let _, _, data = trace.tr_raw.Raw.writes.(point.pt_index) in
    if k <= 0 || k >= Bytes.length data then
      invalid_arg
        (Printf.sprintf
           "Crashcheck.check_point: keep bytes must be within (0, %d), the \
            torn write's length"
           (Bytes.length data))
  | _ -> ());
  check_at ?recover_config trace trace.tr_raw point

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)

type violation = { v_point : point; v_problems : string list }

type result = {
  r_workload : string;
  r_seed : int;
  r_writes : int;
  r_oracle_units : int;
  r_points_total : int;
  r_points_checked : int;
  r_torn_checked : int;
  r_violation_points : int;
  r_violations : violation list;
  r_minimal : violation option;
  r_trace_file : string option;
  r_writes_file : string option;
  r_forensics_files : string list;
}

let max_kept_violations = 50

let ok r = r.r_violation_points = 0

let sample = Raw.sample

(* Check the selected points of [raw] — the trace's own, or the writes
   of a recovery — in enumeration order. *)
let check_ordered ?recover_config ?progress trace raw points ~on_violation =
  let selected = List.length points in
  let checked = ref 0 in
  let torn = ref 0 in
  List.iter
    (fun p ->
      if p.pt_keep <> None then incr torn;
      let problems = check_at ?recover_config trace raw p in
      incr checked;
      (match progress with
      | Some f -> f ~checked:!checked ~selected
      | None -> ());
      if problems <> [] then on_violation { v_point = p; v_problems = problems })
    points;
  (!checked, !torn)

let run ?(granularity = 512) ?budget ?(seed = 1) ?recover_config
    ?(shrink_limit = 4000) ?trace_dir ?progress trace =
  let all_points = enumerate ~granularity trace in
  let total = List.length all_points in
  let points =
    match budget with
    | None -> all_points
    | Some b -> sample ~budget:b ~seed all_points
  in
  let violation_points = ref 0 in
  let kept = ref [] in
  let on_violation v =
    incr violation_points;
    if !violation_points <= max_kept_violations then kept := v :: !kept
  in
  let checked, torn =
    check_ordered ?recover_config ?progress trace trace.tr_raw points
      ~on_violation
  in
  let violations = List.rev !kept in
  (* shrink: the minimal reproducer is the earliest failing point of the
     full enumeration; scan from the start (bounded), falling back to
     the earliest sampled failure *)
  let minimal =
    match violations with
    | [] -> None
    | first :: _ ->
      let found = ref None in
      let scanned = ref 0 in
      (try
         ignore
           (check_ordered ?recover_config trace trace.tr_raw
              (List.filter
                 (fun p ->
                   incr scanned;
                   !scanned <= shrink_limit
                   && (p.pt_index, p.pt_keep) < (first.v_point.pt_index, first.v_point.pt_keep))
                 all_points)
              ~on_violation:(fun v ->
                found := Some v;
                raise Exit))
       with Exit -> ());
      (match !found with Some v -> Some v | None -> Some first)
  in
  let trace_file, writes_file, forensics_files =
    match (minimal, trace_dir) with
    | Some v, Some dir ->
      let point_tag =
        match v.v_point.pt_keep with
        | None -> string_of_int v.v_point.pt_index
        | Some k -> Printf.sprintf "%d-torn%d" v.v_point.pt_index k
      in
      let label = Printf.sprintf "crash-%s-at-%s" trace.tr_name point_tag in
      let wpath = Filename.concat dir (label ^ ".writes.json") in
      (try
         (* the bundle's trace file is the recovery trace the reproducer
            always carried; the black box + metrics ride alongside *)
         let bundle =
           dump_point_bundle ?recover_config trace v.v_point ~dir ~label
         in
         dump_point_writes trace v.v_point ~path:wpath;
         let tpath =
           List.find_opt
             (fun p -> Filename.check_suffix p ".trace.json")
             bundle
         in
         let extras = List.filter (fun p -> Some p <> tpath) bundle in
         (tpath, Some wpath, extras)
       with Sys_error msg ->
         reproducer_not_written dir msg;
         (None, None, []))
    | _ -> (None, None, [])
  in
  {
    r_workload = trace.tr_name;
    r_seed = seed;
    r_writes = trace_writes trace;
    r_oracle_units = trace_oracle_units trace;
    r_points_total = total;
    r_points_checked = checked;
    r_torn_checked = torn;
    r_violation_points = !violation_points;
    r_violations = violations;
    r_minimal = minimal;
    r_trace_file = trace_file;
    r_writes_file = writes_file;
    r_forensics_files = forensics_files;
  }

(* A [lld crashcheck --workload ... --at ...] command line that replays
   exactly this crash point. *)
let repro_hint ~workload point =
  match point.pt_keep with
  | None ->
    Printf.sprintf "lld crashcheck --workload %s --at %d" workload
      point.pt_index
  | Some k ->
    Printf.sprintf "lld crashcheck --workload %s --at %d:%d" workload
      point.pt_index k

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>workload %s: %d disk writes, %d oracle units@,\
     crash points: %d checked of %d enumerated (%d torn variants)@,"
    r.r_workload r.r_writes r.r_oracle_units r.r_points_checked r.r_points_total
    r.r_torn_checked;
  if r.r_violation_points = 0 then
    Format.fprintf ppf "no atomicity violations@]"
  else begin
    Format.fprintf ppf
      "%d crash point(s) VIOLATED atomicity (sampling seed %d; rerun with \
       --seed %d)@,"
      r.r_violation_points r.r_seed r.r_seed;
    (match r.r_minimal with
    | None -> ()
    | Some v ->
      Format.fprintf ppf "minimal reproducer: %a@,  %s@," pp_point v.v_point
        (repro_hint ~workload:r.r_workload v.v_point);
      List.iter (fun p -> Format.fprintf ppf "  %s@," p) v.v_problems;
      (match r.r_trace_file with
      | None -> ()
      | Some f -> Format.fprintf ppf "  recovery trace: %s@," f);
      (match r.r_writes_file with
      | None -> ()
      | Some f -> Format.fprintf ppf "  pre-crash writes: %s@," f);
      List.iter
        (fun f -> Format.fprintf ppf "  forensics: %s@," f)
        r.r_forensics_files);
    Format.fprintf ppf "@]"
  end

(* ------------------------------------------------------------------ *)
(* Crashing during recovery itself                                     *)

type recovery_violation = {
  rv_outer : point;
  rv_inner : point option;
  rv_problems : string list;
}

type recovery_result = {
  rr_workload : string;
  rr_seed : int;
  rr_outer_checked : int;
  rr_inner_checked : int;
  rr_inner_torn : int;
  rr_recovery_writes : int;
  rr_ondemand_units : int;
  rr_violation_points : int;
  rr_violations : recovery_violation list;
  rr_writes_file : string option;
}

let recovery_ok r = r.rr_violation_points = 0

(* Verify the oracle on an early-opened instance (the on-demand pass:
   reads alone — no invariant probe, no fsck — so every unit is served
   before the post-recovery checkpoint), complete the recovery, verify
   again eagerly and demand the verdicts agree. *)
let verify_early_then_complete trace lld =
  let on_demand () =
    let fs, unmounted =
      mount_fs ~what:"mount during early-open recovery" trace.tr_fs lld
    in
    let problems, statuses =
      judge_units ~blocks:(Lld_judge.blocks lld) ~fs trace.tr_oracle
    in
    (unmounted @ problems, statuses)
  in
  match on_demand () with
  | exception e -> [ "on-demand verification raised: " ^ Printexc.to_string e ]
  | early_problems, early_statuses -> (
    match Lld.complete_recovery lld with
    | exception e ->
      early_problems @ [ "completing recovery raised: " ^ Printexc.to_string e ]
    | _final_report ->
      let full_problems, full_statuses =
        verify_recovered ~fs:trace.tr_fs trace.tr_oracle lld
      in
      let drift =
        if early_statuses = full_statuses then []
        else
          [
            "on-demand recovery disagrees with completed recovery: unit \
             statuses changed";
          ]
      in
      early_problems @ full_problems @ drift)

(* One outer workload crash point: recover with early open and verify
   it (its writes — the post-recovery checkpoint included — recorded),
   then crash the recovery itself at every inner point of its own write
   sequence (including torn checkpoint chunks) and demand that a second
   recovery from each such image still satisfies the oracle. *)
let check_during_recovery ?recover_config ~granularity ~inner_budget ~seed
    trace outer ~on_violation =
  let base_config = Option.value recover_config ~default:trace.tr_config in
  let config = { base_config with Config.recovery_early_open = true } in
  let disks = load trace trace.tr_raw outer in
  let raw, outcome =
    Raw.record disks (fun () ->
        match Lld.recover ~config disks.(0) with
        | exception e ->
          Error [ "early-open recovery raised: " ^ Printexc.to_string e ]
        | lld, _report -> Ok (verify_early_then_complete trace lld))
  in
  let violation ?inner problems =
    on_violation { rv_outer = outer; rv_inner = inner; rv_problems = problems }
  in
  match outcome with
  | Error problems ->
    violation problems;
    (0, 0, 0, 0)
  | Ok problems ->
    if problems <> [] then violation problems;
    let inner_all = Raw.enumerate ~granularity raw in
    let inner =
      match inner_budget with
      | None -> inner_all
      | Some b -> Raw.sample ~budget:b ~seed inner_all
    in
    let checked, torn =
      check_ordered ?recover_config trace raw inner ~on_violation:(fun v ->
          violation ~inner:v.v_point v.v_problems)
    in
    (Array.length raw.Raw.writes, checked, torn, trace_oracle_units trace)

let run_during_recovery ?(granularity = 512) ?(budget = 24) ?inner_budget
    ?(seed = 1) ?recover_config ?trace_dir ?progress trace =
  if Array.length trace.tr_raw.Raw.bases <> 1 then
    invalid_arg "Crashcheck.run_during_recovery: one-disk traces only";
  let outer_points =
    sample ~budget ~seed (enumerate ~granularity trace)
  in
  let total = List.length outer_points in
  let violation_points = ref 0 in
  let kept = ref [] in
  let on_violation v =
    incr violation_points;
    if !violation_points <= max_kept_violations then kept := v :: !kept
  in
  let outer_checked = ref 0 in
  let inner_checked = ref 0 in
  let inner_torn = ref 0 in
  let recovery_writes = ref 0 in
  let ondemand_units = ref 0 in
  List.iter
    (fun outer ->
      let writes, checked, torn, units =
        check_during_recovery ?recover_config ~granularity ~inner_budget ~seed
          trace outer ~on_violation
      in
      incr outer_checked;
      recovery_writes := !recovery_writes + writes;
      inner_checked := !inner_checked + checked;
      inner_torn := !inner_torn + torn;
      ondemand_units := !ondemand_units + units;
      match progress with
      | Some f -> f ~outer:!outer_checked ~total
      | None -> ())
    outer_points;
  let violations = List.rev !kept in
  let writes_file =
    match (violations, trace_dir) with
    | first :: _, Some dir ->
      let point_tag =
        match first.rv_outer.pt_keep with
        | None -> string_of_int first.rv_outer.pt_index
        | Some k -> Printf.sprintf "%d-torn%d" first.rv_outer.pt_index k
      in
      let path =
        Filename.concat dir
          (Printf.sprintf "crash-rec-%s-at-%s.writes.json" trace.tr_name
             point_tag)
      in
      (try
         Lld_obs.Forensics.ensure_dir dir;
         dump_point_writes trace first.rv_outer ~path;
         Some path
       with Sys_error msg ->
         reproducer_not_written dir msg;
         None)
    | _ -> None
  in
  {
    rr_workload = trace.tr_name;
    rr_seed = seed;
    rr_outer_checked = !outer_checked;
    rr_inner_checked = !inner_checked;
    rr_inner_torn = !inner_torn;
    rr_recovery_writes = !recovery_writes;
    rr_ondemand_units = !ondemand_units;
    rr_violation_points = !violation_points;
    rr_violations = violations;
    rr_writes_file = writes_file;
  }

let pp_recovery_violation ppf v =
  match v.rv_inner with
  | None ->
    Format.fprintf ppf "recovery from workload crash (%a)" pp_point v.rv_outer
  | Some ip ->
    Format.fprintf ppf
      "crash during recovery (workload %a; recovery %a)" pp_point v.rv_outer
      pp_point ip

let pp_recovery_result ppf r =
  Format.fprintf ppf
    "@[<v>workload %s, crash-during-recovery: %d workload crash points@,\
     %d recovery-internal crash points checked (%d torn) over %d recovery \
     writes; %d on-demand unit verifications@,"
    r.rr_workload r.rr_outer_checked r.rr_inner_checked r.rr_inner_torn
    r.rr_recovery_writes r.rr_ondemand_units;
  if r.rr_violation_points = 0 then
    Format.fprintf ppf "no atomicity violations@]"
  else begin
    Format.fprintf ppf
      "%d point(s) VIOLATED atomicity (sampling seed %d)@,"
      r.rr_violation_points r.rr_seed;
    (match r.rr_violations with
    | [] -> ()
    | v :: _ ->
      Format.fprintf ppf "first: %a@," pp_recovery_violation v;
      List.iter (fun p -> Format.fprintf ppf "  %s@," p) v.rv_problems);
    (match r.rr_writes_file with
    | None -> ()
    | Some f -> Format.fprintf ppf "  pre-crash writes: %s@," f);
    Format.fprintf ppf "@]"
  end

(* ------------------------------------------------------------------ *)
(* Silent corruption: inject media rot into an intact final image and
   demand the scrubber detects it, repairs everything redundancy
   allows, and the oracle still verifies in full (DESIGN.md §5.13). *)

module Superblock = Lld_core.Superblock

type corruption_result = {
  c_workload : string;
  c_rounds : int;  (** corruption scenarios actually exercised *)
  c_bad_slots : int;
  c_repaired : int;
  c_salvaged : int;
  c_lost : int;
  c_superblock_repaired : int;
  c_problems : string list;
}

let corruption_ok r = r.c_problems = []

let corruption_check ?backend spec =
  let backend = default_backend spec.sc_geom backend in
  let trace, disk, _ = record_on backend spec in
  let final = Disk.snapshot disk in
  Disk.close disk;
  let geom = spec.sc_geom in
  let config = spec.sc_config in
  let problems = ref [] in
  let rounds = ref 0 in
  let bad = ref 0 and repaired = ref 0 and salvaged = ref 0 and lost = ref 0 in
  let sb_repaired = ref 0 in
  let add ctx ps = problems := !problems @ List.map (fun p -> ctx ^ ": " ^ p) ps in
  let tally r =
    bad := !bad + r.Lld.scrub_bad_slots;
    repaired := !repaired + r.Lld.scrub_repaired;
    salvaged := !salvaged + r.Lld.scrub_salvaged;
    lost := !lost + r.Lld.scrub_lost;
    sb_repaired := !sb_repaired + r.Lld.scrub_superblock_repaired
  in
  (* every round mounts its own pristine copy of the final image *)
  let mount ctx image =
    let disk = Disk.load ~clock:(Clock.create ()) geom image in
    match Lld.recover ~config disk with
    | lld, _report -> Some (disk, lld)
    | exception e ->
      add ctx [ "recovery raised: " ^ Printexc.to_string e ];
      None
  in
  let verify ctx lld =
    let ps, _ = verify_recovered ~fs:spec.sc_fs trace.tr_oracle lld in
    add ctx ps
  in
  let remount_verify ctx disk =
    match mount ctx (Disk.snapshot disk) with
    | None -> ()
    | Some (_disk2, lld2) -> verify (ctx ^ " (remount)") lld2
  in
  let rot disk ~offset ~length =
    Fault.corrupt_sector (Disk.fault disk) ~offset ~length;
    Disk.apply_corruption disk
  in
  (* some committed block with a persistent location, to aim rot at *)
  let find_victim lld =
    let limit =
      geom.Geometry.segment_bytes / geom.Geometry.block_bytes
      * geom.Geometry.num_segments
    in
    let rec go i =
      if i >= limit then None
      else
        let b = Types.Block_id.of_int i in
        match Lld.block_phys lld b with
        | Some (seg, slot) -> Some (b, seg, slot)
        | None -> go (i + 1)
    in
    go 0
  in

  (* Round 1 — segment meta rot on a cold mount.  The slot bytes are
     intact, so scrub must recover every live block of the segment
     (salvage, or relocation when recovery happened to warm the cache)
     with zero loss. *)
  (match mount "meta-rot" (Bytes.copy final) with
  | None -> ()
  | Some (disk, lld) -> (
    match find_victim lld with
    | None -> add "meta-rot" [ "workload left no locatable committed block" ]
    | Some (victim, seg, _slot) ->
      incr rounds;
      rot disk
        ~offset:
          (Geometry.segment_offset geom seg + geom.Geometry.segment_bytes - 32)
        ~length:8;
      let r = Lld.scrub lld in
      tally r;
      if r.Lld.scrub_bad_slots = 0 then
        add "meta-rot" [ "scrub failed to detect the rotted segment header" ];
      if r.Lld.scrub_lost > 0 then
        add "meta-rot"
          [
            Printf.sprintf "%d block(s) lost although all slot data was intact"
              r.Lld.scrub_lost;
          ];
      (match Lld.read lld victim with
      | _ -> ()
      | exception e ->
        add "meta-rot"
          [ "read after scrub still refuses: " ^ Printexc.to_string e ]);
      verify "meta-rot" lld;
      remount_verify "meta-rot" disk));

  (* Round 2 — generational superblock rot.  Mount rewrites one slot
     (the new checkpoint's parity); rot the other, older generation and
     demand scrub rewrites it so both survive a remount. *)
  (match mount "superblock-rot" (Bytes.copy final) with
  | None -> ()
  | Some (disk, lld) -> (
    match Superblock.read_slots disk with
    | Some a, Some b ->
      incr rounds;
      let older = if a.Superblock.epoch < b.Superblock.epoch then 0 else 1 in
      rot disk ~offset:(Superblock.slot_offset geom older) ~length:16;
      let r = Lld.scrub lld in
      tally r;
      if r.Lld.scrub_superblock_repaired < 1 then
        add "superblock-rot"
          [ "scrub did not rewrite the rotted generation slot" ];
      (match Superblock.read_slots disk with
      | Some _, Some _ -> ()
      | _ ->
        add "superblock-rot"
          [ "a generation slot is still invalid after scrub" ]);
      verify "superblock-rot" lld;
      remount_verify "superblock-rot" disk
    | _ ->
      add "superblock-rot"
        [ "expected both generation slots valid after a mount" ]));

  (* Round 3 — slot-data rot on a warm instance.  The block was read
     (so the LRU cache holds a verified copy) before its on-disk slot
     rots; scrub must relocate the cached copy, losing nothing. *)
  (match mount "slot-rot" final with
  | None -> ()
  | Some (disk, lld) -> (
    verify "slot-rot (pre-corruption)" lld;
    match find_victim lld with
    | None -> add "slot-rot" [ "workload left no locatable committed block" ]
    | Some (victim, seg, slot) ->
      incr rounds;
      let before = Bytes.copy (Lld.read lld victim) in
      rot disk
        ~offset:
          (Geometry.segment_offset geom seg
          + (slot * geom.Geometry.block_bytes))
        ~length:16;
      let r = Lld.scrub lld in
      tally r;
      if r.Lld.scrub_repaired < 1 then
        add "slot-rot" [ "scrub did not repair the rotted slot from cache" ];
      if r.Lld.scrub_lost > 0 then
        add "slot-rot"
          [ Printf.sprintf "%d block(s) lost despite a cached copy" r.Lld.scrub_lost ];
      (match Lld.read lld victim with
      | after ->
        if not (Bytes.equal before after) then
          add "slot-rot" [ "repaired block's contents changed" ]
      | exception e ->
        add "slot-rot"
          [ "read after repair raised: " ^ Printexc.to_string e ]);
      verify "slot-rot" lld;
      remount_verify "slot-rot" disk));

  {
    c_workload = spec.sc_name;
    c_rounds = !rounds;
    c_bad_slots = !bad;
    c_repaired = !repaired;
    c_salvaged = !salvaged;
    c_lost = !lost;
    c_superblock_repaired = !sb_repaired;
    c_problems = !problems;
  }

(* ------------------------------------------------------------------ *)
(* Sharded crash-point checking: cross-shard ARUs under two-phase
   commit (DESIGN.md §5.14).  S disks, one virtual clock, one
   interleaved global write trace recorded by [Raw.record], and a crash
   point is a prefix of that order: the shards' media freeze together,
   exactly the whole-machine power-loss the 2PC protocol must survive.
   Prepare and Decide seals are ordinary traced writes, so the
   enumeration lands complete AND torn crash points between prepare and
   decision and inside each. *)

module Shard_judge = Judge (Shard)

type sharded_spec = {
  ss_name : string;
  ss_geom : Geometry.t;
  ss_config : Config.t;
  ss_shards : int;
  ss_run : Shard.t -> Oracle.t -> unit;
}

(* The cross-shard workload.  Per shard: an "anchor" unit (own list,
   never touched again — keeps the strict list-order check alive) and a
   "rail" unit whose committed list later cross-shard ARUs append to —
   appending to a pre-placed rail pins each 2PC's participant set by
   construction instead of leaning on list placement.  Then:
   X0 spans rails 0,1 (committed, followed by a flush so its lazy
   Decide is durable); X1 spans rails 1,2 (committed, NO flush — the
   participant's Decide stays buffered, so crash points cover the
   decided-but-unpropagated window the recovery decision scan must
   close); X2 spans all three rails (P = 3: two prepares, one
   decision); and U appends to rails 0 and 2, is flushed but never
   committed — no crash image may surface it, even though every data
   block is durable on two shards.  Every cross-shard ARU additionally
   OVERWRITES one preexisting durably-committed target block per
   participant shard: a crash between a participant's prepare and the
   coordinator's decision presumed-aborts the transaction, and the
   target must then read back its old committed bytes — the prepare
   merge wrote the shadow data into the participant's log, so this is
   what catches a merge that reuses the committed version's slot. *)
let cross_shard_spec ?(shards = 3) () =
  if shards < 2 then
    invalid_arg "Crashcheck.cross_shard_spec: needs at least 2 shards";
  {
    ss_name = "cross-shard";
    ss_geom = checker_geom;
    ss_config = Config.default;
    ss_shards = shards;
    ss_run =
      (fun t oracle ->
        let payload =
          payload ~tag:"xshard" ~mul:(173, 31) (Shard.block_bytes t)
        in
        let unit_no = ref 0 in
        (* one committed single-shard unit; returns its list and block *)
        let seed () =
          let u = !unit_no in
          incr unit_no;
          let a = Shard.begin_aru t in
          let l = Shard.new_list t ~aru:a () in
          let b = Shard.new_block t ~aru:a ~list:l ~pred:Summary.Head () in
          let data = payload u 0 in
          Shard.write t ~aru:a b data;
          Shard.end_aru t a;
          (u, l, b, data)
        in
        (* anchors: full list-order oracle units, never appended to *)
        for _ = 1 to shards do
          let u, l, b, data = seed () in
          Oracle.add_blocks oracle
            ~label:(Printf.sprintf "anchor-%d" u)
            ~must_not_commit:false ~lists:[ l ]
            [ (b, data) ]
        done;
        (* rails: one committed list per shard, indexed by actual shard *)
        let rails = Array.make shards None in
        for _ = 1 to shards do
          let u, l, b, data = seed () in
          let s = Shard.list_shard ~shards (Types.List_id.to_int l) in
          if rails.(s) <> None then
            failwith "cross-shard spec: rail placement did not spread";
          rails.(s) <- Some (l, b);
          Oracle.add_blocks oracle
            ~label:(Printf.sprintf "rail-%d" u)
            ~must_not_commit:false ~lists:[]
            [ (b, data) ]
        done;
        let rails =
          Array.map
            (function
              | Some r -> ref r
              | None -> failwith "cross-shard spec: shard without a rail")
            rails
        in
        (* targets: preexisting committed single-shard blocks the
           cross-shard ARUs overwrite.  A presumed-aborted 2PC must
           leave each target's committed version byte-intact: the
           prepare merges the shadow data into the participant's log,
           but the decision lives on the coordinator, so the merge may
           never reuse a committed version's slot (the cross-scope
           coalescing hazard).  Each round is seeded IMMEDIATELY before
           its cross ARU — no flush in between — so the target's
           committed slot still sits in the open segment the prepare
           merge writes into, which is exactly when slot coalescing
           could strike.  Targets are not their own oracle units (their
           content legitimately changes when the overwriting ARU
           commits); the overwrite triples carry the expectation, and
           the judge accepts a target absent wholesale at crash points
           predating its own durability. *)
        let targets = Array.init shards (fun _ -> Queue.create ()) in
        let seed_targets () =
          let seen = Array.make shards false in
          for _ = 1 to shards do
            let _, _, b, data = seed () in
            let s = Shard.block_shard ~shards (Types.Block_id.to_int b) in
            if seen.(s) then
              failwith "cross-shard spec: target placement did not spread";
            seen.(s) <- true;
            Queue.push (b, data) targets.(s)
          done
        in
        let append a u s j =
          let l, tail = !(rails.(s)) in
          let b =
            Shard.new_block t ~aru:a ~list:l ~pred:(Summary.After tail) ()
          in
          let data = payload u (j + 1) in
          Shard.write t ~aru:a b data;
          rails.(s) := (l, b);
          (b, data)
        in
        let overwrite a u s j =
          let b, old_data = Queue.pop targets.(s) in
          let new_data = payload u (j + 1 + shards) in
          Shard.write t ~aru:a b new_data;
          (b, old_data, new_data)
        in
        let cross ~label ~must_not_commit shard_set =
          (* fresh targets per cross ARU, seeded in the current open
             segment; one round per repeat of a shard in the set (with
             two shards, x12's set degenerates to [1; 1]) *)
          Array.iter Queue.clear targets;
          let need = Array.make shards 0 in
          List.iter (fun s -> need.(s) <- need.(s) + 1) shard_set;
          for _ = 1 to Array.fold_left max 1 need do
            seed_targets ()
          done;
          let u = !unit_no in
          incr unit_no;
          let a = Shard.begin_aru t in
          let blocks = List.mapi (fun j s -> append a u s j) shard_set in
          let overwrites = List.mapi (fun j s -> overwrite a u s j) shard_set in
          if not must_not_commit then Shard.end_aru t a;
          Oracle.add_blocks oracle
            ~label:(Printf.sprintf "%s-%d" label u)
            ~must_not_commit ~overwrites ~lists:[] blocks
        in
        cross ~label:"x01" ~must_not_commit:false [ 0; 1 ];
        Shard.flush t;
        (* committed, but its participant Decide rides the NEXT barrier:
           crash points from here cover the unpropagated-decision window *)
        cross ~label:"x12" ~must_not_commit:false [ 1; shards - 1 ];
        if shards >= 3 then
          cross ~label:"xall" ~must_not_commit:false
            (List.init shards Fun.id);
        (* durable on two shards, never committed *)
        cross ~label:"undecided" ~must_not_commit:true [ 0; shards - 1 ];
        Shard.flush t);
  }

let record_sharded spec =
  let clock = Clock.create () in
  let disks =
    Array.init spec.ss_shards (fun _ ->
        Disk.create
          ~backend:(default_backend spec.ss_geom None)
          ~clock spec.ss_geom)
  in
  let t = Shard.create ~config:spec.ss_config disks in
  Shard.flush t;
  let oracle = Oracle.create () in
  let raw, () = Raw.record disks (fun () -> spec.ss_run t oracle) in
  Array.iter Disk.close disks;
  {
    tr_name = spec.ss_name;
    tr_geom = spec.ss_geom;
    tr_config = spec.ss_config;
    tr_fs = None;
    tr_raw = raw;
    tr_oracle = oracle;
    tr_recover =
      (fun ~obs config disks ->
        match Shard.recover ~config ~obs disks with
        | exception e -> Error e
        | t, _reports ->
          let invariants = Shard.recovery_invariant_errors t in
          let problems, statuses =
            judge_units ~blocks:(Shard_judge.blocks t) ~fs:None oracle
          in
          Ok (invariants @ problems, statuses));
  }

let pp_corruption_result ppf r =
  Format.fprintf ppf
    "@[<v>workload %s, silent corruption: %d scenario(s)@,\
     %d bad slot(s): %d repaired, %d salvaged, %d lost; %d superblock slot(s) \
     rewritten@,"
    r.c_workload r.c_rounds r.c_bad_slots r.c_repaired r.c_salvaged r.c_lost
    r.c_superblock_repaired;
  if r.c_problems = [] then Format.fprintf ppf "all damage healed@]"
  else begin
    Format.fprintf ppf "%d problem(s):@," (List.length r.c_problems);
    List.iter (fun p -> Format.fprintf ppf "  %s@," p) r.c_problems;
    Format.fprintf ppf "@]"
  end
