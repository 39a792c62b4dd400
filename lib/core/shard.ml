(* Sharded LLD facade: S independent Lld instances, stateless placement
   of the global name spaces, single-shard commits passed through
   unchanged and cross-shard ARUs committed with two-phase commit over
   the shards' summary records.  See shard.mli and DESIGN.md §5.14. *)

module Obs = Lld_obs.Obs
module Tr = Lld_obs.Trace

(* internal: a 2PC whose prepare phase failed was aborted in place on
   every participant; carries the original failure for the caller to
   surface after it drops the facade entry.  Never escapes this module. *)
exception Aborted_2pc of exn

(* ------------------------------------------------------------------ *)
(* Placement: pure, total, state-free                                  *)

let block_shard ~shards g = g mod shards
let block_local ~shards g = g / shards
let block_global ~shards ~shard local = (local * shards) + shard
let list_shard ~shards g = (g - 1) mod shards
let list_local ~shards g = ((g - 1) / shards) + 1
let list_global ~shards ~shard local = ((local - 1) * shards) + shard + 1

(* ------------------------------------------------------------------ *)

type astate =
  | Open
  | Queued of int
      (* single participant shard whose group-commit queue holds it *)

type aentry = {
  mutable locals : (int * Types.Aru_id.t) list;  (* shard -> local ARU *)
  mutable state : astate;
}

type t = {
  shards : Lld.t array;
  s : int;
  cfg : Config.t;
  counters : Counters.t;  (* the facade's own; shard 0's when s = 1 *)
  arus : (int, aentry) Hashtbl.t;  (* global ARU id -> entry (s > 1) *)
  mutable next_aru : int;
  mutable gid : int;  (* next cross-shard transaction id *)
  mutable sync_committed : int;
      (* cross-shard ARUs committed synchronously at submission, not
         yet reported through a flush_commits return value *)
  mutable fobs : Obs.t;
}

let shard_count t = t.s
let handles t = t.shards
let sh0 t = t.shards.(0)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let check_uniform shards =
  let d0 = shards.(0) in
  Array.iteri
    (fun i d ->
      if i > 0 then begin
        if not (Lld.clock d == Lld.clock d0) then
          invalid_arg "Shard: all shard disks must share one clock";
        if Lld.capacity d <> Lld.capacity d0 then
          invalid_arg "Shard: shard capacities differ";
        if Lld.block_bytes d <> Lld.block_bytes d0 then
          invalid_arg "Shard: shard block sizes differ"
      end)
    shards

let wrap cfg shards =
  let s = Array.length shards in
  check_uniform shards;
  {
    shards;
    s;
    cfg;
    counters = (if s = 1 then Lld.counters shards.(0) else Counters.create ());
    arus = Hashtbl.create 8;
    next_aru = 1;
    gid = Array.fold_left (fun m sh -> max m (Lld.next_gid sh)) 1 shards;
    sync_committed = 0;
    fobs = Obs.null;
  }

let create ?(config = Config.default) ?(obs = Obs.null) disks =
  if Array.length disks = 0 then invalid_arg "Shard.create: no disks";
  let shards =
    Array.mapi
      (fun i d -> Lld.create ~config ~obs:(if i = 0 then obs else Obs.null) d)
      disks
  in
  let t = wrap config shards in
  t.fobs <- obs;
  t

let recover ?(config = Config.default) ?(obs = Obs.null) disks =
  let n = Array.length disks in
  if n = 0 then invalid_arg "Shard.recover: no disks";
  if n = 1 then begin
    (* single shard: plain mount, bit-identical to an unsharded Lld *)
    let lld, report = Lld.recover ~config ~obs disks.(0) in
    let t = wrap config [| lld |] in
    t.fobs <- obs;
    (t, [| report |])
  end
  else begin
    (* a disk that crashed in place refuses reads until its fault plan
       is reset, which [Lld.recover] does only after the scan below *)
    Array.iter
      (fun d -> Lld_disk.Fault.reset_after_recovery (Lld_disk.Disk.fault d))
      disks;
    (* Every [Decide] verdict still in any shard's log, regardless of
       checkpoint coverage.  Sound for resolving a peer's dangling
       prepare because the coordinator's decision segment cannot have
       been cleaned before every participant made its own (lazy)
       [Decide] durable.  An unreadable or torn segment contributes
       nothing, which presumed abort makes safe.  The gid watermark
       keeps a remount from reusing a transaction id that a stale record
       could vouch for. *)
    let union : (int, bool) Hashtbl.t = Hashtbl.create 16 in
    let watermark =
      Array.fold_left
        (fun wm d ->
          Seglog.fold_log d ~init:wm (fun wm _ -> function
            | None -> wm
            | Some p ->
              List.fold_left
                (fun wm (e : Summary.t) ->
                  match e.Summary.op with
                  | Summary.Decide { gid; committed; _ } ->
                    (* commit wins: the coordinator's Decide is
                       authoritative and participants only mirror it *)
                    if committed || not (Hashtbl.mem union gid) then
                      Hashtbl.replace union gid committed;
                    max wm (gid + 1)
                  | Summary.Prepare { gid; _ } -> max wm (gid + 1)
                  | _ -> wm)
                wm p.Segment.p_entries))
        1 disks
    in
    let decisions gid = Hashtbl.find_opt union gid in
    let pairs = Array.make n None in
    Array.iteri
      (fun i d ->
        let obs = if i = 0 then obs else Obs.null in
        pairs.(i) <- Some (Lld.recover ~config ~obs ~decisions d))
      disks;
    let get i = match pairs.(i) with Some p -> p | None -> assert false in
    let shards = Array.init n (fun i -> fst (get i)) in
    let reports = Array.init n (fun i -> snd (get i)) in
    let t = wrap config shards in
    if watermark > t.gid then t.gid <- watermark;
    t.fobs <- obs;
    (t, reports)
  end

(* ------------------------------------------------------------------ *)
(* Error translation: exceptions escaping a shard name local
   identifiers; the caller only knows global ones.                     *)

let global_of_local_aru t sh la =
  Hashtbl.fold
    (fun g e acc ->
      match acc with
      | Some _ -> acc
      | None -> (
        match List.assoc_opt sh e.locals with
        | Some a when Types.Aru_id.equal a la -> Some g
        | _ -> None))
    t.arus None

let translate_exn t sh = function
  | Errors.Unallocated_block b ->
    Errors.Unallocated_block
      (Types.Block_id.of_int
         (block_global ~shards:t.s ~shard:sh (Types.Block_id.to_int b)))
  | Errors.Unallocated_list l ->
    Errors.Unallocated_list
      (Types.List_id.of_int
         (list_global ~shards:t.s ~shard:sh (Types.List_id.to_int l)))
  | Errors.Block_not_on_list b ->
    Errors.Block_not_on_list
      (Types.Block_id.of_int
         (block_global ~shards:t.s ~shard:sh (Types.Block_id.to_int b)))
  | Errors.Unknown_aru a as e -> (
    match global_of_local_aru t sh a with
    | Some g -> Errors.Unknown_aru (Types.Aru_id.of_int g)
    | None -> e)
  | Errors.Commit_pending a as e -> (
    match global_of_local_aru t sh a with
    | Some g -> Errors.Commit_pending (Types.Aru_id.of_int g)
    | None -> e)
  | e -> e

let routed t sh f = try f () with e -> raise (translate_exn t sh e)

(* ------------------------------------------------------------------ *)
(* Global ARUs (s > 1): one entry per ARU, local slices opened lazily
   on the first operation that touches a shard                         *)

let entry t aid =
  match Hashtbl.find_opt t.arus (Types.Aru_id.to_int aid) with
  | Some e -> e
  | None -> raise (Errors.Unknown_aru aid)

let local_aru t e sh =
  match List.assoc_opt sh e.locals with
  | Some a -> a
  | None ->
    let a = Lld.begin_aru t.shards.(sh) in
    e.locals <- (sh, a) :: e.locals;
    a

(* the ?aru argument an operation routed to [sh] should carry *)
let local_for t aru sh =
  match aru with
  | None -> None
  | Some aid -> Some (local_aru t (entry t aid) sh)

let participants e =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) e.locals

let begin_aru t =
  if t.s = 1 then Lld.begin_aru (sh0 t)
  else begin
    let id = t.next_aru in
    t.next_aru <- id + 1;
    Hashtbl.replace t.arus id { locals = []; state = Open };
    t.counters.Counters.arus_begun <- t.counters.Counters.arus_begun + 1;
    Types.Aru_id.of_int id
  end

(* Commit an open entry: fast path for 0/1 participants, two-phase
   commit across several.  The coordinator is the lowest participant
   shard; it needs no Prepare — its slice commits or dies with the
   Decide record (the transaction's single commit point). *)
let commit_entry t e =
  match participants e with
  | [] -> ()
  | [ (sh, la) ] -> routed t sh (fun () -> Lld.end_aru t.shards.(sh) la)
  | (csh, ca) :: rest ->
    let gid = t.gid in
    t.gid <- gid + 1;
    Obs.timed t.fobs Tr.Aru "commit.cross"
      ~args:
        [
          ("gid", Tr.I gid);
          ("participants", Tr.I (List.length rest + 1));
          ("coordinator", Tr.I csh);
        ]
      (fun () ->
        (* the prepare barriers land on independent spindles, as do the
           decide-propagation writes: each phase is one parallel round
           (Clock.overlap); the phases themselves stay ordered — every
           prepare is durable before the Decide, which is durable
           before any participant applies it *)
        (try
           Lld_sim.Clock.overlap
             (Lld.clock (sh0 t))
             (List.map
                (fun (sh, la) () ->
                  routed t sh (fun () ->
                      Lld.prepare_commit t.shards.(sh) la ~gid
                        ~coordinator:csh))
                rest)
         with e ->
           (* mid-prepare failure (Disk_full, a faulted write): presume
              abort NOW rather than dangling until a remount — each
              already-prepared slice writes its Decide{abort} and
              unwinds, the rest (coordinator included) abort in place,
              so no prepare is left pinning the cleaner's floor.  The
              cleanup is best-effort (recovery's presumed abort is the
              backstop if a slice can't even write its abort record).
              Only the prepare phase may do this: once a Decide has
              been attempted it may be durable even if its seal
              raised, and recovery — not us — must resolve the
              survivors. *)
           let drop sh la =
             try Lld.abort_prepared t.shards.(sh) la
             with _ -> ( try Lld.abort_aru t.shards.(sh) la with _ -> ())
           in
           List.iter (fun (sh, la) -> drop sh la) rest;
           (try Lld.abort_aru t.shards.(csh) ca with _ -> ());
           raise (Aborted_2pc e));
        routed t csh (fun () -> Lld.decide_commit t.shards.(csh) ca ~gid);
        Lld_sim.Clock.overlap
          (Lld.clock (sh0 t))
          (List.map
             (fun (sh, la) () ->
               routed t sh (fun () -> Lld.commit_prepared t.shards.(sh) la))
             rest))

let drop_entry_committed t aid =
  Hashtbl.remove t.arus (Types.Aru_id.to_int aid);
  t.counters.Counters.arus_committed <- t.counters.Counters.arus_committed + 1

(* run [commit_entry]; if its prepare phase failed the local slices are
   already gone, so drop the facade entry too and surface the original
   failure *)
let commit_entry_or_abort t aid e =
  try commit_entry t e
  with Aborted_2pc orig ->
    Hashtbl.remove t.arus (Types.Aru_id.to_int aid);
    t.counters.Counters.arus_aborted <- t.counters.Counters.arus_aborted + 1;
    raise orig

let end_aru t aid =
  if t.s = 1 then Lld.end_aru (sh0 t) aid
  else begin
    let e = entry t aid in
    (match e.state with
    | Queued _ -> raise (Errors.Commit_pending aid)
    | Open -> ());
    commit_entry_or_abort t aid e;
    drop_entry_committed t aid
  end

let abort_aru t aid =
  if t.s = 1 then Lld.abort_aru (sh0 t) aid
  else begin
    let e = entry t aid in
    (* a queued single-shard intent is withdrawn by the shard's own
       abort path; nothing extra to do at the facade *)
    List.iter
      (fun (sh, la) -> routed t sh (fun () -> Lld.abort_aru t.shards.(sh) la))
      (participants e);
    Hashtbl.remove t.arus (Types.Aru_id.to_int aid);
    t.counters.Counters.arus_aborted <- t.counters.Counters.arus_aborted + 1
  end

let submit_commit t aid =
  if t.s = 1 then Lld.submit_commit (sh0 t) aid
  else begin
    let e = entry t aid in
    (match e.state with
    | Queued _ -> raise (Errors.Commit_pending aid)
    | Open -> ());
    match participants e with
    | [ (sh, la) ] ->
      routed t sh (fun () -> Lld.submit_commit t.shards.(sh) la);
      if Lld.commit_pending t.shards.(sh) la then e.state <- Queued sh
      else
        (* window = 0 (or sequential) degenerates to an immediate
           commit inside the shard *)
        drop_entry_committed t aid
    | _ ->
      (* 0 participants, or a cross-shard ARU: commit synchronously —
         a 2PC pays its own barriers, so the group-commit queue buys it
         nothing.  Reported through the next flush_commits. *)
      t.counters.Counters.commits_submitted <-
        t.counters.Counters.commits_submitted + 1;
      commit_entry_or_abort t aid e;
      drop_entry_committed t aid;
      t.sync_committed <- t.sync_committed + 1
  end

(* drop entries whose queued single-shard commit has drained *)
let reap_queued t =
  let dead =
    Hashtbl.fold
      (fun g e acc ->
        match e.state with
        | Queued sh -> (
          match List.assoc_opt sh e.locals with
          | Some la when not (Lld.commit_pending t.shards.(sh) la) -> g :: acc
          | _ -> acc)
        | Open -> acc)
      t.arus []
  in
  List.iter
    (fun g -> drop_entry_committed t (Types.Aru_id.of_int g))
    dead

let flush_commits t =
  if t.s = 1 then Lld.flush_commits (sh0 t)
  else begin
    (* the per-shard drains hit independent spindles: issue them as one
       parallel round, so the wall cost is the slowest shard's barrier,
       not the sum (Clock.overlap) *)
    let counts = Array.make t.s 0 in
    Lld_sim.Clock.overlap (Lld.clock (sh0 t))
      (List.init t.s (fun i () ->
           counts.(i) <- Lld.flush_commits t.shards.(i)));
    let k = Array.fold_left ( + ) 0 counts in
    reap_queued t;
    let k = k + t.sync_committed in
    t.sync_committed <- 0;
    k
  end

let commit_due t =
  if t.s = 1 then Lld.commit_due (sh0 t)
  else t.sync_committed > 0 || Array.exists Lld.commit_due t.shards

let commit_pending t aid =
  if t.s = 1 then Lld.commit_pending (sh0 t) aid
  else
    match Hashtbl.find_opt t.arus (Types.Aru_id.to_int aid) with
    | Some { state = Queued sh; locals; _ } -> (
      match List.assoc_opt sh locals with
      | Some la when Lld.commit_pending t.shards.(sh) la -> true
      | _ ->
        (* drained since we queued it: reap lazily so waiters wake *)
        drop_entry_committed t aid;
        false)
    | Some _ | None -> false

let pending_commits t =
  if t.s = 1 then Lld.pending_commits (sh0 t)
  else
    Array.fold_left (fun acc sh -> acc + Lld.pending_commits sh) 0 t.shards
    + t.sync_committed

let with_aru t f =
  let undo =
    match t.cfg.Config.mode with
    | Config.Concurrent -> abort_aru
    | Config.Sequential -> end_aru
  in
  Ld_intf.with_aru ~begin_aru ~end_aru ~undo t f

(* ------------------------------------------------------------------ *)
(* The LD operations: route by placement, translate ids both ways      *)

(* pick the shard holding the fewest lists (ties: lowest index) — a
   balanced, state-derivable policy the model mirrors, stable across
   remounts because it depends only on the committed list population *)
let pick_list_shard t =
  let best = ref 0 and bestn = ref max_int in
  Array.iteri
    (fun i sh ->
      let n = List.length (Lld.lists sh) in
      if n < !bestn then begin
        best := i;
        bestn := n
      end)
    t.shards;
  !best

let new_list t ?aru () =
  if t.s = 1 then Lld.new_list (sh0 t) ?aru ()
  else begin
    let sh = pick_list_shard t in
    let la = local_for t aru sh in
    let ll = routed t sh (fun () -> Lld.new_list t.shards.(sh) ?aru:la ()) in
    Types.List_id.of_int
      (list_global ~shards:t.s ~shard:sh (Types.List_id.to_int ll))
  end

let new_block t ?aru ~list ~pred () =
  if t.s = 1 then Lld.new_block (sh0 t) ?aru ~list ~pred ()
  else begin
    let lg = Types.List_id.to_int list in
    if lg < 1 then raise (Errors.Unallocated_list list);
    let sh = list_shard ~shards:t.s lg in
    let ll = Types.List_id.of_int (list_local ~shards:t.s lg) in
    let lpred =
      match pred with
      | Summary.Head -> Summary.Head
      | Summary.After p ->
        let pg = Types.Block_id.to_int p in
        let psh = block_shard ~shards:t.s pg in
        if psh <> sh then begin
          (* the predecessor lives on another shard, so it cannot be a
             member of this list; mirror the flat spec's error order —
             unallocated-in-the-addressed-state beats not-on-list *)
          let pl = Types.Block_id.of_int (block_local ~shards:t.s pg) in
          let pa = local_for t aru psh in
          if not (Lld.block_allocated t.shards.(psh) ?aru:pa pl) then
            raise (Errors.Unallocated_block p)
          else raise (Errors.Block_not_on_list p)
        end;
        Summary.After (Types.Block_id.of_int (block_local ~shards:t.s pg))
    in
    let la = local_for t aru sh in
    let lb =
      routed t sh (fun () ->
          Lld.new_block t.shards.(sh) ?aru:la ~list:ll ~pred:lpred ())
    in
    Types.Block_id.of_int
      (block_global ~shards:t.s ~shard:sh (Types.Block_id.to_int lb))
  end

(* route a block-addressed operation to the owning shard *)
let on_block t aru b f =
  let g = Types.Block_id.to_int b in
  let sh = block_shard ~shards:t.s g in
  let lb = Types.Block_id.of_int (block_local ~shards:t.s g) in
  let la = local_for t aru sh in
  routed t sh (fun () -> f t.shards.(sh) la lb sh)

let write t ?aru block data =
  if t.s = 1 then Lld.write (sh0 t) ?aru block data
  else on_block t aru block (fun sh la lb _ -> Lld.write sh ?aru:la lb data)

let read t ?aru block =
  if t.s = 1 then Lld.read (sh0 t) ?aru block
  else on_block t aru block (fun sh la lb _ -> Lld.read sh ?aru:la lb)

let delete_block t ?aru block =
  if t.s = 1 then Lld.delete_block (sh0 t) ?aru block
  else on_block t aru block (fun sh la lb _ -> Lld.delete_block sh ?aru:la lb)

let block_allocated t ?aru block =
  if t.s = 1 then Lld.block_allocated (sh0 t) ?aru block
  else
    on_block t aru block (fun sh la lb _ -> Lld.block_allocated sh ?aru:la lb)

let block_member t ?aru block =
  if t.s = 1 then Lld.block_member (sh0 t) ?aru block
  else
    on_block t aru block (fun sh la lb shi ->
        Option.map
          (fun l ->
            Types.List_id.of_int
              (list_global ~shards:t.s ~shard:shi (Types.List_id.to_int l)))
          (Lld.block_member sh ?aru:la lb))

(* route a list-addressed operation; [if_invalid] handles global ids no
   shard can own (list 0 — ids are 1-based) *)
let on_list t aru l ~if_invalid f =
  let g = Types.List_id.to_int l in
  if g < 1 then if_invalid ()
  else begin
    let sh = list_shard ~shards:t.s g in
    let ll = Types.List_id.of_int (list_local ~shards:t.s g) in
    let la = local_for t aru sh in
    routed t sh (fun () -> f t.shards.(sh) la ll sh)
  end

let delete_list t ?aru list =
  if t.s = 1 then Lld.delete_list (sh0 t) ?aru list
  else
    on_list t aru list
      ~if_invalid:(fun () -> raise (Errors.Unallocated_list list))
      (fun sh la ll _ -> Lld.delete_list sh ?aru:la ll)

let list_exists t ?aru list =
  if t.s = 1 then Lld.list_exists (sh0 t) ?aru list
  else
    on_list t aru list
      ~if_invalid:(fun () -> false)
      (fun sh la ll _ -> Lld.list_exists sh ?aru:la ll)

let list_blocks t ?aru list =
  if t.s = 1 then Lld.list_blocks (sh0 t) ?aru list
  else
    on_list t aru list
      ~if_invalid:(fun () -> raise (Errors.Unallocated_list list))
      (fun sh la ll shi ->
        List.map
          (fun b ->
            Types.Block_id.of_int
              (block_global ~shards:t.s ~shard:shi (Types.Block_id.to_int b)))
          (Lld.list_blocks sh ?aru:la ll))

let lists t =
  if t.s = 1 then Lld.lists (sh0 t)
  else begin
    let acc = ref [] in
    Array.iteri
      (fun i sh ->
        List.iter
          (fun l ->
            acc :=
              list_global ~shards:t.s ~shard:i (Types.List_id.to_int l)
              :: !acc)
          (Lld.lists sh))
      t.shards;
    List.sort Int.compare !acc |> List.map Types.List_id.of_int
  end

let flush t = Array.iter Lld.flush t.shards

let capacity t = t.s * Lld.capacity (sh0 t)

let allocated_blocks t =
  Array.fold_left (fun acc sh -> acc + Lld.allocated_blocks sh) 0 t.shards

let block_bytes t = Lld.block_bytes (sh0 t)

let aru_active t aid =
  if t.s = 1 then Lld.aru_active (sh0 t) aid
  else Hashtbl.mem t.arus (Types.Aru_id.to_int aid)

let active_arus t =
  if t.s = 1 then Lld.active_arus (sh0 t)
  else
    Hashtbl.fold (fun g _ acc -> g :: acc) t.arus []
    |> List.sort Int.compare
    |> List.map Types.Aru_id.of_int

let aru_shards t aid =
  if t.s = 1 then
    if Lld.aru_active (sh0 t) aid then [ 0 ] else raise (Errors.Unknown_aru aid)
  else List.map fst (participants (entry t aid))

let next_gid t = if t.s = 1 then Lld.next_gid (sh0 t) else t.gid

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)

let checkpoint t = Array.iter Lld.checkpoint t.shards
let scrub t = Array.map Lld.scrub t.shards

let scavenge t =
  Array.fold_left (fun acc sh -> acc + Lld.scavenge sh) 0 t.shards

let orphan_blocks t =
  if t.s = 1 then Lld.orphan_blocks (sh0 t)
  else begin
    let acc = ref [] in
    Array.iteri
      (fun i sh ->
        List.iter
          (fun b ->
            acc :=
              block_global ~shards:t.s ~shard:i (Types.Block_id.to_int b)
              :: !acc)
          (Lld.orphan_blocks sh))
      t.shards;
    List.sort Int.compare !acc |> List.map Types.Block_id.of_int
  end

let recovery_invariant_errors t =
  let errs = ref [] in
  Array.iteri
    (fun i sh ->
      List.iter
        (fun e -> errs := Printf.sprintf "shard %d: %s" i e :: !errs)
        (Lld.recovery_invariant_errors sh);
      match Lld.prepared_arus sh with
      | [] -> ()
      | dangling ->
        errs :=
          Printf.sprintf
            "shard %d: %d ARU(s) still prepared after recovery (%s)" i
            (List.length dangling)
            (String.concat "," (List.map string_of_int dangling))
          :: !errs)
    t.shards;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Measurement / observability                                         *)

let clock t = Lld.clock (sh0 t)
let cost_model t = Lld.cost_model (sh0 t)
let config t = t.cfg
let counters t = t.counters

let total_counters t =
  let sum = Counters.copy t.counters in
  if t.s > 1 then
    Array.iter
      (fun sh ->
        let c = Lld.counters sh in
        List.iter
          (fun (_, get, set) -> set sum (get sum + get c))
          Counters.fields)
      t.shards;
  sum

let set_obs t obs =
  t.fobs <- obs;
  (* shard 0 only: the per-instance gauge names would collide *)
  Lld.set_obs (sh0 t) obs

let obs t = if t.s = 1 then Lld.obs (sh0 t) else t.fobs
