module Rng = Lld_sim.Rng
module Clock = Lld_sim.Clock
module Geometry = Lld_disk.Geometry
module Disk = Lld_disk.Disk
module Backend = Lld_disk.Backend
module Config = Lld_core.Config
module Types = Lld_core.Types
module Op = Lld_core.Op
module Lld = Lld_core.Lld
module Shard = Lld_core.Shard
module Disk_layout = Lld_core.Disk_layout
module Cc = Lld_crashcheck.Crashcheck
module Raw = Lld_crashcheck.Crashcheck.Raw

type backend = Mem | File

type config = {
  visibility : Config.visibility;
  mutation : Model.mutation option;
  backend : backend;
  clients : int;
  ops : int;
  crash_every : int;
  crash_points : int;
  granularity : int;
  group_commit : bool;
  shards : int;
}

let default_config =
  {
    visibility = Config.Own_shadow;
    mutation = None;
    backend = Mem;
    clients = 2;
    ops = 40;
    crash_every = 4;
    crash_points = 12;
    granularity = 512;
    group_commit = false;
    shards = 1;
  }

type kind = Step_mismatch | Final_state_mismatch | Crash_mismatch

type divergence = {
  dv_kind : kind;
  dv_detail : string list;
  dv_trail : string list;
}

type failure = {
  fl_case_index : int;
  fl_case_seed : int;
  fl_program : Program.t;
  fl_divergence : divergence;
  fl_shrunk : Program.t;
  fl_shrunk_divergence : divergence;
  fl_shrink_execs : int;
}

type report = {
  rp_seed : int;
  rp_config : config;
  rp_cases : int;
  rp_ops : int;
  rp_skipped : int;
  rp_crash_cases : int;
  rp_crash_points : int;
  rp_failure : failure option;
}

let ok r = r.rp_failure = None

(* Small segments keep seals frequent (dense crash points); plenty of
   them keeps programs of a few hundred operations away from cleaning
   pressure and [Disk_full]. *)
let differ_geom = Geometry.v ~segment_bytes:(32 * 1024) ~num_segments:192 ()

(* The real side is always driven through the sharded facade: with one
   shard it is a bit-identical passthrough to {!Lld} (identifiers,
   results, errors, on-disk image — see test_shard), and with more the
   same differ becomes the cross-shard 2PC checker for free: the flat
   model stays the union oracle, only identifier placement is mirrored
   (Model [?shards]). *)
module Mops = Op.Make (Model)
module Sops = Op.Make (Shard)

(* ------------------------------------------------------------------ *)
(* Command resolution                                                  *)

type client = {
  mutable cl_aru : Types.Aru_id.t option;
  mutable cl_submitted : Types.Aru_id.t option;
      (* last ARU this client queued via Submit_commit and that may
         still sit in the commit queue — an Abort command with no
         active ARU withdraws it (queued-abort path) *)
  mutable cl_lists : int list; (* created list ids, newest first *)
  mutable cl_blocks : int list; (* created block ids, newest first *)
}

(* Resolution consults only the model (the oracle): symbolic references
   become concrete identifiers through the client's own view, so every
   emitted operation targets a live own object — cross-client and
   dead-object access stay confined to the read-only probe commands. *)
let live_lists model c =
  List.filter
    (fun l -> Model.list_exists model ?aru:c.cl_aru (Types.List_id.of_int l))
    (List.rev c.cl_lists)

let live_blocks model c =
  List.filter
    (fun b ->
      Model.block_allocated model ?aru:c.cl_aru (Types.Block_id.of_int b))
    (List.rev c.cl_blocks)

let pick idx = function
  | [] -> None
  | l -> Some (List.nth l (idx mod List.length l))

let payload ~block_bytes tag =
  Bytes.init block_bytes (fun i -> Char.chr ((tag + ((i + 1) * (tag lor 1))) land 0xff))

let resolve model ~block_bytes ~capacity ~group clients ci (cmd : Program.cmd)
    : Op.t option =
  let c = clients.(ci) in
  let aru = c.cl_aru in
  match cmd with
  | Program.Begin -> if aru = None then Some Op.Begin_aru else None
  | Program.Commit ->
    Option.map (fun a -> if group then Op.Submit_commit a else Op.End_aru a) aru
  | Program.Abort -> (
    match aru with
    | Some a -> Some (Op.Abort_aru a)
    | None -> (
      (* no active ARU: withdraw a still-queued commit intent instead,
         exercising the abort-dequeues-from-the-batch path *)
      match c.cl_submitted with
      | Some a when group && Model.commit_pending model a ->
        Some (Op.Abort_aru a)
      | _ -> None))
  | Program.New_list -> Some (Op.New_list aru)
  | Program.New_block { list_ref; pred_ref } -> (
    match pick list_ref (live_lists model c) with
    | None -> None
    | Some l ->
      let list = Types.List_id.of_int l in
      let pred =
        match pred_ref with
        | None -> Lld_core.Summary.Head
        | Some p -> (
          match pick p (Model.list_blocks model ?aru list) with
          | None -> Lld_core.Summary.Head
          | Some b -> Lld_core.Summary.After b)
      in
      Some (Op.New_block { aru; list; pred }))
  | Program.Write { block_ref; tag } ->
    Option.map
      (fun b ->
        Op.Write
          {
            aru;
            block = Types.Block_id.of_int b;
            data = payload ~block_bytes tag;
          })
      (pick block_ref (live_blocks model c))
  | Program.Read { block_ref } ->
    Option.map
      (fun b -> Op.Read { aru; block = Types.Block_id.of_int b })
      (pick block_ref (live_blocks model c))
  | Program.Delete_block { block_ref } ->
    Option.map
      (fun b -> Op.Delete_block { aru; block = Types.Block_id.of_int b })
      (pick block_ref (live_blocks model c))
  | Program.Delete_list { list_ref } ->
    Option.map
      (fun l -> Op.Delete_list { aru; list = Types.List_id.of_int l })
      (pick list_ref (live_lists model c))
  | Program.List_exists { list_ref } ->
    Option.map
      (fun l -> Op.List_exists { aru; list = Types.List_id.of_int l })
      (pick list_ref (List.rev c.cl_lists))
  | Program.Block_allocated { block_ref } ->
    Option.map
      (fun b -> Op.Block_allocated { aru; block = Types.Block_id.of_int b })
      (pick block_ref (List.rev c.cl_blocks))
  | Program.Block_member { block_ref } ->
    Option.map
      (fun b -> Op.Block_member { aru; block = Types.Block_id.of_int b })
      (pick block_ref (live_blocks model c))
  | Program.List_blocks { list_ref } ->
    Option.map
      (fun l -> Op.List_blocks { aru; list = Types.List_id.of_int l })
      (pick list_ref (live_lists model c))
  | Program.Lists -> Some Op.Lists
  | Program.Scavenge -> Some Op.Scavenge
  | Program.Probe_dead { which } ->
    let dead =
      List.filter
        (fun b ->
          not
            (Model.block_allocated model ?aru:c.cl_aru
               (Types.Block_id.of_int b)))
        (List.rev c.cl_blocks)
    in
    let b =
      match pick which dead with Some b -> b | None -> capacity - 1
    in
    let block = Types.Block_id.of_int b in
    Some
      (match which mod 3 with
      | 0 -> Op.Read { aru; block }
      | 1 -> Op.Block_allocated { aru; block }
      | _ -> Op.Block_member { aru; block })
  | Program.Read_other { peer; block_ref } -> (
    let other = clients.((ci + peer) mod Array.length clients) in
    match pick block_ref (List.rev other.cl_blocks) with
    | None -> None
    | Some b -> Some (Op.Read { aru; block = Types.Block_id.of_int b }))

(* ------------------------------------------------------------------ *)
(* Committed-state summaries                                           *)

(* The real instance's committed state, rendered in the same canonical
   form as {!Model.frontier_summary}.  Queried through simple (no-ARU)
   operations, so it is only meaningful when no ARU is active — after
   quiescence or on a freshly recovered instance.  [?shard] projects
   onto one shard's lists (and hence blocks), matching
   [Model.frontier_summary ?shard]. *)
let real_summary ?shard sut =
  let buf = Buffer.create 256 in
  let lists =
    match shard with
    | None -> Shard.lists sut
    | Some s ->
      let shards = Shard.shard_count sut in
      List.filter
        (fun l -> Shard.list_shard ~shards (Types.List_id.to_int l) = s)
        (Shard.lists sut)
  in
  let members =
    List.concat_map
      (fun l ->
        let bs = Shard.list_blocks sut l in
        Buffer.add_string buf
          (Printf.sprintf "L%d[%s];" (Types.List_id.to_int l)
             (String.concat ","
                (List.map
                   (fun b -> string_of_int (Types.Block_id.to_int b))
                   bs)));
        List.map (fun b -> (Types.Block_id.to_int b, l)) bs)
      lists
  in
  List.iter
    (fun (b, l) ->
      Buffer.add_string buf
        (Printf.sprintf "B%d:L%d:%s;" b
           (Types.List_id.to_int l)
           (Digest.to_hex
              (Digest.bytes (Shard.read sut (Types.Block_id.of_int b))))))
    (List.sort compare members)
  |> ignore;
  (Buffer.contents buf, List.length members)

(* ------------------------------------------------------------------ *)
(* Executing one program                                               *)

type exec_stats = { mutable ex_ops : int; mutable ex_skipped : int;
                    mutable ex_crash_points : int }

(* The group-commit window is pinned explicitly (never from the
   environment): small enough that 40-command programs close several
   batches on the window, with the batch-size close reachable through
   quick client bursts. *)
let lld_config cfg =
  {
    Config.default with
    Config.visibility = cfg.visibility;
    group_commit_window = (if cfg.group_commit then 5_000 else 0);
    group_commit_batch = 4;
  }

(* A fresh in-memory disk is an overlay over zero pages: it allocates
   only the pages the program writes. *)
let make_backend cfg size =
  match cfg.backend with
  | Mem -> Backend.overlay ~size (fun _ page -> Backend.Blk.fill page '\000')
  | File -> Backend.temp_file ~size ()

let diverged kind detail trail =
  Some { dv_kind = kind; dv_detail = detail; dv_trail = List.rev trail }

let run_program_stats ?(crash = false) ?obs_for cfg ~seed (program : Program.t)
    stats =
  let geom = differ_geom in
  let clock = Clock.create () in
  let disks =
    Array.init cfg.shards (fun _ ->
        Disk.create
          ~backend:(make_backend cfg (Geometry.total_bytes geom))
          ~clock geom)
  in
  let config = lld_config cfg in
  let obs =
    match obs_for with
    | Some f -> f clock
    | None -> Lld_obs.Obs.null
  in
  let sut = Shard.create ~config ~obs disks in
  Shard.flush sut;
  let capacity = Shard.capacity sut in
  let block_bytes = Shard.block_bytes sut in
  let model =
    Model.create ~visibility:cfg.visibility ?mutation:cfg.mutation ~capacity
      ~max_lists:(Disk_layout.max_lists geom) ~block_bytes ~shards:cfg.shards
      ()
  in
  let clients =
    Array.init cfg.clients (fun _ ->
        { cl_aru = None; cl_submitted = None; cl_lists = []; cl_blocks = [] })
  in
  (* Identifiers recycle, so a freed id can be re-allocated to a
     different client; the new allocation steals ownership, keeping the
     mutating-operations-on-own-objects discipline airtight (two clients
     mutating one object through a recycled id is exactly the kind of
     stale-shadow anomaly the LD interface does not promise anything
     about). *)
  let block_owner = Hashtbl.create 64 in
  let list_owner = Hashtbl.create 16 in
  let claim owners table ci id =
    (match Hashtbl.find_opt owners id with
    | Some prev ->
      let c = clients.(prev) in
      if table then c.cl_lists <- List.filter (fun x -> x <> id) c.cl_lists
      else c.cl_blocks <- List.filter (fun x -> x <> id) c.cl_blocks
    | None -> ());
    Hashtbl.replace owners id ci
  in
  (* One frontier chain per shard.  Each shard persists its own log, so
     a crash keeps an independent durable prefix per shard: the flat
     linear frontier is wrong for S > 1 (shard 0 may hold commits n and
     n+3 while shard 1 lost n+1).  Recovery must land every shard's
     projection somewhere on that shard's own chain; cross-shard
     atomicity itself (an ARU all-in or all-out across its
     participants) is [Shard.recover]'s contract, checked directly by
     the sharded crashcheck oracle and, here, by the per-shard chains
     whenever a later ARU pinned the participant's state.  For S = 1
     the single projection is the flat summary — behavior unchanged. *)
  let frontiers = Array.init cfg.shards (fun _ -> Hashtbl.create 64) in
  let note_frontier () =
    Array.iteri
      (fun s tbl ->
        Hashtbl.replace tbl (Model.frontier_summary ~shard:s model) ())
      frontiers
  in
  note_frontier ();
  let trail = ref [] in
  (* one operation against both sides; [Some d] = stop with divergence *)
  let step ci op =
    let m_res = Mops.apply model op in
    let r_res = Sops.apply sut op in
    stats.ex_ops <- stats.ex_ops + 1;
    let c = clients.(ci) in
    (match (op, m_res) with
    | Op.Begin_aru, Op.R_aru a -> c.cl_aru <- Some a
    | Op.Submit_commit a, _ ->
      c.cl_aru <- None;
      c.cl_submitted <- Some a
    | Op.Abort_aru a, _ ->
      c.cl_aru <- None;
      if c.cl_submitted = Some a then c.cl_submitted <- None
    | Op.End_aru _, _ -> c.cl_aru <- None
    | Op.New_list _, Op.R_list l ->
      let l = Types.List_id.to_int l in
      claim list_owner true ci l;
      c.cl_lists <- l :: c.cl_lists
    | Op.New_block _, Op.R_block b ->
      let b = Types.Block_id.to_int b in
      claim block_owner false ci b;
      c.cl_blocks <- b :: c.cl_blocks
    | _ -> ());
    trail :=
      Format.asprintf "c%d: %a = %a" ci Op.pp op Op.pp_result m_res :: !trail;
    if Op.equal_result m_res r_res then begin
      note_frontier ();
      None
    end
    else
      diverged Step_mismatch
        [
          Format.asprintf "operation: c%d: %a" ci Op.pp op;
          Format.asprintf "model: %a" Op.pp_result m_res;
          Format.asprintf "real:  %a" Op.pp_result r_res;
        ]
        !trail
  in
  (* drain both commit queues in lockstep.  The model flushes stepwise,
     noting a crash frontier after every member: the real batch is
     atomic per sub-batch, and sub-batches are FIFO prefixes, so every
     state a torn batch can recover to is one of these notes. *)
  let flush_step () =
    let m_n = Model.flush_commit_steps model note_frontier in
    let r_n = Shard.flush_commits sut in
    stats.ex_ops <- stats.ex_ops + 1;
    trail := Printf.sprintf "engine: flush_commits = %d" m_n :: !trail;
    if m_n = r_n then begin
      (* the drain empties the whole queue: no client's submitted
         intent is still withdrawable *)
      Array.iter (fun c -> c.cl_submitted <- None) clients;
      note_frontier ();
      None
    end
    else
      diverged Step_mismatch
        [
          "operation: engine: flush_commits";
          Printf.sprintf "model: %d" m_n;
          Printf.sprintf "real:  %d" r_n;
        ]
        !trail
  in
  let step ci op =
    match step ci op with
    | Some d -> Some d
    | None ->
      if cfg.group_commit && Shard.commit_due sut then flush_step () else None
  in
  let rec steps i =
    if i >= Array.length program then None
    else
      let { Program.client; cmd } = program.(i) in
      match
        resolve model ~block_bytes ~capacity ~group:cfg.group_commit clients
          client cmd
      with
      | None ->
        stats.ex_skipped <- stats.ex_skipped + 1;
        steps (i + 1)
      | Some op -> ( match step client op with None -> steps (i + 1) | d -> d)
  in
  let quiesce () =
    (* drain queued commits, abort leftover ARUs, scavenge, flush —
       then the committed states must agree *)
    let drained = if cfg.group_commit then flush_step () else None in
    let rec each ci =
      if ci >= Array.length clients then None
      else
        match clients.(ci).cl_aru with
        | Some a -> (
          match step ci (Op.Abort_aru a) with
          | None -> each (ci + 1)
          | d -> d)
        | None -> each (ci + 1)
    in
    match (match drained with Some d -> Some d | None -> each 0) with
    | Some d -> Some d
    | None -> (
      match step 0 Op.Scavenge with
      | Some d -> Some d
      | None -> ( match step 0 Op.Flush with Some d -> Some d | None -> None))
  in
  let final_check () =
    let m_sum = Model.frontier_summary model in
    let r_sum, members = real_summary sut in
    if m_sum <> r_sum then
      diverged Final_state_mismatch
        [
          "final committed states differ after quiescence";
          "model: " ^ m_sum;
          "real:  " ^ r_sum;
        ]
        !trail
    else if
      Shard.allocated_blocks sut <> members
      || Model.allocated_blocks model <> members
    then
      diverged Final_state_mismatch
        [
          Printf.sprintf
            "allocation leak after quiescence: %d list members, model holds \
             %d allocations, real holds %d"
            members
            (Model.allocated_blocks model)
            (Shard.allocated_blocks sut);
        ]
        !trail
    else None
  in
  (* Recover every sampled crash point of [raw] — all shards' writes
     after the flush above, one interleaved trace — on fresh disks. *)
  let crash_check raw =
    let points = Raw.enumerate ~granularity:cfg.granularity raw in
    let points = Raw.sample ~budget:cfg.crash_points ~seed points in
    let rec each = function
      | [] -> None
      | point :: rest -> (
        stats.ex_crash_points <- stats.ex_crash_points + 1;
        let rclock = Clock.create () in
        let rdisks =
          Array.map
            (fun backend -> Disk.create ~clock:rclock ~backend differ_geom)
            (Raw.stores_at raw point)
        in
        let verdict =
          match Shard.recover ~config rdisks with
          | exception e ->
            diverged Crash_mismatch
              [
                Format.asprintf "crash %a: recovery raised %s" Cc.pp_point
                  point
                  (Printexc.to_string e);
              ]
              !trail
          | rsut, _reports -> (
            match Shard.recovery_invariant_errors rsut with
            | _ :: _ as errs ->
              diverged Crash_mismatch
                (Format.asprintf "crash %a: recovery invariants violated"
                   Cc.pp_point point
                :: errs)
                !trail
            | [] ->
              let _, members = real_summary rsut in
              if Shard.allocated_blocks rsut <> members then
                diverged Crash_mismatch
                  [
                    Format.asprintf
                      "crash %a: recovered state holds %d allocations for \
                       %d list members"
                      Cc.pp_point point
                      (Shard.allocated_blocks rsut)
                      members;
                  ]
                  !trail
              else begin
                let rec on_chain s =
                  if s >= cfg.shards then None
                  else
                    let p_sum, _ = real_summary ~shard:s rsut in
                    if Hashtbl.mem frontiers.(s) p_sum then on_chain (s + 1)
                    else
                      diverged Crash_mismatch
                        [
                          Format.asprintf
                            "crash %a: shard %d's recovered state is not \
                             on its crash-frontier chain (%d states)"
                            Cc.pp_point point s
                            (Hashtbl.length frontiers.(s));
                          "recovered: " ^ p_sum;
                        ]
                        !trail
                in
                on_chain 0
              end)
        in
        Array.iter Disk.close rdisks;
        match verdict with None -> each rest | d -> d)
    in
    each points
  in
  let execute () =
    match steps 0 with
    | Some d -> Some d
    | None -> (
      match quiesce () with Some d -> Some d | None -> final_check ())
  in
  let result =
    if not crash then execute ()
    else
      match Raw.record disks execute with
      | _, Some d -> Some d
      | raw, None -> crash_check raw
  in
  Array.iter Disk.close disks;
  result

let run_program ?crash ?obs_for cfg ~seed program =
  let stats = { ex_ops = 0; ex_skipped = 0; ex_crash_points = 0 } in
  run_program_stats ?crash ?obs_for cfg ~seed program stats

(* Forensics: re-run a (typically shrunk) diverging program with a live
   observability handle attached to the real instance and dump the
   flight ring, trace ring and metrics registry as a bundle.  The
   re-run observes only (probes never charge the virtual clock), so the
   divergence reproduces bit-for-bit. *)
let dump_forensics ?(crash = false) ~dir ~label cfg ~seed program =
  let holder = ref None in
  let obs_for clock =
    let obs = Lld_obs.Obs.create ~clock () in
    holder := Some obs;
    obs
  in
  let div = run_program ~crash ~obs_for cfg ~seed program in
  match !holder with
  | None -> (div, [])
  | Some obs -> (div, Lld_obs.Forensics.dump ~dir ~label obs)

(* ------------------------------------------------------------------ *)
(* Shrinking: bounded delta debugging over the step array              *)

let drop_chunk (p : Program.t) ~at ~len : Program.t =
  Array.append (Array.sub p 0 at)
    (Array.sub p (at + len) (Array.length p - at - len))

let shrink cfg ~seed ~crash (program : Program.t) divergence =
  let execs = ref 0 in
  let limit = 500 in
  let test p =
    if !execs >= limit then None
    else begin
      incr execs;
      run_program ~crash cfg ~seed p
    end
  in
  let best = ref program in
  let best_div = ref divergence in
  let changed = ref true in
  while !changed && !execs < limit do
    changed := false;
    let len = ref (max 1 (Array.length !best / 2)) in
    while !len >= 1 && !execs < limit do
      let at = ref 0 in
      while !at + !len <= Array.length !best && !execs < limit do
        let candidate = drop_chunk !best ~at:!at ~len:!len in
        (match test candidate with
        | Some d ->
          best := candidate;
          best_div := d;
          changed := true
        | None -> at := !at + !len);
        ()
      done;
      len := !len / 2
    done
  done;
  (!best, !best_div, !execs)

(* ------------------------------------------------------------------ *)
(* The fuzz loop                                                       *)

let fuzz ?progress ~seed ~budget cfg =
  let master = Rng.create ~seed in
  let stats = { ex_ops = 0; ex_skipped = 0; ex_crash_points = 0 } in
  let cases = ref 0 in
  let crash_cases = ref 0 in
  let failure = ref None in
  (try
     for case = 1 to budget do
       let case_seed = Int64.to_int (Rng.next master) land 0x3FFFFFFF in
       let crash = cfg.crash_every > 0 && case mod cfg.crash_every = 0 in
       if crash then incr crash_cases;
       incr cases;
       (match progress with Some f -> f ~case | None -> ());
       let program =
         Program.generate ~seed:case_seed ~clients:cfg.clients ~ops:cfg.ops
       in
       match run_program_stats ~crash cfg ~seed:case_seed program stats with
       | None -> ()
       | Some d ->
         let shrunk, shrunk_div, execs =
           shrink cfg ~seed:case_seed ~crash program d
         in
         failure :=
           Some
             {
               fl_case_index = case;
               fl_case_seed = case_seed;
               fl_program = program;
               fl_divergence = d;
               fl_shrunk = shrunk;
               fl_shrunk_divergence = shrunk_div;
               fl_shrink_execs = execs;
             };
         raise Exit
     done
   with Exit -> ());
  {
    rp_seed = seed;
    rp_config = cfg;
    rp_cases = !cases;
    rp_ops = stats.ex_ops;
    rp_skipped = stats.ex_skipped;
    rp_crash_cases = !crash_cases;
    rp_crash_points = stats.ex_crash_points;
    rp_failure = !failure;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let kind_label = function
  | Step_mismatch -> "operation result mismatch"
  | Final_state_mismatch -> "final committed-state mismatch"
  | Crash_mismatch -> "recovered state off the crash frontier"

let visibility_option = function
  | Config.Any_shadow -> 1
  | Config.Committed_only -> 2
  | Config.Own_shadow -> 3

let pp_divergence ppf d =
  Format.fprintf ppf "@[<v>DIVERGENCE: %s@," (kind_label d.dv_kind);
  List.iter (fun l -> Format.fprintf ppf "  %s@," l) d.dv_detail;
  Format.fprintf ppf "executed operations (model result shown):@,";
  List.iter (fun l -> Format.fprintf ppf "  %s@," l) d.dv_trail;
  Format.fprintf ppf "@]"

let pp_report ppf r =
  let backend = match r.rp_config.backend with Mem -> "mem" | File -> "file" in
  Format.fprintf ppf
    "@[<v>model differ: option %d, %s backend, %d clients x %d commands%s@,\
     seed %d: %d case(s), %d operations (%d commands skipped), %d crash \
     point(s) over %d crash case(s)@,"
    (visibility_option r.rp_config.visibility)
    backend r.rp_config.clients r.rp_config.ops
    ((if r.rp_config.shards > 1 then
        Printf.sprintf ", %d shards" r.rp_config.shards
      else "")
    ^ (if r.rp_config.group_commit then ", group commit" else "")
    ^
    match r.rp_config.mutation with
    | None -> ""
    | Some m -> ", injected bug: " ^ Model.mutation_label m)
    r.rp_seed r.rp_cases r.rp_ops r.rp_skipped r.rp_crash_points
    r.rp_crash_cases;
  match r.rp_failure with
  | None -> Format.fprintf ppf "no divergence: implementation matches the executable specification@]"
  | Some f ->
    Format.fprintf ppf
      "case %d (seed %d) diverged; shrunk %d -> %d step(s) in %d execution(s)@,"
      f.fl_case_index f.fl_case_seed
      (Array.length f.fl_program)
      (Array.length f.fl_shrunk) f.fl_shrink_execs;
    Format.fprintf ppf "minimal program:@,@[<v>%a@]@," Program.pp f.fl_shrunk;
    Format.fprintf ppf "%a@]" pp_divergence f.fl_shrunk_divergence
