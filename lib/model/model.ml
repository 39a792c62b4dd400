module Config = Lld_core.Config
module Types = Lld_core.Types
module Errors = Lld_core.Errors
module Summary = Lld_core.Summary

type mutation = Read_committed | Commit_drops_data

let mutation_label = function
  | Read_committed -> "read-committed"
  | Commit_drops_data -> "commit-drops-data"

let mutations = [ Read_committed; Commit_drops_data ]

let mutation_of_string s =
  List.find_opt (fun m -> mutation_label m = s) mutations

(* Committed state: one record per identifier ever touched.  A block id
   absent from the table is free with empty content. *)
type mblock = {
  mutable c_alloc : bool;
  mutable c_member : int option;
  mutable c_data : bytes option; (* None = zeroes *)
  mutable c_stamp : int;
  mutable c_owner : int option; (* commit-time allocation mark *)
}

type mlist = {
  mutable c_exists : bool;
  mutable c_blocks : int list; (* members, list order *)
  mutable c_lowner : int option;
}

(* Shadow overlays: copy-on-write per-ARU versions over the committed
   map.  [s_data = Some _] iff the ARU wrote the block (a copied-only
   shadow reads through to the committed content, which cannot change
   underneath it while the overlay exists: only the owner mutates). *)
type sblock = {
  mutable s_alloc : bool;
  mutable s_member : int option;
  mutable s_data : bytes option;
  mutable s_stamp : int;
  s_owner : int option;
      (* allocation owner as of the copy — visibility checks consult the
         owner recorded on the version they resolve to, so a shadow keeps
         the mark it was copied with even if the committed mark moves
         (scavenge + re-allocation) *)
}

type slist = {
  mutable s_exists : bool;
  mutable s_blocks : int list;
  s_lowner : int option;
}

type logop =
  | L_insert of { list : int; block : int; pred : Summary.pred }
  | L_delete_block of int
  | L_delete_list of int

type aru = {
  a_id : int;
  a_blocks : (int, sblock) Hashtbl.t;
  a_lists : (int, slist) Hashtbl.t;
  mutable a_log : logop list; (* reversed *)
  mutable a_owned : int list; (* list ids allocated inside *)
}

(* Per-shard identifier allocators (one entry when unsharded).  The
   committed map stays flat and global — sharding only changes WHICH
   identifiers get handed out, mirroring {!Lld_core.Shard}'s placement:
   blocks stripe round-robin by id within their list's shard, list ids
   stripe shifted for their 1-based numbering, and each shard keeps its
   own local watermark and LIFO free pool (local ids, globalised on
   allocation). *)
type shard_alloc = {
  mutable sa_lfree : int list; (* local list ids *)
  mutable sa_lwatermark : int;
  mutable sa_lexisting : int;
}

type t = {
  t_visibility : Config.visibility;
  mutation : mutation option;
  blocks : (int, mblock) Hashtbl.t;
  lists : (int, mlist) Hashtbl.t;
  arus : (int, aru) Hashtbl.t;
  mutable next_aru : int;
  mutable stamp : int;
  (* identifier allocators, mirroring Block_map / List_table *)
  held : (int, unit) Hashtbl.t; (* global block ids currently allocated *)
  lalloc : shard_alloc array; (* per-shard list allocators *)
  t_shards : int;
  t_capacity : int; (* total, summed over shards *)
  t_max_lists : int; (* per shard *)
  t_block_bytes : int;
  t_clock : Lld_sim.Clock.t;
  t_counters : Lld_core.Counters.t;
  mutable t_obs : Lld_obs.Obs.t;
  t_commit_q : int Queue.t; (* group-commit intents, FIFO *)
}

let create ?(visibility = Config.Own_shadow) ?mutation ?(capacity = 4096)
    ?(max_lists = 512) ?(block_bytes = 4096) ?(shards = 1) () =
  if shards < 1 then invalid_arg "Model.create: shards must be >= 1";
  if capacity mod shards <> 0 then
    invalid_arg "Model.create: capacity must divide evenly across shards";
  {
    t_visibility = visibility;
    mutation;
    blocks = Hashtbl.create 64;
    lists = Hashtbl.create 16;
    arus = Hashtbl.create 8;
    next_aru = 1;
    stamp = 0;
    held = Hashtbl.create 64;
    lalloc =
      Array.init shards (fun _ ->
          { sa_lfree = []; sa_lwatermark = 1; sa_lexisting = 0 });
    t_shards = shards;
    t_capacity = capacity;
    t_max_lists = max_lists;
    t_block_bytes = block_bytes;
    t_clock = Lld_sim.Clock.create ();
    t_counters = Lld_core.Counters.create ();
    t_obs = Lld_obs.Obs.null;
    t_commit_q = Queue.create ();
  }

let visibility t = t.t_visibility
let next_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

(* ------------------------------------------------------------------ *)
(* Identifier allocation (mirrors Block_map / List_table per shard,
   composed through Shard's placement maps)                            *)

let list_shard t g = (g - 1) mod t.t_shards
let list_global t ~shard local = ((local - 1) * t.t_shards) + shard + 1

(* Lowest free LOCAL id within the shard — i.e. the lowest free global
   id in the shard's residue class, exactly what the shard's own
   Block_map would hand out. *)
let alloc_block_id t ~shard =
  let per_shard = t.t_capacity / t.t_shards in
  let rec scan local =
    if local >= per_shard then None
    else
      let g = (local * t.t_shards) + shard in
      if Hashtbl.mem t.held g then scan (local + 1) else Some g
  in
  match scan 0 with
  | None -> None
  | Some g ->
    Hashtbl.replace t.held g ();
    Some g

let release_block_id t i = Hashtbl.remove t.held i

(* New lists go to the least-loaded shard (fewest existing lists, ties
   to the lowest index) — Shard.pick_list_shard's rule, state-derivable
   so it survives remounts identically. *)
let pick_list_shard t =
  let best = ref 0 in
  for s = 1 to t.t_shards - 1 do
    if t.lalloc.(s).sa_lexisting < t.lalloc.(!best).sa_lexisting then best := s
  done;
  !best

let alloc_list_id t =
  let shard = pick_list_shard t in
  let a = t.lalloc.(shard) in
  if a.sa_lexisting >= t.t_max_lists then None
  else begin
    a.sa_lexisting <- a.sa_lexisting + 1;
    match a.sa_lfree with
    | local :: rest ->
      a.sa_lfree <- rest;
      Some (list_global t ~shard local)
    | [] ->
      let local = a.sa_lwatermark in
      a.sa_lwatermark <- local + 1;
      Some (list_global t ~shard local)
  end

let release_list_id t g =
  let shard = list_shard t g in
  let local = ((g - 1) / t.t_shards) + 1 in
  let a = t.lalloc.(shard) in
  a.sa_lfree <- local :: a.sa_lfree;
  a.sa_lexisting <- a.sa_lexisting - 1

(* ------------------------------------------------------------------ *)
(* Committed records                                                   *)

let free_block () =
  { c_alloc = false; c_member = None; c_data = None; c_stamp = 0; c_owner = None }

let free_list () = { c_exists = false; c_blocks = []; c_lowner = None }

let cblock t b =
  match Hashtbl.find_opt t.blocks b with
  | Some r -> r
  | None ->
    let r = free_block () in
    Hashtbl.replace t.blocks b r;
    r

let clist t l =
  match Hashtbl.find_opt t.lists l with
  | Some r -> r
  | None ->
    let r = free_list () in
    Hashtbl.replace t.lists l r;
    r

(* ------------------------------------------------------------------ *)
(* Visibility (paper §3.3)                                             *)

type who = W_simple | W_in of aru

let resolve_who t = function
  | None -> W_simple
  | Some aid -> (
    let i = Types.Aru_id.to_int aid in
    match Hashtbl.find_opt t.arus i with
    | Some a -> W_in a
    | None -> raise (Errors.Unknown_aru aid))

let owner_active t o = Hashtbl.mem t.arus o

let owner_visible t who owner =
  match owner with
  | None -> true
  | Some o -> (
    if not (owner_active t o) then true
    else match who with W_in a -> a.a_id = o | W_simple -> false)

(* The block as one logical view: allocation, membership, content. *)
type bview = {
  v_alloc : bool;
  v_member : int option;
  v_data : bytes option;
  v_owner : int option;
}

let committed_bview r =
  {
    v_alloc = r.c_alloc;
    v_member = r.c_member;
    v_data = r.c_data;
    v_owner = r.c_owner;
  }

let shadow_bview t b (s : sblock) =
  let data =
    match s.s_data with Some d -> Some d | None -> (cblock t b).c_data
  in
  { v_alloc = s.s_alloc; v_member = s.s_member; v_data = data; v_owner = s.s_owner }

let shadow_peek t (a : aru) b =
  match Hashtbl.find_opt a.a_blocks b with
  | Some s -> shadow_bview t b s
  | None -> committed_bview (cblock t b)

(* Newest shadow version across all ARUs (option 1); with disjoint
   clients at most one exists, ties break deterministically anyway. *)
let newest_shadow t b =
  Hashtbl.fold
    (fun _ (a : aru) best ->
      match Hashtbl.find_opt a.a_blocks b with
      | None -> best
      | Some s -> (
        match best with
        | Some (bs, ba) when (bs.s_stamp, ba) >= (s.s_stamp, a.a_id) -> best
        | _ -> Some (s, a.a_id)))
    t.arus None

let visible_bview t who b =
  match (t.t_visibility, who) with
  | Config.Own_shadow, W_in a -> (
    match t.mutation with
    | Some Read_committed -> committed_bview (cblock t b)
    | _ -> shadow_peek t a b)
  | Config.Own_shadow, W_simple | Config.Committed_only, _ ->
    committed_bview (cblock t b)
  | Config.Any_shadow, _ -> (
    match newest_shadow t b with
    | Some (s, _) -> shadow_bview t b s
    | None -> committed_bview (cblock t b))

(* Lists: options 1 and 3 behave identically (own shadow inside an ARU,
   committed otherwise); option 2 is always committed. *)
let visible_list_view t who l =
  match (t.t_visibility, who) with
  | (Config.Own_shadow | Config.Any_shadow), W_in a -> (
    match Hashtbl.find_opt a.a_lists l with
    | Some s -> (s.s_exists, s.s_blocks, s.s_lowner)
    | None ->
      let r = clist t l in
      (r.c_exists, r.c_blocks, r.c_lowner))
  | (Config.Own_shadow | Config.Any_shadow), W_simple
  | Config.Committed_only, _ ->
    let r = clist t l in
    (r.c_exists, r.c_blocks, r.c_lowner)

let require_visible_block t who b (v : bview) =
  if not (v.v_alloc && owner_visible t who v.v_owner) then
    raise (Errors.Unallocated_block (Types.Block_id.of_int b))

let require_visible_list t who l ~exists ~owner =
  if not (exists && owner_visible t who owner) then
    raise (Errors.Unallocated_list (Types.List_id.of_int l))

(* ------------------------------------------------------------------ *)
(* Shadow copy-on-write                                                *)

let shadow_block (a : aru) t b =
  match Hashtbl.find_opt a.a_blocks b with
  | Some s -> s
  | None ->
    let c = cblock t b in
    let s =
      {
        s_alloc = c.c_alloc;
        s_member = c.c_member;
        s_data = None;
        s_stamp = c.c_stamp;
        s_owner = c.c_owner;
      }
    in
    Hashtbl.replace a.a_blocks b s;
    s

let shadow_list (a : aru) t l =
  match Hashtbl.find_opt a.a_lists l with
  | Some s -> s
  | None ->
    let c = clist t l in
    let s =
      { s_exists = c.c_exists; s_blocks = c.c_blocks; s_lowner = c.c_lowner }
    in
    Hashtbl.replace a.a_lists l s;
    s

(* ------------------------------------------------------------------ *)
(* Ordered-list splicing (mirrors Splice)                              *)

let insert_into blocks ~block ~pred =
  match pred with
  | Summary.Head -> block :: blocks
  | Summary.After p ->
    let pi = Types.Block_id.to_int p in
    let rec go = function
      | [] -> [] (* unreachable: caller validated membership *)
      | x :: rest when x = pi -> x :: block :: rest
      | x :: rest -> x :: go rest
    in
    go blocks

let remove_from blocks block = List.filter (fun x -> x <> block) blocks

(* ------------------------------------------------------------------ *)
(* The LD operations                                                   *)

let begin_aru t =
  t.t_counters.Lld_core.Counters.arus_begun <-
    t.t_counters.Lld_core.Counters.arus_begun + 1;
  let id = t.next_aru in
  t.next_aru <- id + 1;
  let a =
    {
      a_id = id;
      a_blocks = Hashtbl.create 8;
      a_lists = Hashtbl.create 4;
      a_log = [];
      a_owned = [];
    }
  in
  Hashtbl.replace t.arus id a;
  Types.Aru_id.of_int id

let new_list t ?aru () =
  t.t_counters.Lld_core.Counters.new_lists <-
    t.t_counters.Lld_core.Counters.new_lists + 1;
  let who = resolve_who t aru in
  let lid =
    match alloc_list_id t with Some l -> l | None -> raise Errors.Disk_full
  in
  let stamp = next_stamp t in
  ignore stamp;
  let r = clist t lid in
  r.c_exists <- true;
  r.c_blocks <- [];
  (match who with
  | W_in a ->
    r.c_lowner <- Some a.a_id;
    a.a_owned <- lid :: a.a_owned
  | W_simple -> r.c_lowner <- None);
  Types.List_id.of_int lid

let new_block t ?aru ~list ~pred () =
  t.t_counters.Lld_core.Counters.new_blocks <-
    t.t_counters.Lld_core.Counters.new_blocks + 1;
  let who = resolve_who t aru in
  let li = Types.List_id.to_int list in
  (* validate against the view the insertion will run in *)
  let view_list, view_block =
    match who with
    | W_in a ->
      ( (fun l ->
          match Hashtbl.find_opt a.a_lists l with
          | Some s -> (s.s_exists, s.s_blocks, s.s_lowner)
          | None ->
            let r = clist t l in
            (r.c_exists, r.c_blocks, r.c_lowner)),
        fun b -> shadow_peek t a b )
    | W_simple ->
      ( (fun l ->
          let r = clist t l in
          (r.c_exists, r.c_blocks, r.c_lowner)),
        fun b -> committed_bview (cblock t b) )
  in
  let exists, _, owner = view_list li in
  require_visible_list t who li ~exists ~owner;
  (match pred with
  | Summary.Head -> ()
  | Summary.After p ->
    let pv = view_block (Types.Block_id.to_int p) in
    require_visible_block t who (Types.Block_id.to_int p) pv;
    if pv.v_member <> Some li then raise (Errors.Block_not_on_list p));
  (* the block lives on its list's shard: allocation routes by list *)
  let bid =
    match alloc_block_id t ~shard:(list_shard t li) with
    | Some b -> b
    | None -> raise Errors.Disk_full
  in
  let stamp = next_stamp t in
  (* allocation always happens in the committed state (paper §3.3) *)
  let c = cblock t bid in
  c.c_alloc <- true;
  c.c_member <- None;
  c.c_data <- None;
  c.c_stamp <- stamp;
  c.c_owner <- (match who with W_in a -> Some a.a_id | W_simple -> None);
  (match who with
  | W_in a ->
    let sl = shadow_list a t li in
    sl.s_blocks <- insert_into sl.s_blocks ~block:bid ~pred;
    let sb = shadow_block a t bid in
    sb.s_member <- Some li;
    a.a_log <- L_insert { list = li; block = bid; pred } :: a.a_log
  | W_simple ->
    let cl = clist t li in
    cl.c_blocks <- insert_into cl.c_blocks ~block:bid ~pred;
    c.c_member <- Some li);
  Types.Block_id.of_int bid

let write t ?aru block data =
  if Bytes.length data <> t.t_block_bytes then
    invalid_arg "Lld.write: data must be exactly one block";
  t.t_counters.Lld_core.Counters.writes <-
    t.t_counters.Lld_core.Counters.writes + 1;
  let who = resolve_who t aru in
  let b = Types.Block_id.to_int block in
  let stamp = next_stamp t in
  match who with
  | W_in a ->
    require_visible_block t who b (shadow_peek t a b);
    let s = shadow_block a t b in
    s.s_data <- Some (Bytes.copy data);
    s.s_stamp <- stamp
  | W_simple ->
    let c = cblock t b in
    require_visible_block t who b (committed_bview c);
    c.c_data <- Some (Bytes.copy data);
    c.c_stamp <- stamp

let read t ?aru block =
  t.t_counters.Lld_core.Counters.reads <-
    t.t_counters.Lld_core.Counters.reads + 1;
  let who = resolve_who t aru in
  let b = Types.Block_id.to_int block in
  let v = visible_bview t who b in
  require_visible_block t who b v;
  match v.v_data with
  | Some d -> Bytes.copy d
  | None -> Bytes.make t.t_block_bytes '\000'

let delete_block t ?aru block =
  t.t_counters.Lld_core.Counters.delete_blocks <-
    t.t_counters.Lld_core.Counters.delete_blocks + 1;
  let who = resolve_who t aru in
  let b = Types.Block_id.to_int block in
  match who with
  | W_in a ->
    let peek = shadow_peek t a b in
    require_visible_block t who b peek;
    (match peek.v_member with
    | Some l ->
      (* shadow unlink skips when the list was (lazily) shadow-deleted *)
      let exists, _ =
        match Hashtbl.find_opt a.a_lists l with
        | Some s -> (s.s_exists, s.s_blocks)
        | None ->
          let r = clist t l in
          (r.c_exists, r.c_blocks)
      in
      if not exists then raise (Errors.Block_not_on_list block);
      let sl = shadow_list a t l in
      sl.s_blocks <- remove_from sl.s_blocks b
    | None -> ());
    let s = shadow_block a t b in
    s.s_alloc <- false;
    s.s_member <- None;
    s.s_data <- None;
    s.s_stamp <- next_stamp t;
    a.a_log <- L_delete_block b :: a.a_log
  | W_simple ->
    let c = cblock t b in
    require_visible_block t who b (committed_bview c);
    (match c.c_member with
    | Some l ->
      let cl = clist t l in
      cl.c_blocks <- remove_from cl.c_blocks b
    | None -> ());
    c.c_alloc <- false;
    c.c_member <- None;
    c.c_data <- None;
    c.c_stamp <- next_stamp t;
    c.c_owner <- None;
    release_block_id t b

(* Deallocate every member of a committed list, then the list itself.
   Shared by simple deletion, commit replay and scavenging. *)
let delete_list_committed t l =
  let cl = clist t l in
  List.iter
    (fun b ->
      let c = cblock t b in
      c.c_alloc <- false;
      c.c_member <- None;
      c.c_data <- None;
      c.c_owner <- None;
      release_block_id t b)
    cl.c_blocks;
  cl.c_exists <- false;
  cl.c_blocks <- [];
  cl.c_lowner <- None;
  release_list_id t l

let delete_list t ?aru list =
  t.t_counters.Lld_core.Counters.delete_lists <-
    t.t_counters.Lld_core.Counters.delete_lists + 1;
  let who = resolve_who t aru in
  let l = Types.List_id.to_int list in
  match who with
  | W_in a ->
    let exists, owner =
      match Hashtbl.find_opt a.a_lists l with
      | Some s -> (s.s_exists, s.s_lowner)
      | None ->
        let r = clist t l in
        (r.c_exists, r.c_lowner)
    in
    require_visible_list t who l ~exists ~owner;
    (* lazily mark deleted in the shadow; members are deallocated when
       the log replays at commit (paper §5.3) *)
    let sl = shadow_list a t l in
    sl.s_exists <- false;
    sl.s_blocks <- [];
    a.a_log <- L_delete_list l :: a.a_log
  | W_simple ->
    let cl = clist t l in
    require_visible_list t who l ~exists:cl.c_exists ~owner:cl.c_lowner;
    delete_list_committed t l

(* ------------------------------------------------------------------ *)
(* Commit and abort                                                    *)

let replay_log_op t op =
  match op with
  | L_insert { list; block; pred } ->
    let cl = clist t list in
    let cb = cblock t block in
    let pred_ok =
      match pred with
      | Summary.Head -> true
      | Summary.After p -> (cblock t (Types.Block_id.to_int p)).c_member = Some list
    in
    if cl.c_exists && cb.c_alloc && cb.c_member = None && pred_ok then begin
      cl.c_blocks <- insert_into cl.c_blocks ~block ~pred;
      cb.c_member <- Some list
    end
  | L_delete_block b ->
    let c = cblock t b in
    if c.c_alloc then begin
      (match c.c_member with
      | Some l ->
        let cl = clist t l in
        if cl.c_exists then cl.c_blocks <- remove_from cl.c_blocks b
      | None -> ());
      c.c_alloc <- false;
      c.c_member <- None;
      c.c_data <- None;
      c.c_owner <- None;
      c.c_stamp <- next_stamp t;
      release_block_id t b
    end
  | L_delete_list l ->
    let cl = clist t l in
    if cl.c_exists then delete_list_committed t l

let commit_pending_int t i =
  Queue.fold (fun found q -> found || q = i) false t.t_commit_q

let commit_pending t aid = commit_pending_int t (Lld_core.Types.Aru_id.to_int aid)

(* One ARU's commit, given its record: replay the log, merge shadow
   data, clear owner marks.  Shared by [end_aru] and the group-commit
   flush — the batch is just this, per member, in FIFO order. *)
let commit_now t i (a : aru) =
  (* 1. replay the list-operation log in the committed state *)
  List.iter (replay_log_op t) (List.rev a.a_log);
  (* 2. merge shadow data versions into the committed state *)
  (match t.mutation with
  | Some Commit_drops_data -> ()
  | _ ->
    Hashtbl.iter
      (fun b (s : sblock) ->
        match s.s_data with
        | Some d when s.s_alloc ->
          let c = cblock t b in
          if c.c_alloc && s.s_stamp >= c.c_stamp then begin
            c.c_data <- Some d;
            c.c_stamp <- s.s_stamp
          end
        | Some _ | None -> ())
      a.a_blocks);
  (* 3. the commit clears this ARU's list-allocation owner marks *)
  List.iter
    (fun l ->
      let cl = clist t l in
      match cl.c_lowner with
      | Some o when o = i -> cl.c_lowner <- None
      | Some _ | None -> ())
    a.a_owned;
  Hashtbl.remove t.arus i;
  t.t_counters.Lld_core.Counters.arus_committed <-
    t.t_counters.Lld_core.Counters.arus_committed + 1

let end_aru t aid =
  let i = Types.Aru_id.to_int aid in
  if commit_pending_int t i then raise (Errors.Commit_pending aid);
  let a =
    match Hashtbl.find_opt t.arus i with
    | Some a -> a
    | None -> raise (Errors.Unknown_aru aid)
  in
  commit_now t i a

let abort_aru t aid =
  let i = Types.Aru_id.to_int aid in
  if not (Hashtbl.mem t.arus i) then raise (Errors.Unknown_aru aid);
  if commit_pending_int t i then begin
    (* a queued commit intent is withdrawn, not rejected *)
    let q = Queue.create () in
    Queue.iter (fun k -> if k <> i then Queue.push k q) t.t_commit_q;
    Queue.clear t.t_commit_q;
    Queue.transfer q t.t_commit_q;
    t.t_counters.Lld_core.Counters.commit_queue_aborts <-
      t.t_counters.Lld_core.Counters.commit_queue_aborts + 1
  end;
  Hashtbl.remove t.arus i;
  t.t_counters.Lld_core.Counters.arus_aborted <-
    t.t_counters.Lld_core.Counters.arus_aborted + 1

(* ------------------------------------------------------------------ *)
(* Group commit: the specification.  A queued ARU is frozen (end and
   resubmit refuse it; abort withdraws the intent) and the flush
   commits the queue in FIFO order; each member's commit has exactly
   [end_aru]'s semantics, and the batch is atomic only per member (the
   real engine's batched commit record is all-or-nothing as a unit on
   disk, which recovery presents as per-ARU all-or-nothing — the unit
   the spec cares about). *)

let submit_commit t aid =
  let i = Types.Aru_id.to_int aid in
  if commit_pending_int t i then raise (Errors.Commit_pending aid);
  if not (Hashtbl.mem t.arus i) then raise (Errors.Unknown_aru aid);
  Queue.push i t.t_commit_q;
  t.t_counters.Lld_core.Counters.commits_submitted <-
    t.t_counters.Lld_core.Counters.commits_submitted + 1

(* Spec-only stepped flush: commits the queue one ARU at a time,
   calling [after_each] between members, so a differ can place crash
   frontiers at every per-ARU boundary inside a batch. *)
let flush_commit_steps t after_each =
  let n = ref 0 in
  while not (Queue.is_empty t.t_commit_q) do
    let i = Queue.pop t.t_commit_q in
    (match Hashtbl.find_opt t.arus i with
    | Some a -> commit_now t i a
    | None -> ());
    incr n;
    after_each ()
  done;
  !n

let flush_commits t = flush_commit_steps t (fun () -> ())

let with_aru t f =
  Lld_core.Ld_intf.with_aru ~begin_aru ~end_aru ~undo:abort_aru t f

let flush _t = ()

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let list_exists t ?aru list =
  let who = resolve_who t aru in
  let l = Types.List_id.to_int list in
  let exists, _, owner = visible_list_view t who l in
  exists && owner_visible t who owner

let block_allocated t ?aru block =
  let who = resolve_who t aru in
  let b = Types.Block_id.to_int block in
  if b < 0 || b >= t.t_capacity then false
  else
    let v = visible_bview t who b in
    v.v_alloc && owner_visible t who v.v_owner

let block_member t ?aru block =
  let who = resolve_who t aru in
  let b = Types.Block_id.to_int block in
  let v = visible_bview t who b in
  if v.v_alloc && owner_visible t who v.v_owner then
    Option.map Types.List_id.of_int v.v_member
  else None

let list_blocks t ?aru list =
  let who = resolve_who t aru in
  let l = Types.List_id.to_int list in
  let exists, blocks, owner = visible_list_view t who l in
  require_visible_list t who l ~exists ~owner;
  List.map Types.Block_id.of_int blocks

let lists t =
  Hashtbl.fold (fun l r acc -> if r.c_exists then l :: acc else acc) t.lists []
  |> List.sort Int.compare
  |> List.map Types.List_id.of_int

let capacity t = t.t_capacity
let allocated_blocks t = Hashtbl.length t.held
let block_bytes t = t.t_block_bytes
let aru_active t aid = Hashtbl.mem t.arus (Types.Aru_id.to_int aid)

let active_arus t =
  Hashtbl.fold (fun i _ acc -> i :: acc) t.arus []
  |> List.sort Int.compare
  |> List.map Types.Aru_id.of_int

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)

let orphan_ids t =
  Hashtbl.fold
    (fun b (c : mblock) acc ->
      if
        c.c_alloc && c.c_member = None
        && (match c.c_owner with None -> true | Some o -> not (owner_active t o))
      then b :: acc
      else acc)
    t.blocks []
  |> List.sort Int.compare

let orphan_blocks t = List.map Types.Block_id.of_int (orphan_ids t)

let scavenge t =
  let freed = ref 0 in
  (* still-empty lists allocated by an ARU that is no longer active;
     processed in descending id order like the runtime, so the list-id
     free pool ends up in the identical state *)
  let dead =
    Hashtbl.fold
      (fun l (r : mlist) acc ->
        match r.c_lowner with
        | Some o when r.c_exists && r.c_blocks = [] && not (owner_active t o) ->
          l :: acc
        | Some _ | None -> acc)
      t.lists []
    |> List.sort (fun a b -> Int.compare b a)
  in
  List.iter
    (fun l ->
      delete_list_committed t l;
      incr freed)
    dead;
  List.iter
    (fun b ->
      let c = cblock t b in
      c.c_alloc <- false;
      c.c_member <- None;
      c.c_data <- None;
      c.c_owner <- None;
      c.c_stamp <- next_stamp t;
      release_block_id t b;
      incr freed)
    (orphan_ids t);
  !freed

(* ------------------------------------------------------------------ *)
(* Measurement / observability stubs (the model is free)               *)

let clock t = t.t_clock
let cost_model _t = Config.default.Config.cost
let counters t = t.t_counters
let set_obs t obs = t.t_obs <- obs
let obs t = t.t_obs

(* ------------------------------------------------------------------ *)
(* Crash frontier                                                      *)

let zero_digest = ref None

let content_digest t = function
  | Some d -> Digest.to_hex (Digest.bytes d)
  | None -> (
    match !zero_digest with
    | Some z -> z
    | None ->
      let z = Digest.to_hex (Digest.bytes (Bytes.make t.t_block_bytes '\000')) in
      zero_digest := Some z;
      z)

let frontier_summary ?shard t =
  (* [?shard] projects the rendering onto one shard of the sharded
     facade's placement: only lists living there (and hence only their
     member blocks — a block routes to its list's shard).  With S
     independent logs a crash preserves an arbitrary per-shard prefix,
     so the differ checks each shard's projection against its own
     frontier chain rather than the flat linear one. *)
  let keep_list l =
    match shard with None -> true | Some s -> list_shard t l = s
  in
  let keep_block b =
    match shard with None -> true | Some s -> b mod t.t_shards = s
  in
  let buf = Buffer.create 256 in
  let lids =
    Hashtbl.fold
      (fun l (r : mlist) acc ->
        (* an owner-marked list is dropped only while still empty: that
           is what recovery's sweep frees (a committed member can only
           appear after the owning ARU died, and then the list
           survives) *)
        if
          keep_list l
          && r.c_exists
          && not (r.c_lowner <> None && r.c_blocks = [])
        then l :: acc
        else acc)
      t.lists []
    |> List.sort Int.compare
  in
  List.iter
    (fun l ->
      let r = clist t l in
      Buffer.add_string buf
        (Printf.sprintf "L%d[%s];" l
           (String.concat "," (List.map string_of_int r.c_blocks))))
    lids;
  let bids =
    Hashtbl.fold
      (fun b (c : mblock) acc ->
        if keep_block b && c.c_alloc && c.c_member <> None then
          (b, c) :: acc
        else acc)
      t.blocks []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter
    (fun (b, (c : mblock)) ->
      Buffer.add_string buf
        (Printf.sprintf "B%d:L%d:%s;" b
           (Option.value ~default:(-1) c.c_member)
           (content_digest t c.c_data)))
    bids;
  Buffer.contents buf
