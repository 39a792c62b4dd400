module Clock = Lld_sim.Clock
module Cost = Lld_sim.Cost
module Blk = Lld_util.Blk

type durable = No_record | Block of Record.block | List of Record.list_r

type sink = {
  committed_block : Types.Block_id.t -> Record.block;
  committed_list : Types.List_id.t -> Record.list_r;
  committed_ctx : Splice.ctx;
  log : Summary.stream -> Summary.op -> durable -> unit;
  write_data : Summary.stream -> Types.Block_id.t -> Blk.t -> stamp:int -> unit;
  forget : Record.block -> unit;
  allocated : Record.block -> unit;
  hold_data : Record.block -> Blk.t -> unit;
  drop_data : Record.block -> unit;
}

type t = {
  name : string;
  v : Versions.t;
  sink : sink;
  mutable stamp : int;
  mutable next_aru : int;
}

let create ~name v sink = { name; v; sink; stamp = 1; next_aru = 1 }
let cpu o ns = Clock.charge o.v.Versions.clock Clock.Cpu ns
let cost o = o.v.Versions.cost
let counters o = o.v.Versions.counters

let next_stamp o =
  o.stamp <- o.stamp + 1;
  o.stamp

(* Where an operation runs: an ARU's shadow state, or the committed
   state.  The sequential prototype has no shadows, so its in-ARU
   operations run in the committed state on the ARU's stream, and the
   identifiers they free wait for the commit record. *)
type path =
  | Shadow of Aru.t
  | Committed of { stream : Summary.stream; deferred : Aru.t option }

let simple = Committed { stream = Summary.Simple; deferred = None }

let path o (who : Versions.who) =
  match (who, o.v.Versions.layers) with
  | `In a, (Versions.Anchors_shadows | Versions.Anchors_committed_shadows) ->
    Shadow a
  | `In a, Versions.Anchors ->
    Committed { stream = Summary.In_aru a.Aru.id; deferred = Some a }
  | `Simple, _ -> simple

let release_block o deferred b =
  match deferred with
  | Some (a : Aru.t) -> a.Aru.freed_blocks <- b :: a.Aru.freed_blocks
  | None -> Block_map.release_id o.v.Versions.blocks b

let release_list o deferred l =
  match deferred with
  | Some (a : Aru.t) -> a.Aru.freed_lists <- l :: a.Aru.freed_lists
  | None -> List_table.release_id o.v.Versions.lists l

(* A shadow-state list operation appends to the ARU's link log instead
   of logging a summary entry (paper §4). *)
let log_link o (a : Aru.t) op =
  Link_log.add a.Aru.log op;
  let c = counters o in
  c.Counters.link_log_appends <- c.Counters.link_log_appends + 1;
  cpu o (cost o).Cost.link_log_append_ns

(* A committed block leaves its list: the member callback of a list
   delete, which has already unlinked and unallocated it. *)
let free_member o ~release (br : Record.block) =
  o.sink.forget br;
  br.Record.phys <- None;
  br.Record.alloc_owner <- None;
  release br.Record.id

(* The committed dealloc sequence: the record forgets its data and
   place, the Dealloc entry is logged (making [r] durable with it unless
   a commit stamps it later), and the identifier is released. *)
let free_block o (r : Record.block) ~stream ~stamp ~durable ~release =
  o.sink.forget r;
  r.Record.alloc <- false;
  r.Record.member_of <- None;
  r.Record.successor <- None;
  r.Record.phys <- None;
  r.Record.alloc_owner <- None;
  r.Record.stamp <- stamp;
  o.sink.log stream
    (Summary.Dealloc { block = r.Record.id; stamp })
    (if durable then Block r else No_record);
  release r.Record.id

(* Unlink a committed block from the list [peek] names, logging the
   Unlink; [on_skip] decides what an infeasible unlink means. *)
let unlink_member o ctx ~stream ~on_skip (peek : Record.block) =
  match peek.Record.member_of with
  | None -> ()
  | Some l -> (
    let block = peek.Record.id in
    match Splice.unlink ctx ~list:l ~block with
    | `Applied -> o.sink.log stream (Summary.Unlink { list = l; block }) No_record
    | `Skipped -> on_skip ())

(* Id reuse on the persistent/committed/shadow shape: a shadow version
   of a freshly allocated id still held by the allocating ARU (left by
   an in-ARU delete of the previous incarnation, whose committed record
   was later freed) is stale and would hide the fresh committed record
   from its own creator; reset it in place to mirror that record —
   exactly what a shadow fault-in would produce.  The other shapes keep
   the stale version: JLD's validated insert below then fails.  Both
   resets go with the rule that fixes identifier reuse: no identifier
   is reissued while an open ARU holds a shadow of it, so no shadow can
   be stale. *)
let reset_stale_list o (a : Aru.t) lid ~stamp ~owner =
  let anchor = List_table.anchor o.v.Versions.lists lid in
  match fst (Record.find_list ~anchor (Record.Shadow a.Aru.id)) with
  | None -> ()
  | Some sr ->
    sr.Record.exists <- true;
    sr.Record.first <- None;
    sr.Record.last <- None;
    sr.Record.lstamp <- stamp;
    sr.Record.l_owner <- owner;
    sr.Record.l_durable_seq <- max_int

let reset_stale_block o (a : Aru.t) (c : Record.block) =
  let anchor = Block_map.anchor o.v.Versions.blocks c.Record.id in
  match fst (Record.find_block ~anchor (Record.Shadow a.Aru.id)) with
  | None -> ()
  | Some r ->
    o.sink.drop_data r;
    r.Record.alloc <- c.Record.alloc;
    r.Record.member_of <- None;
    r.Record.successor <- None;
    r.Record.phys <- None;
    r.Record.stamp <- c.Record.stamp;
    r.Record.alloc_owner <- c.Record.alloc_owner;
    r.Record.durable_seq <- max_int

let stale_resets o =
  match o.v.Versions.layers with
  | Versions.Anchors_committed_shadows -> true
  | Versions.Anchors | Versions.Anchors_shadows -> false

(* ------------------------------------------------------------------ *)
(* The LD operations                                                   *)

let begin_aru o =
  let c = counters o in
  c.Counters.arus_begun <- c.Counters.arus_begun + 1;
  let id = Types.Aru_id.of_int o.next_aru in
  o.next_aru <- o.next_aru + 1;
  let a = Aru.create id in
  (* the sequential prototype's begin only opens a group in its stream *)
  cpu o
    (match o.v.Versions.layers with
    | Versions.Anchors -> (cost o).Cost.aru_begin_ns / 2
    | Versions.Anchors_shadows | Versions.Anchors_committed_shadows ->
      (cost o).Cost.aru_begin_ns);
  Hashtbl.replace o.v.Versions.arus (Types.Aru_id.to_int id) a;
  a

let new_list o ?aru () =
  Versions.dispatch o.v;
  let c = counters o in
  c.Counters.new_lists <- c.Counters.new_lists + 1;
  let who = Versions.resolve_who o.v aru in
  let lid =
    match List_table.alloc_id o.v.Versions.lists with
    | Some l -> l
    | None -> raise Errors.Disk_full
  in
  let stamp = next_stamp o in
  let owner = match who with `In a -> Some a.Aru.id | `Simple -> None in
  let r = o.sink.committed_list lid in
  r.Record.exists <- true;
  r.Record.first <- None;
  r.Record.last <- None;
  r.Record.lstamp <- stamp;
  r.Record.l_owner <- owner;
  (match who with
  | `In a ->
    a.Aru.owned_lists <- r :: a.Aru.owned_lists;
    if stale_resets o then reset_stale_list o a lid ~stamp ~owner
  | `Simple -> ());
  o.sink.log Summary.Simple
    (Summary.New_list { list = lid; stamp; owner })
    (List r);
  lid

let new_block o ?aru ~list ~pred () =
  Versions.dispatch o.v;
  let c = counters o in
  c.Counters.new_blocks <- c.Counters.new_blocks + 1;
  let who = Versions.resolve_who o.v aru in
  let path = path o who in
  (* validate against the view the insertion will run in *)
  let view_list, view_block =
    match path with
    | Shadow a -> (Versions.shadow_peek_list o.v a, Versions.shadow_peek o.v a)
    | Committed _ -> (Versions.committed_peek_list o.v, Versions.committed_peek o.v)
  in
  Versions.require_visible_list o.v who (view_list list);
  (match pred with
  | Summary.Head -> ()
  | Summary.After p ->
    let pr = view_block p in
    Versions.require_visible_block o.v who pr;
    if pr.Record.member_of <> Some list then raise (Errors.Block_not_on_list p));
  let bid =
    match Block_map.alloc_id o.v.Versions.blocks with
    | Some b -> b
    | None -> raise Errors.Disk_full
  in
  let stamp = next_stamp o in
  (* allocation always happens in the committed state (paper §3.3) *)
  let r = o.sink.committed_block bid in
  r.Record.alloc <- true;
  r.Record.member_of <- None;
  r.Record.successor <- None;
  r.Record.phys <- None;
  o.sink.allocated r;
  r.Record.stamp <- stamp;
  r.Record.alloc_owner <-
    (match who with `In a -> Some a.Aru.id | `Simple -> None);
  (match path with
  | Shadow a when stale_resets o -> reset_stale_block o a r
  | Shadow _ | Committed _ -> ());
  o.sink.log Summary.Simple
    (Summary.Alloc { block = bid; list; stamp })
    (Block r);
  let inserted = function
    | `Applied -> ()
    | `Skipped -> Errors.corrupt (o.name ^ ".new_block: validated insert skipped")
  in
  (* insertion: in the ARU's shadow state, or in the committed state *)
  (match path with
  | Shadow a ->
    inserted (Splice.insert (Versions.shadow_ctx o.v a) ~list ~block:bid ~pred);
    log_link o a (Link_log.Insert { list; block = bid; pred })
  | Committed { stream; _ } ->
    inserted (Splice.insert o.sink.committed_ctx ~list ~block:bid ~pred);
    o.sink.log stream (Summary.Link { list; block = bid; pred }) (Block r));
  bid

let write o ?aru block data =
  Versions.dispatch o.v;
  let c = counters o in
  c.Counters.writes <- c.Counters.writes + 1;
  let who = Versions.resolve_who o.v aru in
  let stamp = next_stamp o in
  match path o who with
  | Shadow a ->
    Versions.require_visible_block o.v who (Versions.shadow_peek o.v a block);
    let r = Versions.shadow_get o.v a block in
    o.sink.hold_data r data;
    cpu o (cost o).Cost.block_copy_ns;
    r.Record.stamp <- stamp
  | Committed { stream; _ } ->
    Versions.require_visible_block o.v who (Versions.committed_peek o.v block);
    o.sink.write_data stream block data ~stamp

let read o ?aru block =
  Versions.dispatch o.v;
  let c = counters o in
  c.Counters.reads <- c.Counters.reads + 1;
  cpu o (cost o).Cost.block_read_cpu_ns;
  let who = Versions.resolve_who o.v aru in
  let r = Versions.visible_block o.v who block in
  Versions.require_visible_block o.v who r;
  r

let delete_block o ?aru block =
  Versions.dispatch o.v;
  let c = counters o in
  c.Counters.delete_blocks <- c.Counters.delete_blocks + 1;
  let who = Versions.resolve_who o.v aru in
  let stamp = next_stamp o in
  let not_on_list () = raise (Errors.Block_not_on_list block) in
  match path o who with
  | Shadow a ->
    let peek = Versions.shadow_peek o.v a block in
    Versions.require_visible_block o.v who peek;
    (match peek.Record.member_of with
    | Some l -> (
      match Splice.unlink (Versions.shadow_ctx o.v a) ~list:l ~block with
      | `Applied -> ()
      | `Skipped -> not_on_list ())
    | None -> ());
    let r = Versions.shadow_get o.v a block in
    r.Record.alloc <- false;
    r.Record.member_of <- None;
    r.Record.successor <- None;
    o.sink.drop_data r;
    r.Record.phys <- None;
    r.Record.stamp <- stamp;
    log_link o a (Link_log.Delete_block { block })
  | Committed { stream; deferred } ->
    let peek = Versions.committed_peek o.v block in
    Versions.require_visible_block o.v who peek;
    unlink_member o o.sink.committed_ctx ~stream ~on_skip:not_on_list peek;
    free_block o
      (o.sink.committed_block block)
      ~stream ~stamp ~durable:true ~release:(release_block o deferred)

let delete_list o ?aru list =
  Versions.dispatch o.v;
  let c = counters o in
  c.Counters.delete_lists <- c.Counters.delete_lists + 1;
  let who = Versions.resolve_who o.v aru in
  match path o who with
  | Shadow a ->
    Versions.require_visible_list o.v who (Versions.shadow_peek_list o.v a list);
    (* lazily mark the list deleted in the shadow state; its members
       are deallocated when the log replays at commit (this is what
       makes the improved deletion policy cheap, paper §5.3) *)
    let r = Versions.shadow_get_list o.v a list in
    r.Record.exists <- false;
    r.Record.first <- None;
    r.Record.last <- None;
    log_link o a (Link_log.Delete_list { list })
  | Committed { stream; deferred } ->
    Versions.require_visible_list o.v who (Versions.committed_peek_list o.v list);
    (match
       Splice.delete_list o.sink.committed_ctx ~list
         ~dealloc:(free_member o ~release:(release_block o deferred))
     with
    | `Applied -> ()
    | `Skipped -> raise (Errors.Unallocated_list list));
    o.sink.log stream (Summary.Delete_list { list }) No_record;
    release_list o deferred list

let free_orphan o b =
  let stamp = next_stamp o in
  free_block o (o.sink.committed_block b) ~stream:Summary.Simple ~stamp
    ~durable:true
    ~release:(Block_map.release_id o.v.Versions.blocks)

(* ------------------------------------------------------------------ *)
(* Commit and abort                                                    *)

let replay_op o (a : Aru.t) ctx op =
  let c = counters o in
  c.Counters.link_log_replays <- c.Counters.link_log_replays + 1;
  cpu o (cost o).Cost.link_log_replay_ns;
  let skipped () = c.Counters.replay_skips <- c.Counters.replay_skips + 1 in
  let stream = Summary.In_aru a.Aru.id in
  let release = Block_map.release_id o.v.Versions.blocks in
  match op with
  | Link_log.Insert { list; block; pred } -> (
    match Splice.insert ctx ~list ~block ~pred with
    | `Applied ->
      o.sink.log stream (Summary.Link { list; block; pred }) No_record
    | `Skipped -> skipped ())
  | Link_log.Delete_block { block } ->
    let peek = Versions.committed_peek o.v block in
    if not peek.Record.alloc then skipped ()
    else begin
      unlink_member o ctx ~stream ~on_skip:skipped peek;
      let r = ctx.Splice.get_block block in
      free_block o r ~stream ~stamp:(next_stamp o) ~durable:false ~release
    end
  | Link_log.Delete_list { list } -> (
    match Splice.delete_list ctx ~list ~dealloc:(free_member o ~release) with
    | `Applied ->
      o.sink.log stream (Summary.Delete_list { list }) No_record;
      List_table.release_id o.v.Versions.lists list
    | `Skipped -> skipped ())

let replay_log o (a : Aru.t) ctx =
  List.iter (replay_op o a ctx) (Link_log.to_list a.Aru.log)

let transition o =
  let c = counters o in
  c.Counters.record_transitions <- c.Counters.record_transitions + 1;
  cpu o (cost o).Cost.record_transition_ns

let merge_shadow o (a : Aru.t) ~write =
  Aru.iter_shadow_blocks a (fun r ->
      let anchor = Block_map.anchor o.v.Versions.blocks r.Record.id in
      Record.remove_alt_block ~anchor r;
      transition o;
      (match r.Record.data with
      | Some d when r.Record.alloc ->
        let cnow = Versions.committed_peek o.v r.Record.id in
        (* the shadow version replaces the committed version only if
           it is more recent (paper §3.1) *)
        if cnow.Record.alloc && r.Record.stamp >= cnow.Record.stamp then
          write r.Record.id d ~stamp:r.Record.stamp
        else
          let c = counters o in
          c.Counters.replay_skips <- c.Counters.replay_skips + 1
      | Some _ | None -> ());
      (* the shadow data was handed to the committed state (or
         superseded): the record lets go of it either way *)
      o.sink.drop_data r);
  Aru.iter_shadow_lists a (fun r ->
      let anchor = List_table.anchor o.v.Versions.lists r.Record.lid in
      Record.remove_alt_list ~anchor r;
      transition o)

let abort o aid =
  let a = Versions.find_aru o.v aid in
  Aru.iter_shadow_blocks a (fun r ->
      let anchor = Block_map.anchor o.v.Versions.blocks r.Record.id in
      Record.remove_alt_block ~anchor r;
      o.sink.drop_data r);
  Aru.iter_shadow_lists a (fun r ->
      let anchor = List_table.anchor o.v.Versions.lists r.Record.lid in
      Record.remove_alt_list ~anchor r);
  Hashtbl.remove o.v.Versions.arus (Types.Aru_id.to_int aid);
  let c = counters o in
  c.Counters.arus_aborted <- c.Counters.arus_aborted + 1
