module Clock = Lld_sim.Clock
module Cost = Lld_sim.Cost

type layers = Anchors | Anchors_shadows | Anchors_committed_shadows

type t = {
  layers : layers;
  visibility : Config.visibility;
  blocks : Block_map.t;
  lists : List_table.t;
  arus : (int, Aru.t) Hashtbl.t;
  clock : Clock.t;
  cost : Cost.t;
  counters : Counters.t;
}

let create ~layers ~visibility ~clock ~cost ~counters blocks lists =
  let arus = Hashtbl.create 16 in
  { layers; visibility; blocks; lists; arus; clock; cost; counters }

let cpu t ns = Clock.charge t.clock Clock.Cpu ns

type who = [ `Simple | `In of Aru.t ]

let find_aru t aid =
  match Hashtbl.find_opt t.arus (Types.Aru_id.to_int aid) with
  | Some a -> a
  | None -> raise (Errors.Unknown_aru aid)

let resolve_who t = function None -> `Simple | Some aid -> `In (find_aru t aid)

let owner_active t o = Hashtbl.mem t.arus (Types.Aru_id.to_int o)

(* Allocation-owner visibility (paper §3.3): a block/list allocated
   inside an ARU is invisible to everyone else until the ARU ends. *)
let owner_visible t who owner =
  match owner with
  | None -> true
  | Some o -> (
    if not (owner_active t o) then true
    else
      match who with
      | `In (a : Aru.t) -> Types.Aru_id.equal a.Aru.id o
      | `Simple -> false)

(* A commit makes the ARU's list allocations ordinary committed lists:
   its owner mark goes from every version, including a committed
   alternative the commit cloned from an anchor that still carried it
   (its promotion would restore the stale owner). *)
let clear_owner_marks t (a : Aru.t) =
  let clear (r : Record.list_r) =
    match r.Record.l_owner with
    | Some o when Types.Aru_id.equal o a.Aru.id -> r.Record.l_owner <- None
    | Some _ | None -> ()
  in
  List.iter
    (fun (r : Record.list_r) ->
      clear r;
      let anchor = List_table.anchor t.lists r.Record.lid in
      clear anchor;
      Option.iter clear (fst (Record.find_list ~anchor Record.Committed)))
    a.Aru.owned_lists

let hops_charge t n =
  if n > 0 then begin
    t.counters.Counters.mesh_hops <- t.counters.Counters.mesh_hops + n;
    cpu t (n * t.cost.Cost.mesh_hop_ns)
  end

let pred_hop t () =
  t.counters.Counters.pred_search_hops <-
    t.counters.Counters.pred_search_hops + 1;
  cpu t t.cost.Cost.pred_search_hop_ns

let dispatch t =
  cpu t t.cost.Cost.op_dispatch_ns;
  cpu t t.cost.Cost.record_lookup_ns

let search t = cpu t t.cost.Cost.version_search_ns

let record_created t =
  t.counters.Counters.record_creates <- t.counters.Counters.record_creates + 1;
  cpu t t.cost.Cost.record_create_ns

(* ------------------------------------------------------------------ *)
(* Views                                                               *)

(* Committed view: the committed alternative, falling back to the
   anchor.  Without committed alternatives the anchor is the answer and
   nothing is searched. *)
let committed_peek t b =
  let anchor = Block_map.anchor t.blocks b in
  match t.layers with
  | Anchors | Anchors_shadows -> anchor
  | Anchors_committed_shadows ->
    let r, hops = Record.find_block ~anchor Record.Committed in
    hops_charge t hops;
    Option.value r ~default:anchor

let committed_peek_list t l =
  let anchor = List_table.anchor t.lists l in
  match t.layers with
  | Anchors | Anchors_shadows -> anchor
  | Anchors_committed_shadows ->
    let r, hops = Record.find_list ~anchor Record.Committed in
    hops_charge t hops;
    Option.value r ~default:anchor

(* Shadow view for an ARU: shadow record, else committed, else
   persistent (the standardized search of paper §3.3). *)
let shadow_peek t (a : Aru.t) b =
  let anchor = Block_map.anchor t.blocks b in
  let r, hops = Record.find_block ~anchor (Record.Shadow a.Aru.id) in
  hops_charge t hops;
  match r with Some r -> r | None -> committed_peek t b

let shadow_get t (a : Aru.t) b =
  let anchor = Block_map.anchor t.blocks b in
  let r, hops = Record.find_block ~anchor (Record.Shadow a.Aru.id) in
  hops_charge t hops;
  match r with
  | Some r -> r
  | None ->
    let from = committed_peek t b in
    let alt = Record.alt_block (Record.Shadow a.Aru.id) ~from in
    Record.insert_alt_block ~anchor alt;
    Aru.push_shadow_block a alt;
    record_created t;
    alt

let shadow_peek_list t (a : Aru.t) l =
  let anchor = List_table.anchor t.lists l in
  let r, hops = Record.find_list ~anchor (Record.Shadow a.Aru.id) in
  hops_charge t hops;
  match r with Some r -> r | None -> committed_peek_list t l

let shadow_get_list t (a : Aru.t) l =
  let anchor = List_table.anchor t.lists l in
  let r, hops = Record.find_list ~anchor (Record.Shadow a.Aru.id) in
  hops_charge t hops;
  match r with
  | Some r -> r
  | None ->
    let from = committed_peek_list t l in
    let alt = Record.alt_list (Record.Shadow a.Aru.id) ~from in
    Record.insert_alt_list ~anchor alt;
    Aru.push_shadow_list a alt;
    record_created t;
    alt

(* The record a Read (or introspection) sees, per the visibility option
   (paper §3.3).  Only a view that can reach past the anchors pays for
   the version search. *)
let visible_block t (who : who) b =
  let anchor = Block_map.anchor t.blocks b in
  match (t.layers, t.visibility, who) with
  | Anchors, _, _ -> anchor
  | _, Config.Own_shadow, `In a ->
    search t;
    shadow_peek t a b
  | _, Config.Any_shadow, _ -> (
    search t;
    let r, hops = Record.newest_shadow_block ~anchor in
    hops_charge t hops;
    match r with Some r -> r | None -> committed_peek t b)
  | Anchors_shadows, (Config.Own_shadow | Config.Committed_only), _ -> anchor
  | Anchors_committed_shadows, (Config.Own_shadow | Config.Committed_only), _
    ->
    search t;
    committed_peek t b

(* Lists have no newest-shadow search: option 1 reads a list like
   option 3. *)
let visible_list t (who : who) l =
  match (t.layers, t.visibility, who) with
  | Anchors, _, _ -> List_table.anchor t.lists l
  | _, (Config.Own_shadow | Config.Any_shadow), `In a ->
    search t;
    shadow_peek_list t a l
  | Anchors_shadows, _, _ -> List_table.anchor t.lists l
  | Anchors_committed_shadows, _, _ ->
    search t;
    committed_peek_list t l

let require_visible_block t who (r : Record.block) =
  if not (r.Record.alloc && owner_visible t who r.Record.alloc_owner) then
    raise (Errors.Unallocated_block r.Record.id)

let require_visible_list t who (r : Record.list_r) =
  if not (r.Record.exists && owner_visible t who r.Record.l_owner) then
    raise (Errors.Unallocated_list r.Record.lid)

(* ------------------------------------------------------------------ *)
(* Splice contexts                                                     *)

let shadow_ctx t (a : Aru.t) =
  {
    Splice.peek_block = (fun b -> shadow_peek t a b);
    get_block = (fun b -> shadow_get t a b);
    peek_list = (fun l -> shadow_peek_list t a l);
    get_list = (fun l -> shadow_get_list t a l);
    on_pred_hop = pred_hop t;
  }

let anchor_ctx ?(on_pred_hop = ignore) blocks lists =
  {
    Splice.peek_block = (fun b -> Block_map.anchor blocks b);
    get_block = (fun b -> Block_map.anchor blocks b);
    peek_list = (fun l -> List_table.anchor lists l);
    get_list = (fun l -> List_table.anchor lists l);
    on_pred_hop;
  }

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let list_exists t ?aru list =
  let who = resolve_who t aru in
  let r = visible_list t who list in
  r.Record.exists && owner_visible t who r.Record.l_owner

let block_allocated t ?aru block =
  let who = resolve_who t aru in
  Block_map.in_range t.blocks block
  &&
  let r = visible_block t who block in
  r.Record.alloc && owner_visible t who r.Record.alloc_owner

let block_member t ?aru block =
  let who = resolve_who t aru in
  let r = visible_block t who block in
  if r.Record.alloc && owner_visible t who r.Record.alloc_owner then
    r.Record.member_of
  else None

let list_blocks t ?aru list =
  let who = resolve_who t aru in
  let lrec = visible_list t who list in
  require_visible_list t who lrec;
  (* a list holds each block at most once, so a longer chain is a cycle *)
  let rec walk n acc = function
    | None -> List.rev acc
    | Some _ when n = Block_map.capacity t.blocks ->
      Errors.corrupt
        (Format.asprintf "list %a: chain longer than the disk (a cycle)"
           Types.List_id.pp list)
    | Some b ->
      let br = visible_block t who b in
      walk (n + 1) (b :: acc) br.Record.successor
  in
  walk 0 [] lrec.Record.first

let lists t =
  let acc = ref [] in
  List_table.iter t.lists (fun anchor ->
      let r =
        match t.layers with
        | Anchors | Anchors_shadows -> anchor
        | Anchors_committed_shadows ->
          Option.value (fst (Record.find_list ~anchor Record.Committed))
            ~default:anchor
      in
      if r.Record.exists then acc := r.Record.lid :: !acc);
  List.rev !acc

let orphaned t (anchor : Record.block) =
  anchor.Record.alloc
  && anchor.Record.member_of = None
  &&
  match anchor.Record.alloc_owner with
  | None -> true
  | Some o -> not (owner_active t o)

let orphan_blocks t =
  let acc = ref [] in
  Block_map.iter t.blocks (fun anchor ->
      if orphaned t anchor then acc := anchor.Record.id :: !acc);
  List.rev !acc

let abandoned_lists t =
  let acc = ref [] in
  List_table.iter t.lists (fun anchor ->
      match anchor.Record.l_owner with
      | Some o
        when anchor.Record.exists && anchor.Record.first = None
             && not (owner_active t o) ->
        acc := anchor.Record.lid :: !acc
      | Some _ | None -> ());
  !acc
