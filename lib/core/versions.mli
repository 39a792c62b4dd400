(** The version store both Logical Disk implementations read through:
    owner visibility, the views of the record mesh (paper §3.3), the
    splice contexts over them, and the introspection walks.

    An instance has one of three layer shapes, fixed by what it is:
    {!Anchors} alone (LLD's sequential prototype); {!Anchors_shadows},
    where the anchors are the committed state and ARU shadows hang off
    them (JLD); {!Anchors_committed_shadows}, persistent anchors under
    committed alternatives and shadows (LLD's concurrent prototype).

    Charge rule: a view pays [version_search_ns] only when a layer above
    the anchors can hold what the reader sees, and without committed
    alternatives the committed view is the anchor itself: no search, no
    hops.  Creating committed records, promoting them and tracking their
    durability stay with the implementation. *)

type layers = Anchors | Anchors_shadows | Anchors_committed_shadows

type t = private {
  layers : layers;
  visibility : Config.visibility;
  blocks : Block_map.t;
  lists : List_table.t;
  arus : (int, Aru.t) Hashtbl.t;  (** the active ARUs, by id *)
  clock : Lld_sim.Clock.t;
  cost : Lld_sim.Cost.t;
  counters : Counters.t;
}

val create :
  layers:layers ->
  visibility:Config.visibility ->
  clock:Lld_sim.Clock.t ->
  cost:Lld_sim.Cost.t ->
  counters:Counters.t ->
  Block_map.t ->
  List_table.t ->
  t
(** No ARU active. *)

val find_aru : t -> Types.Aru_id.t -> Aru.t
(** Raises [Errors.Unknown_aru] for an ARU that is not active. *)

type who = [ `Simple | `In of Aru.t ]

val resolve_who : t -> Types.Aru_id.t option -> who
(** Raises [Errors.Unknown_aru] for an ARU that is not active. *)

val owner_active : t -> Types.Aru_id.t -> bool

val clear_owner_marks : t -> Aru.t -> unit
(** The ARU committed: the lists it allocated lose its owner mark in
    every version. *)

(** {1 Charges}

    [n] same-id chain hops, one alternative record made, one
    predecessor-search hop, the fixed cost of an LD operation. *)

val hops_charge : t -> int -> unit
val record_created : t -> unit
val pred_hop : t -> unit -> unit
val dispatch : t -> unit

(** {1 Views}

    [*_peek] finds the record a view holds; [shadow_get*] also creates
    the ARU's shadow from the committed view when it has none. *)

val committed_peek : t -> Types.Block_id.t -> Record.block
val committed_peek_list : t -> Types.List_id.t -> Record.list_r
val shadow_peek : t -> Aru.t -> Types.Block_id.t -> Record.block
val shadow_peek_list : t -> Aru.t -> Types.List_id.t -> Record.list_r
val shadow_get : t -> Aru.t -> Types.Block_id.t -> Record.block
val shadow_get_list : t -> Aru.t -> Types.List_id.t -> Record.list_r

val visible_block : t -> who -> Types.Block_id.t -> Record.block
(** The record a read sees under the visibility option. *)

val require_visible_block : t -> who -> Record.block -> unit
(** Raises [Errors.Unallocated_block] unless the record is allocated and
    its allocating ARU, if still active, is [who]. *)

val require_visible_list : t -> who -> Record.list_r -> unit

val shadow_ctx : t -> Aru.t -> Splice.ctx

val anchor_ctx :
  ?on_pred_hop:(unit -> unit) -> Block_map.t -> List_table.t -> Splice.ctx
(** Straight over the anchors: JLD's committed state and recovery's
    persistent state.  [on_pred_hop] defaults to charging nothing. *)

(** {1 Introspection} *)

val list_exists : t -> ?aru:Types.Aru_id.t -> Types.List_id.t -> bool
val block_allocated : t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> bool

val block_member :
  t -> ?aru:Types.Aru_id.t -> Types.Block_id.t -> Types.List_id.t option

val list_blocks :
  t -> ?aru:Types.Aru_id.t -> Types.List_id.t -> Types.Block_id.t list

val lists : t -> Types.List_id.t list
(** The lists of the committed state, found without charge. *)

val orphaned : t -> Record.block -> bool
(** An allocated anchor on no list, allocated by no active ARU. *)

val orphan_blocks : t -> Types.Block_id.t list

val abandoned_lists : t -> Types.List_id.t list
(** Empty lists allocated by an ARU that has ended, highest id first. *)
