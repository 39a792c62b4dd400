(** Multi-client programs for the differential tester.

    A program is a deterministic interleaving of per-client command
    streams.  Commands are {e symbolic}: object references are indices
    resolved at execution time against the client's live objects (as the
    model sees them), so a program stays meaningful when the shrinker
    deletes earlier commands — a dangling reference degrades into a
    different-but-valid choice or a skip, never into noise.

    Generation and scheduling are driven entirely by {!Lld_sim.Rng}, so
    [generate ~seed ~clients ~ops] is a pure function of its
    arguments. *)

type cmd =
  | Begin  (** open an ARU (skipped if the client already has one) *)
  | Commit  (** commit the open ARU (skipped if none) *)
  | Abort  (** abort the open ARU (skipped if none) *)
  | New_list
  | New_block of { list_ref : int; pred_ref : int option }
      (** insert into an own live list; [pred_ref] picks a predecessor
          among the list's current members ([None] or empty list =
          head insertion) *)
  | Write of { block_ref : int; tag : int }
      (** overwrite an own live block with a payload derived from
          [tag] *)
  | Read of { block_ref : int }
  | Delete_block of { block_ref : int }
  | Delete_list of { list_ref : int }
  | List_exists of { list_ref : int }
  | Block_allocated of { block_ref : int }
  | Block_member of { block_ref : int }
  | List_blocks of { list_ref : int }
  | Lists
  | Scavenge
  | Probe_dead of { which : int }
      (** read-only operation on a dead or never-allocated block id —
          error-path coverage *)
  | Read_other of { peer : int; block_ref : int }
      (** read-only probe of another client's block (cross-client
          visibility: the interesting part of options 1 and 2) *)

type step = { client : int; cmd : cmd }
type t = step array

val generate : seed:int -> clients:int -> ops:int -> t
(** [ops] commands per client, interleaved at command granularity by a
    seeded scheduler.  Deterministic: equal arguments, equal program. *)

val pp : Format.formatter -> t -> unit
(** One [#i cN: cmd] line per step. *)
