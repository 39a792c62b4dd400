exception Unallocated_block of Types.Block_id.t
exception Unallocated_list of Types.List_id.t
exception Unknown_aru of Types.Aru_id.t
exception Aru_already_active
exception Block_not_on_list of Types.Block_id.t
exception Disk_full
exception Corrupt of string
exception Commit_pending of Types.Aru_id.t

(* Media corruption detected by the checksum layer (segment slot CRCs,
   superblock generations) — distinct from [Corrupt], which means the
   logical structure is wrong.  The notafs-style split: checksum
   failures name what decayed and are the scrubber's work queue. *)
type corruption =
  | Invalid_checksum of { what : string; index : int }
      (* [what] names the structure ("segment slot", "segment meta",
         "superblock slot"), [index] which one *)
  | All_generations_corrupted
      (* a formatted image lost every generation of one of its two
         generational structures: both superblock slots fail their
         checksums while a checkpoint still parses, or both checkpoint
         regions fail while a superblock slot is valid — mount refuses *)

exception Corruption of corruption

let pp_corruption ppf = function
  | Invalid_checksum { what; index } ->
    Format.fprintf ppf "checksum mismatch: %s %d" what index
  | All_generations_corrupted ->
    Format.fprintf ppf
      "every generation of the superblock or of the checkpoint is corrupted"

let pp_exn ppf = function
  | Unallocated_block b ->
    Format.fprintf ppf "block %a is not allocated" Types.Block_id.pp b
  | Unallocated_list l ->
    Format.fprintf ppf "list %a is not allocated" Types.List_id.pp l
  | Unknown_aru a -> Format.fprintf ppf "ARU %a is not active" Types.Aru_id.pp a
  | Aru_already_active ->
    Format.fprintf ppf "an ARU is already active (sequential mode)"
  | Block_not_on_list b ->
    Format.fprintf ppf "block %a is not on the list" Types.Block_id.pp b
  | Disk_full -> Format.fprintf ppf "logical disk is full"
  | Corrupt msg -> Format.fprintf ppf "corrupt on-disk state: %s" msg
  | Commit_pending a ->
    Format.fprintf ppf "ARU %a has a commit pending in the group-commit queue"
      Types.Aru_id.pp a
  | Corruption c -> Format.fprintf ppf "media corruption: %a" pp_corruption c
  | e -> Format.fprintf ppf "%s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Panic hook: a last-chance observer fired just before an invariant
   violation propagates, so forensics (flight-recorder dumps) can run
   while the failing instance is still live.  Hooks are process-global
   and default to empty — codec-level [Corrupt] raises that recovery
   probes and catches on purpose go through plain [raise], not
   [panic]. *)

let panic_hooks : (exn -> unit) list ref = ref []
let on_panic f = panic_hooks := f :: !panic_hooks
let clear_panic_hooks () = panic_hooks := []

let panic e =
  List.iter (fun f -> try f e with _ -> ()) !panic_hooks;
  raise e

let corrupt msg = panic (Corrupt msg)
