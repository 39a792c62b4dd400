type block_unit = {
  bu_label : string;
  bu_lists : Lld_core.Types.List_id.t list;
  bu_blocks : (Lld_core.Types.Block_id.t * bytes) list;
  bu_overwrites :
    (Lld_core.Types.Block_id.t * bytes * bytes) list;
  bu_must_not_commit : bool;
}

type file_unit = { fu_path : string; fu_content : bytes }
type unit_ = Blocks of block_unit | File of file_unit

type t = { mutable rev_units : unit_ list; mutable count : int }

let create () = { rev_units = []; count = 0 }

let add t u =
  t.rev_units <- u :: t.rev_units;
  t.count <- t.count + 1

let add_blocks t ~label ?(must_not_commit = false) ?(overwrites = []) ~lists
    blocks =
  add t
    (Blocks
       {
         bu_label = label;
         bu_lists = lists;
         bu_blocks = blocks;
         bu_overwrites = overwrites;
         bu_must_not_commit = must_not_commit;
       })

let add_file t ~path ~content =
  add t (File { fu_path = path; fu_content = content })

let units t = List.rev t.rev_units
let size t = t.count
