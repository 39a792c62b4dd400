type t = {
  table : (int, Record.list_r) Hashtbl.t;
  max_lists : int;
  mutable watermark : int; (* next never-used identifier *)
  mutable free : int list;
  mutable existing : int;
}

let create ~max_lists =
  if max_lists <= 0 then invalid_arg "List_table.create";
  { table = Hashtbl.create 256; max_lists; watermark = 1; free = []; existing = 0 }

let anchor t l =
  let i = Types.List_id.to_int l in
  match Hashtbl.find_opt t.table i with
  | Some r -> r
  | None ->
    let r = Record.fresh_list l in
    Hashtbl.replace t.table i r;
    r

(* identifiers start at 1, and the pool never hands out more than
   [max_lists] of them *)
let in_range t l =
  let i = Types.List_id.to_int l in
  i >= 1 && i <= t.max_lists

let find_anchor t l = Hashtbl.find_opt t.table (Types.List_id.to_int l)

let alloc_id t =
  if t.existing >= t.max_lists then None
  else begin
    t.existing <- t.existing + 1;
    match t.free with
    | i :: rest ->
      t.free <- rest;
      Some (Types.List_id.of_int i)
    | [] ->
      let i = t.watermark in
      t.watermark <- i + 1;
      Some (Types.List_id.of_int i)
  end

let release_id t l =
  t.free <- Types.List_id.to_int l :: t.free;
  t.existing <- t.existing - 1

let rebuild_free t =
  let max_id = ref 0 in
  let existing = ref 0 in
  Hashtbl.iter
    (fun i r ->
      if r.Record.exists then begin
        incr existing;
        if i > !max_id then max_id := i
      end)
    t.table;
  t.watermark <- !max_id + 1;
  t.existing <- !existing;
  let free = ref [] in
  for i = t.watermark - 1 downto 1 do
    let exists =
      match Hashtbl.find_opt t.table i with
      | Some r -> r.Record.exists
      | None -> false
    in
    if not exists then free := i :: !free
  done;
  t.free <- !free

let iter t f =
  let ids = Hashtbl.fold (fun i _ acc -> i :: acc) t.table [] in
  List.iter
    (fun i -> f (Hashtbl.find t.table i))
    (List.sort Int.compare ids)
