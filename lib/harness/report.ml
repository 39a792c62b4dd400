(* ------------------------------------------------------------------ *)
(* Minimal JSON (no external dependency): enough for the bench file.   *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* The shortest %g rendering that reads back as the same float. *)
let float_repr f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 15

let rec json_write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (Lld_obs.Trace.json_escape s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        json_write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        json_write buf (String k);
        Buffer.add_char buf ':';
        json_write buf v)
      fields;
    Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 1024 in
  json_write buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)

type cell = { text : string; value : json }

let int i = { text = string_of_int i; value = Int i }
let text s = { text = s; value = String s }

let float ?(digits = 2) ?(suffix = "") v =
  { text = Printf.sprintf "%.*f%s" digits v suffix; value = Float v }

let pct ~baseline v =
  if baseline = 0. then "n/a"
  else Printf.sprintf "%+.1f%%" ((baseline -. v) /. baseline *. 100.)

let vs ?(digits = 1) ~baseline v =
  {
    text = Printf.sprintf "%.*f (%s)" digits v (pct ~baseline v);
    value =
      Obj
        [
          ("value", Float v);
          ( "diff_pct",
            if baseline = 0. then Null
            else Float ((baseline -. v) /. baseline *. 100.) );
        ];
  }

let yes_no b = { text = (if b then "yes" else "NO"); value = Bool b }
let na = { text = "n/a"; value = Null }

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)

type table = {
  title : string;
  header : string list;
  rows : cell list list;
  quoted : (string * json) list;
}

let table ?(quoted = []) ~title ~header rows = { title; header; rows; quoted }

let print ppf t =
  let rows = List.map (List.map (fun c -> c.text)) t.rows in
  let w = Array.make (List.length t.header) 0 in
  List.iter
    (List.iteri (fun i cell -> w.(i) <- max w.(i) (String.length cell)))
    (t.header :: rows);
  let total = Array.fold_left ( + ) 0 w + (2 * (Array.length w - 1)) in
  Format.fprintf ppf "@.%s@.%s@." t.title
    (String.make (max total (String.length t.title)) '-');
  let print_row row =
    let pad i s = s ^ String.make (w.(i) - String.length s) ' ' in
    Format.fprintf ppf "%s@." (String.concat "  " (List.mapi pad row))
  in
  List.iter print_row (t.header :: rows)

let to_json t =
  Obj
    ((("title", String t.title) :: t.quoted)
    @ [
        ( "rows",
          List
            (List.map
               (fun row ->
                 Obj (List.map2 (fun h c -> (h, c.value)) t.header row))
               t.rows) );
      ])
