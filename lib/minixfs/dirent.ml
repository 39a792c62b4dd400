
type t = { ino : int; name : string }

let valid_name name =
  String.length name > 0
  && String.length name <= Layout.name_max
  && not (String.exists (fun c -> c = '/' || c = '\000') name)

let read block ~off =
  match Bytes.get_uint16_le block off with
  | 0 -> None
  | ino ->
    let raw = Bytes.sub_string block (off + 2) Layout.name_max in
    let name =
      match String.index_opt raw '\000' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    Some { ino; name }

let write block ~off t =
  if not (valid_name t.name) then invalid_arg "Dirent.write: invalid name";
  if t.ino <= 0 || t.ino > 0xffff then invalid_arg "Dirent.write: invalid ino";
  Bytes.set_uint16_le block off t.ino;
  let padded = Bytes.make Layout.name_max '\000' in
  Bytes.blit_string t.name 0 padded 0 (String.length t.name);
  Bytes.blit padded 0 block (off + 2) Layout.name_max

let clear block ~off =
  Bytes.fill block off Layout.dirent_bytes '\000'
