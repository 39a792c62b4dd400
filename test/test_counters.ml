module Counters = Lld_core.Counters

(* The enumerated field list is the single source of truth for every
   derived operation.  All counter fields are immediate ints, so the
   runtime representation's size is exactly the number of record fields:
   if someone adds a field to the record but not to [fields] (or the
   other way round), this fails. *)
let test_fields_cover_record () =
  Alcotest.(check int)
    "fields list covers every record field"
    (Obj.size (Obj.repr (Counters.create ())))
    (List.length Counters.fields)

let test_field_names_unique () =
  let names = List.map (fun (n, _, _) -> n) Counters.fields in
  Alcotest.(check int)
    "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_getter_setter_roundtrip () =
  List.iteri
    (fun i (name, get, set) ->
      let c = Counters.create () in
      set c (i + 1);
      Alcotest.(check int) (name ^ " set/get") (i + 1) (get c);
      (* no other field moved *)
      List.iter
        (fun (other, get', _) ->
          if other <> name then
            Alcotest.(check int) (other ^ " untouched") 0 (get' c))
        Counters.fields)
    Counters.fields

let fill c =
  List.iteri (fun i (_, _, set) -> set c (100 + i)) Counters.fields

let test_reset_copy () =
  let c = Counters.create () in
  fill c;
  let d = Counters.copy c in
  Alcotest.(check (list (pair string int)))
    "copy equal" (Counters.to_alist c) (Counters.to_alist d);
  Counters.reset c;
  Alcotest.(check bool)
    "reset zeroes everything" true
    (List.for_all (fun (_, v) -> v = 0) (Counters.to_alist c));
  Alcotest.(check bool)
    "copy was independent" true
    (List.for_all (fun (_, v) -> v >= 100) (Counters.to_alist d))

let () =
  Alcotest.run "counters"
    [
      ( "fields",
        [
          Alcotest.test_case "list covers the record" `Quick
            test_fields_cover_record;
          Alcotest.test_case "names unique" `Quick test_field_names_unique;
          Alcotest.test_case "getter/setter round trip" `Quick
            test_getter_setter_roundtrip;
        ] );
      ("derived", [ Alcotest.test_case "reset/copy" `Quick test_reset_copy ]);
    ]
