(* The CRC32c vectors and Blk's kernel cases in bytecode: under
   ocamlrun every Blk kernel call enters blk_stubs.c through its _byte
   entry point, which the native test suite never calls.  Exits 1 on
   the first failing case. *)

let () =
  List.iter
    (fun (name, case) ->
      match case () with
      | () -> Printf.printf "ok    %s\n" name
      | exception Failure msg ->
        Printf.printf "FAIL  %s: %s\n" name msg;
        exit 1)
    Kernel_cases.all
