module Blk = Lld_util.Blk

type t = {
  label : string;
  size : int;
  read : offset:int -> length:int -> Blk.t;
  write : offset:int -> Blk.t -> unit;
  snapshot : unit -> Blk.t;
  barrier : unit -> unit;
  close : unit -> unit;
}

(* ------------------------------------------------------------------ *)
(* Mem                                                                 *)

(* [read] hands out a fresh view, never an alias of the store: the
   store mutates under later writes, and the whole point of the view
   contract (DESIGN.md §5.13) is that the device boundary is the single
   copy the data path pays. *)
let of_view store =
  let size = Blk.length store in
  {
    label = "mem";
    size;
    read = (fun ~offset ~length -> Blk.copy (Blk.sub store offset length));
    write =
      (fun ~offset data -> Blk.blit data 0 store offset (Blk.length data));
    snapshot = (fun () -> Blk.copy store);
    barrier = (fun () -> ());
    close = (fun () -> ());
  }

let of_bytes store = of_view (Blk.of_bytes store)

let mem ~size =
  if size <= 0 then invalid_arg "Backend.mem: size must be positive";
  of_view (Blk.create size)

(* ------------------------------------------------------------------ *)
(* File                                                                *)

(* Every [Unix_error] is rewrapped so callers above the device layer see
   a clear [Invalid_argument] naming the image, never a raw Unix
   exception (the logical layers only know [Invalid_argument] and
   [Errors.Corrupt]). *)
let wrap_unix ~path op f =
  try f ()
  with Unix.Unix_error (e, _, _) ->
    invalid_arg
      (Printf.sprintf "Backend.file: cannot %s %s: %s" op path
         (Unix.error_message e))

let file ?(create = false) ~size path =
  if size <= 0 then invalid_arg "Backend.file: size must be positive";
  let fd =
    wrap_unix ~path "open" (fun () ->
        let flags =
          if create then Unix.[ O_RDWR; O_CREAT; O_CLOEXEC ]
          else Unix.[ O_RDWR; O_CLOEXEC ]
        in
        Unix.openfile path flags 0o644)
  in
  (match
     wrap_unix ~path "size" (fun () ->
         if create then Unix.ftruncate fd size;
         (Unix.fstat fd).Unix.st_size)
   with
  | actual when actual <> size ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    invalid_arg
      (Printf.sprintf
         "Backend.file: image %s is %d bytes, the geometry needs %d" path
         actual size)
  | _ -> ()
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e);
  (* The image is memory-mapped shared: [write] blits the caller's view
     straight into the page cache — the same single boundary copy the
     mem store pays — and [barrier]'s fsync makes the dirtied pages
     durable.  No read/write syscalls on the data path. *)
  let map =
    wrap_unix ~path "map" (fun () ->
        Blk.of_buffer
          (Bigarray.array1_of_genarray
             (Unix.map_file fd Bigarray.char Bigarray.c_layout true [| size |])))
  in
  let closed = ref false in
  let live op =
    if !closed then
      invalid_arg
        (Printf.sprintf "Backend.file: %s on closed image %s" op path)
  in
  {
    label = "file:" ^ path;
    size;
    read =
      (fun ~offset ~length ->
        live "read";
        Blk.copy (Blk.sub map offset length));
    write =
      (fun ~offset data ->
        live "write";
        Blk.blit data 0 map offset (Blk.length data));
    snapshot =
      (fun () ->
        live "snapshot";
        Blk.copy map);
    barrier =
      (fun () ->
        live "barrier";
        wrap_unix ~path "fsync" (fun () -> Unix.fsync fd));
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          wrap_unix ~path "close" (fun () -> Unix.close fd)
        end);
  }

let temp_file ?(dir = Filename.get_temp_dir_name ()) ~size () =
  let path = Filename.temp_file ~temp_dir:dir "lld" ".img" in
  let backend = file ~create:true ~size path in
  (* Unlink immediately: the open descriptor keeps the image alive and
     the kernel reclaims it when the backend is closed or the process
     exits — no stray .img files from test runs. *)
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  backend

let of_env ~size () =
  match Sys.getenv_opt "LLD_BACKEND" with
  | Some "file" -> Some (temp_file ~size ())
  | Some _ | None -> None
