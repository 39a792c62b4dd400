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
(* Overlay                                                             *)

let page_bytes = 4096

(* A page that has not been written reads through [fill]; the first
   write to a page gives it a private copy, and every later read and
   write of that page goes to the copy.  Nothing [fill] reads from is
   ever handed out or written: every read is a fresh view filled by
   copying. *)
let overlay ~size fill =
  if size <= 0 then invalid_arg "Backend.overlay: size must be positive";
  let pages = Array.make ((size + page_bytes - 1) / page_bytes) None in
  let page_len p = min page_bytes (size - (p * page_bytes)) in
  (* [f p ~pos ~lo ~len] for each page [p] the range meets: [len] bytes
     at [lo] within the page, at [pos] within the range *)
  let each_page what ~offset ~length f =
    if offset < 0 || length < 0 || offset + length > size then
      invalid_arg ("Backend.overlay: " ^ what ^ " outside the store");
    let stop = offset + length in
    let p = ref (offset / page_bytes) in
    while !p * page_bytes < stop do
      let start = !p * page_bytes in
      let lo = max offset start in
      f !p ~pos:(lo - offset) ~lo:(lo - start)
        ~len:(min stop (start + page_len !p) - lo);
      incr p
    done
  in
  let read ~offset ~length =
    let out = Blk.create length in
    each_page "read" ~offset ~length (fun p ~pos ~lo ~len ->
        match pages.(p) with
        | Some page -> Blk.blit page lo out pos len
        | None when len = page_len p -> fill p (Blk.sub out pos len)
        | None ->
          let page = Blk.create (page_len p) in
          fill p page;
          Blk.blit page lo out pos len);
    out
  in
  let write ~offset data =
    each_page "write" ~offset ~length:(Blk.length data)
      (fun p ~pos ~lo ~len ->
        let page =
          match pages.(p) with
          | Some page -> page
          | None ->
            let page = Blk.create (page_len p) in
            if len < page_len p then fill p page;
            pages.(p) <- Some page;
            page
        in
        Blk.blit data pos page lo len)
  in
  {
    label = "overlay";
    size;
    read;
    write;
    snapshot = (fun () -> read ~offset:0 ~length:size);
    barrier = (fun () -> ());
    close = (fun () -> ());
  }

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
