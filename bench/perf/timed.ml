(* [Lld] with every LD call a client makes — the engine, the Minix file
   system, the workloads themselves — timed as a span: the lld layer's
   public boundary, measured from outside the library.  [Timed.t] is
   [Lld.t], so an instance built with [Lld] is driven through either
   module. *)

module Lld = Lld_core.Lld
module Backend = Lld_disk.Backend
include Lld

let s_begin_aru = Span.name "lld.begin_aru"
let s_read = Span.name "lld.read"
let s_write = Span.name "lld.write"
let s_new_block = Span.name "lld.new_block"
let s_delete_block = Span.name "lld.delete_block"
let s_new_list = Span.name "lld.new_list"
let s_delete_list = Span.name "lld.delete_list"
let s_end_aru = Span.name "lld.end_aru"
let s_submit_commit = Span.name "lld.submit_commit"
let s_flush_commits = Span.name "lld.flush_commits"
let s_flush = Span.name "lld.flush"
let s_checkpoint = Span.name "lld.checkpoint"

(* the op names of the lld layer, as reported per layer *)
let ops =
  [
    "begin_aru"; "read"; "write"; "new_block"; "delete_block"; "new_list";
    "delete_list"; "end_aru"; "submit_commit"; "flush_commits"; "flush";
    "checkpoint";
  ]

let begin_aru t = Span.wrap s_begin_aru (fun () -> Lld.begin_aru t)
let read t ?aru b = Span.wrap s_read (fun () -> Lld.read t ?aru b)
let write t ?aru b d = Span.wrap s_write (fun () -> Lld.write t ?aru b d)

let new_block t ?aru ~list ~pred () =
  Span.wrap s_new_block (fun () -> Lld.new_block t ?aru ~list ~pred ())

let delete_block t ?aru b =
  Span.wrap s_delete_block (fun () -> Lld.delete_block t ?aru b)

let new_list t ?aru () = Span.wrap s_new_list (fun () -> Lld.new_list t ?aru ())

let delete_list t ?aru l =
  Span.wrap s_delete_list (fun () -> Lld.delete_list t ?aru l)

let end_aru t a = Span.wrap s_end_aru (fun () -> Lld.end_aru t a)
let submit_commit t a = Span.wrap s_submit_commit (fun () -> Lld.submit_commit t a)
let flush_commits t = Span.wrap s_flush_commits (fun () -> Lld.flush_commits t)
let flush t = Span.wrap s_flush (fun () -> Lld.flush t)
let checkpoint t = Span.wrap s_checkpoint (fun () -> Lld.checkpoint t)

(* The store below the device's shim stack, timed the same way. *)
let s_backend_read = Span.name "backend.read"
let s_backend_write = Span.name "backend.write"
let s_backend_barrier = Span.name "backend.barrier"

let backend (b : Backend.t) =
  {
    b with
    Backend.read =
      (fun ~offset ~length ->
        Span.wrap s_backend_read (fun () -> b.Backend.read ~offset ~length));
    write =
      (fun ~offset data ->
        Span.wrap s_backend_write (fun () -> b.Backend.write ~offset data));
    barrier = (fun () -> Span.wrap s_backend_barrier b.Backend.barrier);
  }
