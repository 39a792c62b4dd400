module Clock = Lld_sim.Clock

type entry = {
  fl_ns : int;
  fl_cat : string;
  fl_name : string;
  fl_args : (string * Trace.arg) list;
}

type t = {
  clock : Clock.t;
  enabled : bool;
  ring : entry array;  (* valid slots: the last [min count capacity] records *)
  mutable head : int;  (* next slot to write *)
  mutable count : int;  (* total entries ever recorded *)
}

let dummy_entry = { fl_ns = 0; fl_cat = ""; fl_name = ""; fl_args = [] }

let disabled =
  { clock = Clock.create (); enabled = false; ring = [||]; head = 0; count = 0 }

let create ?(capacity = 4096) ~clock () =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  {
    clock;
    enabled = true;
    ring = Array.make capacity dummy_entry;
    head = 0;
    count = 0;
  }

let enabled t = t.enabled
let capacity t = Array.length t.ring
let count t = t.count
let dropped t = max 0 (t.count - Array.length t.ring)

let record t cat name args =
  if t.enabled then begin
    t.ring.(t.head) <-
      {
        fl_ns = Clock.now_ns t.clock;
        fl_cat = cat;
        fl_name = name;
        fl_args = args;
      };
    t.head <- (t.head + 1) mod Array.length t.ring;
    t.count <- t.count + 1
  end

let clear t =
  t.head <- 0;
  t.count <- 0

(* Entries currently held, oldest first. *)
let entries t =
  let cap = Array.length t.ring in
  if cap = 0 || t.count = 0 then []
  else begin
    let n = min t.count cap in
    let first = (t.head - n + cap) mod cap in
    List.init n (fun i -> t.ring.((first + i) mod cap))
  end

let to_jsonl_string t =
  let buf = Buffer.create 16384 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "{\"ns\":%d,\"cat\":\"%s\",\"name\":\"%s\"," e.fl_ns
           (Trace.json_escape e.fl_cat)
           (Trace.json_escape e.fl_name));
      Trace.add_args buf e.fl_args;
      Buffer.add_string buf "}\n")
    (entries t);
  Buffer.contents buf

let write_jsonl_file t path =
  let oc = open_out path in
  output_string oc (to_jsonl_string t);
  close_out oc
