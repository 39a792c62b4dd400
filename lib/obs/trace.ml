module Clock = Lld_sim.Clock

type category = Op | Disk | Aru | Clean | Recovery | Checkpoint | Fs

let all_categories = [ Op; Disk; Aru; Clean; Recovery; Checkpoint; Fs ]
let num_categories = 7

let category_index = function
  | Op -> 0
  | Disk -> 1
  | Aru -> 2
  | Clean -> 3
  | Recovery -> 4
  | Checkpoint -> 5
  | Fs -> 6

let category_label = function
  | Op -> "op"
  | Disk -> "disk"
  | Aru -> "aru"
  | Clean -> "clean"
  | Recovery -> "recovery"
  | Checkpoint -> "checkpoint"
  | Fs -> "fs"

type arg = I of int | S of string | F of float
type flow_phase = Flow_start | Flow_step | Flow_end

let flow_phase_label = function
  | Flow_start -> "s"
  | Flow_step -> "t"
  | Flow_end -> "f"

type event = {
  ev_name : string;
  ev_cat : category;
  ev_ts_ns : int;
  ev_dur_ns : int;  (* -1 marks an instant event *)
  ev_args : (string * arg) list;
  ev_flow : (flow_phase * int) option;
      (* flow events bind by (name, cat, id) across the trace *)
}

type t = {
  clock : Clock.t;
  enabled : bool;
  cats : bool array;
  ring : event array;  (* valid slots: the last [min count capacity] pushes *)
  mutable head : int;  (* next slot to write *)
  mutable count : int;  (* total events ever pushed *)
}

let dummy_event =
  {
    ev_name = "";
    ev_cat = Op;
    ev_ts_ns = 0;
    ev_dur_ns = -1;
    ev_args = [];
    ev_flow = None;
  }

let disabled =
  {
    clock = Clock.create ();
    enabled = false;
    cats = Array.make num_categories false;
    ring = [||];
    head = 0;
    count = 0;
  }

let create ?(capacity = 65_536) ?(categories = all_categories) ~clock () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  let cats = Array.make num_categories false in
  List.iter (fun c -> cats.(category_index c) <- true) categories;
  {
    clock;
    enabled = true;
    cats;
    ring = Array.make capacity dummy_event;
    head = 0;
    count = 0;
  }

let enabled t = t.enabled
let on t cat = t.enabled && t.cats.(category_index cat)
let count t = t.count
let dropped t = max 0 (t.count - Array.length t.ring)
let now_ns t = Clock.now_ns t.clock

let push t ev =
  t.ring.(t.head) <- ev;
  t.head <- (t.head + 1) mod Array.length t.ring;
  t.count <- t.count + 1

let record t ev = if on t ev.ev_cat then push t ev

(* A zero-duration event at the current virtual time. *)
let mark t cat name flow args =
  if on t cat then
    push t
      {
        ev_name = name;
        ev_cat = cat;
        ev_ts_ns = Clock.now_ns t.clock;
        ev_dur_ns = -1;
        ev_args = args;
        ev_flow = flow;
      }

let instant t cat name args = mark t cat name None args

(* One link in a causality chain: flow events with the same (name, cat,
   id) triple are drawn as connected arrows by Perfetto. *)
let flow t cat name ~phase ~id args = mark t cat name (Some (phase, id)) args

(* Record an already-measured span. *)
let complete t cat name ~ts_ns ~dur_ns args =
  if on t cat then
    push t
      {
        ev_name = name;
        ev_cat = cat;
        ev_ts_ns = ts_ns;
        ev_dur_ns = max 0 dur_ns;
        ev_args = args;
        ev_flow = None;
      }

let clear t =
  t.head <- 0;
  t.count <- 0

(* Events currently held, oldest first. *)
let events t =
  let cap = Array.length t.ring in
  if cap = 0 || t.count = 0 then []
  else begin
    let n = min t.count cap in
    let first = (t.head - n + cap) mod cap in
    List.init n (fun i -> t.ring.((first + i) mod cap))
  end

(* ------------------------------------------------------------------ *)
(* Export.  Chrome trace-event JSON ("X" complete events and "i"
   instants on one pid/tid, timestamps in microseconds) loads directly
   into Perfetto / chrome://tracing; JSONL keeps exact nanosecond
   integers, one event per line, for ad-hoc tooling. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_string_field buf key s =
  Buffer.add_string buf (Printf.sprintf "\"%s\":\"%s\"" key (json_escape s))

let add_args buf args =
  Buffer.add_string buf "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":" (json_escape k));
      match v with
      | I n -> Buffer.add_string buf (string_of_int n)
      | F f ->
        Buffer.add_string buf
          (if Float.is_finite f then Printf.sprintf "%.6g" f else "null")
      | S s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (json_escape s);
        Buffer.add_char buf '"')
    args;
  Buffer.add_char buf '}'

let chrome_event buf ev =
  Buffer.add_char buf '{';
  add_string_field buf "name" ev.ev_name;
  Buffer.add_char buf ',';
  add_string_field buf "cat" (category_label ev.ev_cat);
  Buffer.add_char buf ',';
  (match ev.ev_flow with
  | Some (phase, id) ->
    add_string_field buf "ph" (flow_phase_label phase);
    Buffer.add_string buf (Printf.sprintf ",\"id\":%d" id);
    (* bind the terminating arrow to the enclosing slice's end *)
    if phase = Flow_end then Buffer.add_string buf ",\"bp\":\"e\""
  | None ->
  if ev.ev_dur_ns < 0 then begin
    add_string_field buf "ph" "i";
    Buffer.add_string buf ",\"s\":\"t\""
  end
  else begin
    add_string_field buf "ph" "X";
    Buffer.add_string buf
      (Printf.sprintf ",\"dur\":%.3f" (float_of_int ev.ev_dur_ns /. 1e3))
  end);
  Buffer.add_string buf
    (Printf.sprintf ",\"ts\":%.3f" (float_of_int ev.ev_ts_ns /. 1e3));
  Buffer.add_string buf ",\"pid\":1,\"tid\":1,";
  add_args buf ev.ev_args;
  Buffer.add_char buf '}'

let to_chrome_string t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      chrome_event buf ev)
    (events t);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let to_jsonl_string t =
  let buf = Buffer.create 65536 in
  List.iter
    (fun ev ->
      Buffer.add_char buf '{';
      add_string_field buf "name" ev.ev_name;
      Buffer.add_char buf ',';
      add_string_field buf "cat" (category_label ev.ev_cat);
      Buffer.add_string buf (Printf.sprintf ",\"ts_ns\":%d" ev.ev_ts_ns);
      if ev.ev_dur_ns >= 0 then
        Buffer.add_string buf (Printf.sprintf ",\"dur_ns\":%d" ev.ev_dur_ns);
      (match ev.ev_flow with
      | Some (phase, id) ->
        Buffer.add_char buf ',';
        add_string_field buf "flow" (flow_phase_label phase);
        Buffer.add_string buf (Printf.sprintf ",\"flow_id\":%d" id)
      | None -> ());
      Buffer.add_char buf ',';
      add_args buf ev.ev_args;
      Buffer.add_string buf "}\n")
    (events t);
  Buffer.contents buf

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_chrome_file t path = write_file path (to_chrome_string t)
let write_jsonl_file t path = write_file path (to_jsonl_string t)
