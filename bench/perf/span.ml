(* In-memory spans around the calls the benchmark makes into each layer
   of the library.  A span carries its name, wall and virtual start/end,
   its parent span, and the id of the workload op it belongs to (every
   span of one op shares it; 0 = outside any op).  The benchmark is
   single-threaded, so spans nest strictly and a span's self time is its
   duration minus the durations of its direct children.

   Recording is off unless [start] was called: the untraced run goes
   through the same wrappers at the cost of one flag test. *)

module Clock = Lld_sim.Clock

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* interned span names *)
let name_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let name_strs : string Lld_util.Vec.t = Lld_util.Vec.create ()

let name s =
  match Hashtbl.find_opt name_ids s with
  | Some i -> i
  | None ->
    let i = Lld_util.Vec.length name_strs in
    Hashtbl.add name_ids s i;
    Lld_util.Vec.push name_strs s;
    i

let name_str i = Lld_util.Vec.get name_strs i
let names () = Lld_util.Vec.to_list name_strs

(* struct-of-arrays store: one int column per field *)
type cols = {
  mutable nm : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable w0 : int array;
  mutable w1 : int array;
  mutable v0 : int array;
  mutable v1 : int array;
}

let empty () =
  let z () = Array.make 4096 0 in
  { nm = z (); parent = z (); op = z (); w0 = z (); w1 = z (); v0 = z (); v1 = z () }

let c = ref (empty ())
let n = ref 0
let on = ref false
let top = ref (-1)
let cur_op = ref 0
let next_op = ref 0
let vclock = ref (Clock.create ())

let start ~clock =
  c := empty ();
  n := 0;
  top := -1;
  cur_op := 0;
  next_op := 0;
  vclock := clock;
  on := true

let stop () = on := false

(* resume after [stop] without dropping the spans recorded so far *)
let resume () = on := true

(* the virtual clock spans read from now on *)
let set_clock clock = vclock := clock

let grow () =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  let x = !c in
  c :=
    {
      nm = g x.nm;
      parent = g x.parent;
      op = g x.op;
      w0 = g x.w0;
      w1 = g x.w1;
      v0 = g x.v0;
      v1 = g x.v1;
    }

let enter id =
  if !n = Array.length !c.nm then grow ();
  let x = !c and i = !n in
  x.nm.(i) <- id;
  x.parent.(i) <- !top;
  x.op.(i) <- !cur_op;
  x.v0.(i) <- Clock.now_ns !vclock;
  x.w0.(i) <- now_ns ();
  top := i;
  incr n;
  i

let leave i =
  let x = !c in
  x.w1.(i) <- now_ns ();
  x.v1.(i) <- Clock.now_ns !vclock;
  top := x.parent.(i)

let wrap id f =
  if not !on then f ()
  else
    let i = enter id in
    match f () with
    | v ->
      leave i;
      v
    | exception e ->
      leave i;
      raise e

(* A workload op: a root span under a fresh op id, which every span
   opened inside it inherits. *)
let op id f =
  if not !on then f ()
  else begin
    incr next_op;
    cur_op := !next_op;
    Fun.protect ~finally:(fun () -> cur_op := 0) (fun () -> wrap id f)
  end

(* Tag the spans that follow with a fresh op id without opening a root
   span — for ops whose calls interleave with other ops' (an engine
   client's ARU).  Returns the id. *)
let fresh_op () =
  incr next_op;
  !next_op

let set_op id = cur_op := id

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)

type agg = { calls : int; self_w : int; self_v : int; total_w : int }

let no_calls = { calls = 0; self_w = 0; self_v = 0; total_w = 0 }

(* per-span self times: duration minus the children's durations *)
let self_times () =
  let x = !c in
  let sw = Array.init !n (fun i -> x.w1.(i) - x.w0.(i)) in
  let sv = Array.init !n (fun i -> x.v1.(i) - x.v0.(i)) in
  for i = 0 to !n - 1 do
    let p = x.parent.(i) in
    if p >= 0 then begin
      sw.(p) <- sw.(p) - (x.w1.(i) - x.w0.(i));
      sv.(p) <- sv.(p) - (x.v1.(i) - x.v0.(i))
    end
  done;
  (sw, sv)

let aggregate () =
  let x = !c in
  let sw, sv = self_times () in
  let tbl = Hashtbl.create 64 in
  for i = 0 to !n - 1 do
    let a = Option.value (Hashtbl.find_opt tbl x.nm.(i)) ~default:no_calls in
    Hashtbl.replace tbl x.nm.(i)
      {
        calls = a.calls + 1;
        self_w = a.self_w + sw.(i);
        self_v = a.self_v + sv.(i);
        total_w = a.total_w + x.w1.(i) - x.w0.(i);
      }
  done;
  fun s ->
    match Hashtbl.find_opt name_ids s with
    | None -> no_calls
    | Some id -> Option.value (Hashtbl.find_opt tbl id) ~default:no_calls

(* Sum of self times over each op's spans against the op's root span:
   the largest relative difference over all ops rooted by a [op] span
   (0 when there are none). *)
let self_sum_error () =
  let x = !c in
  let sw, _ = self_times () in
  let sums = Hashtbl.create 1024 and roots = Hashtbl.create 1024 in
  for i = 0 to !n - 1 do
    let o = x.op.(i) in
    if o > 0 then begin
      Hashtbl.replace sums o
        (sw.(i) + Option.value (Hashtbl.find_opt sums o) ~default:0);
      if x.parent.(i) < 0 then Hashtbl.replace roots o (x.w1.(i) - x.w0.(i))
    end
  done;
  Hashtbl.fold
    (fun o dur worst ->
      let s = Option.value (Hashtbl.find_opt sums o) ~default:0 in
      if dur <= 0 then worst
      else Float.max worst (Float.abs (float_of_int (s - dur)) /. float_of_int dur))
    roots 0.

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

(* Spans written to a trace file; the analysis above always covers all
   of them. *)
let max_exported = 20_000

let layer_of s =
  match String.index_opt s '.' with Some i -> String.sub s 0 i | None -> s

(* [async] are ops that are not root spans: (op id, label, wall start,
   wall end, virtual start, virtual end), drawn as async slices. *)
let write_chrome ?(async = []) path =
  let x = !c in
  let sw, sv = self_times () in
  let oc = open_out path in
  let first = ref true in
  let emit s =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc s
  in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  emit
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"wall \
     clock\"}}";
  emit
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"virtual \
     clock\"}}";
  let base_w = if !n > 0 then x.w0.(0) else 0 in
  let us ns = float_of_int ns /. 1e3 in
  let shown = min !n max_exported in
  for i = 0 to shown - 1 do
    let nm = name_str x.nm.(i) in
    let args =
      Printf.sprintf
        "{\"span\":%d,\"parent\":%d,\"op\":%d,\"self_us\":%.3f,\"self_vus\":%.3f}"
        i x.parent.(i) x.op.(i) (us sw.(i)) (us sv.(i))
    in
    emit
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}"
         nm (layer_of nm)
         (us (x.w0.(i) - base_w))
         (us (x.w1.(i) - x.w0.(i)))
         args);
    emit
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}"
         nm (layer_of nm) (us x.v0.(i))
         (us (x.v1.(i) - x.v0.(i)))
         args)
  done;
  let last_w = if shown > 0 then x.w1.(shown - 1) else max_int in
  List.iter
    (fun (o, label, w0, w1, v0, v1) ->
      if w1 <= last_w then begin
        let ev pid ph ts =
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"%s\",\"id\":%d,\"pid\":%d,\"tid\":1,\"ts\":%.3f}"
               label ph o pid ts)
        in
        ev 1 "b" (us (w0 - base_w));
        ev 1 "e" (us (w1 - base_w));
        ev 2 "b" (us v0);
        ev 2 "e" (us v1)
      end)
    async;
  output_string oc
    (Printf.sprintf "\n],\"otherData\":{\"spans\":%d,\"exported\":%d}}\n" !n
       shown);
  close_out oc
