module Histogram = Lld_sim.Stats.Histogram

type gauge = { g_name : string; g_help : string; g_read : unit -> int }

type t = {
  mutable gauges : gauge list;  (* reverse registration order *)
  mutable counters : gauge list;  (* reverse registration order *)
  hist_tbl : (string, Histogram.t) Hashtbl.t;
  mutable hist_order : string list;  (* reverse first-use order *)
}

let create () =
  { gauges = []; counters = []; hist_tbl = Hashtbl.create 32; hist_order = [] }

let histogram t name =
  match Hashtbl.find_opt t.hist_tbl name with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.add t.hist_tbl name h;
    t.hist_order <- name :: t.hist_order;
    h

let observe t name v = Histogram.add (histogram t name) v

let histograms t =
  List.rev_map (fun name -> (name, Hashtbl.find t.hist_tbl name)) t.hist_order

let find_histogram t name = Hashtbl.find_opt t.hist_tbl name

let reset_histograms t =
  Hashtbl.iter (fun _ h -> Histogram.reset h) t.hist_tbl

(* Re-registering a name replaces the closure in place, so re-mounting
   the same structures (e.g. recover after create) cannot duplicate
   rows. *)
let upsert rows g =
  if List.exists (fun g0 -> g0.g_name = g.g_name) rows then
    List.map (fun g0 -> if g0.g_name = g.g_name then g else g0) rows
  else g :: rows

let register_gauge t ~name ~help read =
  t.gauges <- upsert t.gauges { g_name = name; g_help = help; g_read = read }

let register_counter t ~name ~help read =
  t.counters <- upsert t.counters { g_name = name; g_help = help; g_read = read }

let sample_gauges t =
  List.rev_map (fun g -> (g.g_name, g.g_read (), g.g_help)) t.gauges

let sample_counters t =
  List.rev_map (fun g -> (g.g_name, g.g_read (), g.g_help)) t.counters

let pp ppf t =
  let counters = sample_counters t in
  if counters <> [] then begin
    Format.fprintf ppf "counters:@,";
    List.iter
      (fun (name, v, help) ->
        Format.fprintf ppf "  %-28s %10d  (%s)@," name v help)
      counters
  end;
  let gauges = sample_gauges t in
  if gauges <> [] then begin
    Format.fprintf ppf "gauges:@,";
    List.iter
      (fun (name, v, help) ->
        Format.fprintf ppf "  %-28s %10d  (%s)@," name v help)
      gauges
  end;
  let hists = histograms t in
  if hists <> [] then begin
    Format.fprintf ppf "latency histograms (virtual ns):@,";
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf "  %-28s %a@," name Histogram.pp h)
      hists
  end;
  if counters = [] && gauges = [] && hists = [] then
    Format.fprintf ppf "(no metrics)@,"

(* Minimal JSON for bench output; [Report.json] lives above us in the
   dependency graph so we emit directly. *)
let json_of_histogram h =
  if Histogram.count h = 0 then "{\"count\":0}"
  else
    Printf.sprintf
      "{\"count\":%d,\"sum_ns\":%d,\"min_ns\":%d,\"max_ns\":%d,\"mean_ns\":%.1f,\"p50_ns\":%d,\"p95_ns\":%d,\"p99_ns\":%d}"
      (Histogram.count h) (Histogram.sum h) (Histogram.min_ns h)
      (Histogram.max_ns h) (Histogram.mean h) (Histogram.p50 h)
      (Histogram.p95 h) (Histogram.p99 h)

let to_json_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"counters\":{";
  List.iteri
    (fun i (name, v, _) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" name v))
    (sample_counters t);
  Buffer.add_string buf "},\"gauges\":{";
  List.iteri
    (fun i (name, v, _) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" name v))
    (sample_gauges t);
  Buffer.add_string buf "},\"histograms\":{";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%s" name (json_of_histogram h)))
    (histograms t);
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* OpenMetrics / Prometheus text exposition.  One family per counter,
   gauge, and histogram; histogram buckets are cumulative with an
   explicit [+Inf]; the output terminates with [# EOF] as the
   OpenMetrics grammar requires.  Names are sanitised into the
   [a-zA-Z_:][a-zA-Z0-9_:]* alphabet (dots become underscores) and
   prefixed with [lld_]. *)

let om_name name =
  let buf = Buffer.create (String.length name + 4) in
  Buffer.add_string buf "lld_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' ->
        Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let om_escape_help s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let om_header buf name kind help =
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind);
  if help <> "" then
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s %s\n" name (om_escape_help help))

let om_histogram buf name h =
  om_header buf name "histogram" "latency histogram (virtual ns)";
  let cum = ref 0 in
  List.iter
    (fun (_, hi, n) ->
      cum := !cum + n;
      (* the top log2 bucket is unbounded: fold it into +Inf below *)
      if hi < max_int then
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name hi !cum))
    (Histogram.nonzero_buckets h);
  Buffer.add_string buf
    (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name (Histogram.count h));
  Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" name (Histogram.sum h));
  Buffer.add_string buf
    (Printf.sprintf "%s_count %d\n" name (Histogram.count h))

let to_openmetrics_string t =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (name, v, help) ->
      let n = om_name name in
      om_header buf n "counter" help;
      Buffer.add_string buf (Printf.sprintf "%s_total %d\n" n v))
    (sample_counters t);
  List.iter
    (fun (name, v, help) ->
      let n = om_name name in
      om_header buf n "gauge" help;
      Buffer.add_string buf (Printf.sprintf "%s %d\n" n v))
    (sample_gauges t);
  List.iter (fun (name, h) -> om_histogram buf (om_name name) h) (histograms t);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
