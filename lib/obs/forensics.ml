(* Forensics bundle: everything an observability handle holds, written
   next to a failing check so the CI artifact is self-describing.  One
   bundle is three files sharing a stem:

     <label>.flight.jsonl   the black-box ring, oldest first
     <label>.trace.json     the Chrome trace ring (Perfetto-loadable)
     <label>.metrics.json   counters, gauges, and histogram summaries

   Files whose source ring is disabled/empty are still written (empty
   ring -> empty JSONL; inert tracer -> empty traceEvents) so a bundle
   always has the same shape. *)

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let dump ~dir ~label obs =
  ensure_dir dir;
  let path suffix = Filename.concat dir (label ^ suffix) in
  let flight_file = path ".flight.jsonl" in
  Trace.write_jsonl_file (Obs.flight obs) flight_file;
  let trace_file = path ".trace.json" in
  Trace.write_chrome_file (Obs.trace obs) trace_file;
  let metrics_file = path ".metrics.json" in
  let oc = open_out metrics_file in
  output_string oc (Metrics.to_json_string (Obs.metrics obs));
  output_char oc '\n';
  close_out oc;
  [ flight_file; trace_file; metrics_file ]
