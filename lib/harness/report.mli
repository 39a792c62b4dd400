(** Tables of typed cells for the experiment harness: each cell carries
    the text a reader sees and the raw value the bench JSON records, so
    one printer and one JSON emitter serve every experiment. *)

(** {1 Machine-readable output}

    A minimal JSON value (no external dependency).  Floats serialise at
    full (round-trip) precision; non-finite floats serialise as [null]. *)
type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Compact (single-line) rendering. *)

(** {1 Cells} *)

type cell = { text : string; value : json }

val int : int -> cell
val text : string -> cell

val float : ?digits:int -> ?suffix:string -> float -> cell
(** Printed with [digits] decimals (default 2) and [suffix]; the JSON
    keeps the unrounded value. *)

val vs : ?digits:int -> baseline:float -> float -> cell
(** A throughput with its signed difference against [baseline] (see
    {!pct}) — printed ["92.5 (+2.3%)"] with [digits] decimals (default
    1), recorded as [{"value": 92.5, "diff_pct": 2.27...}]. *)

val yes_no : bool -> cell
(** ["yes"] / ["NO"], recorded as a JSON boolean. *)

val na : cell
(** ["n/a"], recorded as [null]. *)

(** {1 Tables} *)

type table = {
  title : string;
  header : string list;
  rows : cell list list;  (** each row has one cell per header column *)
  quoted : (string * json) list;
      (** values the title quotes, recorded next to the rows *)
}

val table :
  ?quoted:(string * json) list ->
  title:string ->
  header:string list ->
  cell list list ->
  table

val print : Format.formatter -> table -> unit
(** Render an aligned table with a title rule. *)

val to_json : table -> json
(** [{"title": ..., <quoted>..., "rows": [{<header>: <value>, ...}]}]. *)

val pct : baseline:float -> float -> string
(** Percent difference of a throughput against the baseline, signed:
    ["+7.2%"] means 7.2 % slower than the baseline. *)
