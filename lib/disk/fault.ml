type crash =
  | After_writes of int
  | During_write of { write_index : int; keep_bytes : int }

exception Crashed
exception Media_error of { offset : int }

type t = {
  mutable crash : crash option;
  mutable writes_until_crash : int;
      (* writes remaining before the crash point; meaningful when crash <> None *)
  mutable crashed : bool;
  mutable bad : (int * int) list; (* (offset, length) *)
  mutable pending_corruption : (int * int) list;
      (* (offset, length) ranges queued by [corrupt_sector], oldest
         first; {!Disk} drains them onto the raw store *)
}

let none () =
  {
    crash = None;
    writes_until_crash = 0;
    crashed = false;
    bad = [];
    pending_corruption = [];
  }

let schedule_crash t crash =
  t.crash <- Some crash;
  t.writes_until_crash <-
    (match crash with
    | After_writes n -> n
    | During_write { write_index; _ } -> write_index)

let create ?crash () =
  let t = none () in
  (match crash with None -> () | Some c -> schedule_crash t c);
  t

let mark_bad t ~offset ~length =
  if length <= 0 then invalid_arg "Fault.mark_bad: non-positive length";
  t.bad <- (offset, length) :: t.bad

let clear_bad t = t.bad <- []

let corrupt_sector t ~offset ~length =
  if length <= 0 then invalid_arg "Fault.corrupt_sector: non-positive length";
  t.pending_corruption <- t.pending_corruption @ [ (offset, length) ]

let take_corruption t =
  let pending = t.pending_corruption in
  t.pending_corruption <- [];
  pending

let corruption_pending t = t.pending_corruption <> []
let crashed t = t.crashed

let reset_after_recovery t =
  t.crashed <- false;
  t.crash <- None

let on_write t ~length =
  if t.crashed then raise Crashed;
  match t.crash with
  | None -> `Ok
  | Some (After_writes _) ->
    if t.writes_until_crash <= 0 then begin
      t.crashed <- true;
      raise Crashed
    end
    else begin
      t.writes_until_crash <- t.writes_until_crash - 1;
      `Ok
    end
  | Some (During_write { keep_bytes; _ }) ->
    if t.writes_until_crash > 0 then begin
      t.writes_until_crash <- t.writes_until_crash - 1;
      `Ok
    end
    else begin
      t.crashed <- true;
      `Torn (min keep_bytes length)
    end

let overlaps (boff, blen) ~offset ~length =
  offset < boff + blen && boff < offset + length

let check_read t ~offset ~length =
  List.iter
    (fun range ->
      if overlaps range ~offset ~length then
        raise (Media_error { offset = fst range }))
    t.bad
