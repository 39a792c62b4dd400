type t = {
  records : Record.block array;
      (* [unanchored] until an id's persistent record is first asked for *)
  free : Bytes.t; (* bitset: bit i set iff id i is free *)
  mutable free_count : int;
  mutable hint : int; (* no free identifier below this index *)
}

(* Stands in for every id whose anchor was never built: a fresh record
   in all but identity.  Only compared against, never handed out, so
   it is never written. *)
let unanchored = Record.fresh_block (Types.Block_id.of_int 0)

let bit_is_set b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let bit_clear b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) land lnot (1 lsl (i land 7)) land 0xff))

let create ~capacity =
  if capacity <= 0 then invalid_arg "Block_map.create: capacity must be positive";
  {
    records = Array.make capacity unanchored;
    free = Bytes.make ((capacity + 7) / 8) '\xff';
    free_count = capacity;
    hint = 0;
  }

let capacity t = Array.length t.records

let in_range t b =
  let i = Types.Block_id.to_int b in
  i >= 0 && i < Array.length t.records

let anchor t b =
  if not (in_range t b) then
    invalid_arg
      (Format.asprintf "Block_map.anchor: %a out of range" Types.Block_id.pp b);
  let i = Types.Block_id.to_int b in
  let r = t.records.(i) in
  if r != unanchored then r
  else begin
    let r = Record.fresh_block b in
    t.records.(i) <- r;
    r
  end

let alloc_id t =
  if t.free_count = 0 then None
  else begin
    (* skip whole zero bytes from the hint, then probe bits: the hint
       invariant (no free id below it) makes allocation amortised O(1) *)
    let n = Array.length t.records in
    let i = ref t.hint in
    while !i < n && not (bit_is_set t.free !i) do
      if !i land 7 = 0 && Bytes.get t.free (!i lsr 3) = '\000' then i := !i + 8
      else incr i
    done;
    if !i >= n then None
    else begin
      bit_clear t.free !i;
      t.free_count <- t.free_count - 1;
      t.hint <- !i + 1;
      Some (Types.Block_id.of_int !i)
    end
  end

let release_id t b =
  let i = Types.Block_id.to_int b in
  if not (bit_is_set t.free i) then begin
    bit_set t.free i;
    t.free_count <- t.free_count + 1;
    if i < t.hint then t.hint <- i
  end

(* [unanchored.alloc] is false, so a never-touched id counts as free *)
let rebuild_free t =
  Bytes.fill t.free 0 (Bytes.length t.free) '\000';
  let free_count = ref 0 in
  for i = 0 to Array.length t.records - 1 do
    if not t.records.(i).Record.alloc then begin
      bit_set t.free i;
      incr free_count
    end
  done;
  t.free_count <- !free_count;
  t.hint <- 0

let iter t f =
  for i = 0 to Array.length t.records - 1 do
    let r = t.records.(i) in
    if r != unanchored then f r
  done

let allocated_count t = Array.length t.records - t.free_count
