(* Blk's byte kernels and its CRC32c, each against a byte-at-a-time
   reference.  A case raises [Failure] naming the first difference.
   test_util runs the cases natively; byte/blk_byte.ml runs them under
   ocamlrun, where Blk calls the bytecode entry points of its C stubs. *)

module Blk = Lld_util.Blk

let failf fmt = Printf.ksprintf failwith fmt

let check_int what want got =
  if got <> want then failf "%s = %#x, want %#x" what got want

let raises_invalid what msg f =
  match f () with
  | () -> failf "%s did not raise" what
  | exception Invalid_argument m when m = msg -> ()
  | exception Invalid_argument m ->
    failf "%s raised Invalid_argument %S, want %S" what m msg

(* ----------------------------------------------------------- CRC32c *)

(* The canonical Castagnoli check vector and the RFC 3720 (iSCSI)
   appendix B.4 vectors, on both CRC paths and the byte-wise
   reference, over a whole buffer and over a [sub] view whose window
   starts inside a larger one. *)
let crc32c_vectors () =
  List.iter
    (fun (name, data, want) ->
      let b = Bytes.of_string data in
      let n = String.length data in
      let inner = Blk.sub (Blk.create (n + 5)) 3 n in
      Blk.blit_from_bytes b 0 inner 0 n;
      List.iter
        (fun (path, got) -> check_int (name ^ ", " ^ path) want got)
        [
          ("crc32c", Blk.crc32c (Blk.of_bytes b));
          ("slice-by-8", Blk.crc32c_slice8 (Blk.of_bytes b));
          ("byte-wise", Blk.crc32c_bytes b);
          ("crc32c of a sub view", Blk.crc32c inner);
          ("slice-by-8 of a sub view", Blk.crc32c_slice8 inner);
        ])
    [
      ("123456789", "123456789", 0xe3069283);
      ("32 x 00", String.make 32 '\000', 0x8a9136aa);
      ("32 x ff", String.make 32 '\xff', 0x62a8ab43);
      ("0..31", String.init 32 Char.chr, 0x46dd794e);
      ("31..0", String.init 32 (fun i -> Char.chr (31 - i)), 0x113fdb5c);
    ];
  let v = Blk.of_string "123456789" in
  (* incremental == one-shot *)
  let a = Blk.crc32c ~len:4 v in
  check_int "incremental" 0xe3069283 (Blk.crc32c ~init:a ~pos:4 ~len:5 v);
  check_int "empty" 0 (Blk.crc32c ~len:0 v);
  (* sensitive to any flipped byte *)
  let w = Blk.copy v in
  Blk.set w 4 '\000';
  if Blk.crc32c w = 0xe3069283 then failf "crc32c blind to a changed byte";
  (* a window outside the data is refused, for bytes as for views *)
  let b = Bytes.of_string "123456789" in
  check_int "crc32c_bytes window agrees"
    (Blk.crc32c ~pos:4 ~len:5 v)
    (Blk.crc32c_bytes ~pos:4 ~len:5 b);
  List.iter
    (fun (pos, len) ->
      raises_invalid
        (Printf.sprintf "crc32c ~pos:%d ~len:%d" pos len)
        "Blk.crc32c"
        (fun () -> ignore (Blk.crc32c ~pos ~len v));
      raises_invalid
        (Printf.sprintf "crc32c_bytes ~pos:%d ~len:%d" pos len)
        "Blk.crc32c_bytes"
        (fun () -> ignore (Blk.crc32c_bytes ~pos ~len b)))
    [ (4, 64); (-3, 2); (0, -1) ]

(* ---------------------------------------------------------- kernels *)

let size = 48
let margin = 3
let sentinel = '\xa5'

(* Every byte value, bytes of 0x80 and above included. *)
let src = Bytes.init size (fun i -> Char.chr (((i * 73) + 41) land 0xff))

(* A [size]-byte window at offset [margin] of a sentinel-filled buffer:
   (the whole buffer, the window). *)
let window () =
  let whole = Blk.create (size + (2 * margin)) in
  for i = 0 to Blk.length whole - 1 do
    Blk.set whole i sentinel
  done;
  (whole, Blk.sub whole margin size)

(* A window holding [src]. *)
let filled () =
  let whole, v = window () in
  Bytes.iteri (fun i c -> Blk.set v i c) src;
  (whole, v)

(* Byte-wise reads, so that no check leans on a kernel under test. *)
let bytes_of_view v pos len = Bytes.init len (fun i -> Blk.get v (pos + i))
let all_bytes v = bytes_of_view v 0 (Blk.length v)

let same_view what (whole, _) (ref_whole, _) =
  if not (Bytes.equal (all_bytes whole) (all_bytes ref_whole)) then
    failf "%s" what

let same_bytes what got want =
  if not (Bytes.equal got want) then failf "%s" what

(* Lexicographic by [Char.compare] a byte at a time, then shorter
   first. *)
let compare_reference a b =
  let n = min (Blk.length a) (Blk.length b) in
  let rec go i =
    if i = n then Int.compare (Blk.length a) (Blk.length b)
    else
      match Char.compare (Blk.get a i) (Blk.get b i) with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

(* [equal] and the sign of [compare], both ways round. *)
let check_order what a b =
  let want = compare_reference a b in
  if Blk.equal a b <> (want = 0) then
    failf "%s: equal = %b, byte-wise %b" what (Blk.equal a b) (want = 0);
  List.iter
    (fun (order, got, want) ->
      if Int.compare got 0 <> Int.compare want 0 then
        failf "%s: compare %s = %d, byte-wise %d" what order got want)
    [ ("a b", Blk.compare a b, want); ("b a", Blk.compare b a, -want) ]

(* Every kernel call against a byte loop, for every length 0-33 (word
   and tail boundaries on either side) at source and destination
   offsets 0-9, on [sub] views whose window starts inside a larger
   buffer.  Every byte outside the written range keeps its sentinel. *)
let bulk_copies () =
  for len = 0 to 33 do
    for so = 0 to 9 do
      for d = 0 to 9 do
        let case name =
          Printf.sprintf "%s len=%d src=%d dst=%d" name len so d
        in
        (* Bytes -> view *)
        let got = window () and want = window () in
        Blk.blit_from_bytes src so (snd got) d len;
        for i = 0 to len - 1 do
          Blk.set (snd want) (d + i) (Bytes.get src (so + i))
        done;
        same_view (case "blit_from_bytes") got want;
        (* view -> Bytes *)
        let _, v = filled () in
        let got = Bytes.make size sentinel in
        let want = Bytes.copy got in
        Blk.blit_to_bytes v so got d len;
        for i = 0 to len - 1 do
          Bytes.set want (d + i) (Blk.get v (so + i))
        done;
        same_bytes (case "blit_to_bytes") got want;
        (* view -> view of another buffer *)
        let got = window () and want = window () in
        Blk.blit v so (snd got) d len;
        for i = 0 to len - 1 do
          Blk.set (snd want) (d + i) (Blk.get v (so + i))
        done;
        same_view (case "blit") got want;
        (* within one buffer: the ranges overlap forwards when src < dst
           and backwards when src > dst *)
        let got = filled () and want = filled () in
        Blk.blit (snd got) so (snd got) d len;
        Bytes.iteri
          (fun i c -> Blk.set (snd want) (d + i) c)
          (bytes_of_view (snd want) so len);
        same_view (case "blit within one buffer") got want;
        (* a window and its copy elsewhere; then the copy with one byte
           moved across 0x80 at each position in turn; then the copy
           one byte shorter *)
        let a = Blk.sub v so len in
        let b = Blk.sub (snd got) d len in
        Blk.blit a 0 b 0 len;
        check_order (case "equal copy") a b;
        for p = 0 to len - 1 do
          let c = Blk.get b p in
          Blk.set b p (Char.chr (Char.code c lxor 0x80));
          check_order (case (Printf.sprintf "byte %d changed" p)) a b;
          Blk.set b p c
        done;
        if len > 0 then
          check_order (case "copy one byte shorter") a (Blk.sub b 0 (len - 1))
      done;
      let case name = Printf.sprintf "%s len=%d at %d" name len so in
      let got = filled () and want = filled () in
      Blk.fill (Blk.sub (snd got) so len) '\x5a';
      for i = 0 to len - 1 do
        Blk.set (snd want) (so + i) '\x5a'
      done;
      same_view (case "fill") got want;
      let _, v = filled () in
      let want = bytes_of_view v so len in
      same_bytes (case "to_bytes") (Blk.to_bytes (Blk.sub v so len)) want;
      let c = Blk.copy (Blk.sub v so len) in
      same_bytes (case "copy") (all_bytes c) want;
      let r = Blk.Reader.of_view ~pos:so v in
      same_bytes (case "Reader.raw_bytes") (Blk.Reader.raw_bytes r len) want;
      check_int (case "Reader.raw_bytes advances") (so + len)
        (Blk.Reader.pos r);
      (* a u16 length at [so], then the string *)
      let _, v = filled () in
      Blk.set_u16 v so len;
      let r = Blk.Reader.of_view ~pos:so v in
      if Blk.Reader.string r <> Bytes.to_string (bytes_of_view v (so + 2) len)
      then failf "%s" (case "Reader.string");
      (* the writer's position plays the destination offset *)
      let data = Bytes.sub src so len in
      let got = window () and want = window () in
      let w = Blk.Writer.of_view (snd got) in
      for i = 0 to so - 1 do
        Blk.Writer.u8 w i;
        Blk.set_u8 (snd want) i i
      done;
      Blk.Writer.raw_bytes w data;
      Bytes.iteri (fun i c -> Blk.set (snd want) (so + i) c) data;
      same_view (case "Writer.raw_bytes") got want;
      let got = window () and want = window () in
      let w = Blk.Writer.of_view (Blk.sub (snd got) so (size - so)) in
      Blk.Writer.string w (Bytes.to_string data);
      Blk.set_u16 (snd want) so len;
      Bytes.iteri (fun i c -> Blk.set (snd want) (so + 2 + i) c) data;
      same_view (case "Writer.string") got want
    done;
    let b = Bytes.sub src 0 len in
    same_bytes
      (Printf.sprintf "of_bytes len=%d" len)
      (all_bytes (Blk.of_bytes b))
      b
  done

(* A call whose range does not fit raises [Invalid_argument] before any
   byte moves: the whole destination buffer, its sentinel margins
   included, and the [bytes] are unchanged. *)
let out_of_range () =
  List.iter
    (fun (what, msg, f) ->
      let whole, dst = filled () in
      let before = all_bytes whole in
      let b = Bytes.copy src in
      raises_invalid what msg (fun () -> f dst b);
      same_bytes (what ^ ": the view changed") (all_bytes whole) before;
      same_bytes (what ^ ": the bytes changed") b src)
    [
      ("blit past the source's end", "Blk.blit", fun dst _ ->
        Blk.blit (snd (filled ())) 40 dst 0 9);
      ("blit past the destination's end", "Blk.blit", fun dst _ ->
        Blk.blit (snd (filled ())) 0 dst 40 9);
      ("blit within one buffer past its end", "Blk.blit", fun dst _ ->
        Blk.blit dst 0 dst 1 size);
      ("blit of a negative length", "Blk.blit", fun dst _ ->
        Blk.blit dst 0 dst 1 (-1));
      ("blit from a negative offset", "Blk.blit", fun dst _ ->
        Blk.blit dst (-1) dst 0 4);
      ("blit to a negative offset", "Blk.blit", fun dst _ ->
        Blk.blit dst 0 dst (-1) 4);
      ("blit_from_bytes past the bytes' end", "Blk.blit_from_bytes",
       fun dst b -> Blk.blit_from_bytes b 40 dst 0 9);
      ("blit_from_bytes past the view's end", "Blk.blit_from_bytes",
       fun dst b -> Blk.blit_from_bytes b 0 dst 40 9);
      ("blit_from_bytes of a negative length", "Blk.blit_from_bytes",
       fun dst b -> Blk.blit_from_bytes b 0 dst 0 (-1));
      ("blit_to_bytes past the view's end", "Blk.blit_to_bytes", fun dst b ->
        Blk.blit_to_bytes dst 40 b 0 9);
      ("blit_to_bytes past the bytes' end", "Blk.blit_to_bytes", fun dst b ->
        Blk.blit_to_bytes dst 0 b 40 9);
      ("blit_to_bytes from a negative offset", "Blk.blit_to_bytes",
       fun dst b -> Blk.blit_to_bytes dst (-1) b 0 4);
      ("Writer.raw past a fixed view", "Blk.Writer: view overflow",
       fun dst _ ->
        Blk.Writer.raw
          (Blk.Writer.of_view (Blk.sub dst 0 8))
          (Blk.sub dst 8 9));
      ("Writer.raw_bytes past a fixed view", "Blk.Writer: view overflow",
       fun dst b ->
        Blk.Writer.raw_bytes (Blk.Writer.of_view (Blk.sub dst 0 8))
          (Bytes.sub b 0 9));
    ]

let all =
  [
    ("crc32c check vector", crc32c_vectors);
    ("bulk copies match a byte loop", bulk_copies);
    ("out-of-range kernel calls move nothing", out_of_range);
  ]
