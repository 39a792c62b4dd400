module Lru = Lld_util.Lru
module Vec = Lld_util.Vec
module Blk = Lld_util.Blk
module Arena = Lld_util.Arena

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  Lru.add c 1 "a";
  Lru.add c 2 "b";
  Alcotest.(check (option string)) "find 1" (Some "a") (Lru.find c 1);
  Lru.add c 3 "c" (* evicts 2, the least recently used *);
  Alcotest.(check (option string)) "2 evicted" None (Lru.find c 2);
  Alcotest.(check (option string)) "1 kept" (Some "a") (Lru.find c 1);
  Alcotest.(check (option string)) "3 kept" (Some "c") (Lru.find c 3);
  Alcotest.(check int) "evictions" 1 (Lru.evictions c)

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  Lru.add c 1 "a";
  Lru.add c 1 "a2";
  Alcotest.(check (option string)) "replaced" (Some "a2") (Lru.find c 1);
  Alcotest.(check int) "length" 1 (Lru.length c)

let test_lru_remove_clear () =
  let c = Lru.create ~capacity:4 in
  Lru.add c 1 "a";
  Lru.add c 2 "b";
  Lru.remove c 1;
  Alcotest.(check (option string)) "removed" None (Lru.find c 1);
  Alcotest.(check int) "length" 1 (Lru.length c);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check (option string)) "gone" None (Lru.find c 2)

let test_lru_remove_range () =
  let c = Lru.create ~capacity:16 in
  for k = 0 to 9 do
    Lru.add c k (string_of_int k)
  done;
  (* small range: the per-key path *)
  Lru.remove_range c ~lo:2 ~hi:4;
  Alcotest.(check int) "length after small range" 7 (Lru.length c);
  Alcotest.(check (option string)) "2 gone" None (Lru.find c 2);
  Alcotest.(check (option string)) "4 gone" None (Lru.find c 4);
  Alcotest.(check (option string)) "5 kept" (Some "5") (Lru.find c 5);
  (* huge range: the list-walk path (range far exceeds occupancy) *)
  Lru.remove_range c ~lo:0 ~hi:1_000_000;
  Alcotest.(check int) "emptied" 0 (Lru.length c);
  (* empty / inverted ranges are no-ops *)
  Lru.add c 1 "a";
  Lru.remove_range c ~lo:5 ~hi:4;
  Alcotest.(check (option string)) "inverted range no-op" (Some "a")
    (Lru.find c 1)

let test_lru_mem_no_touch () =
  let c = Lru.create ~capacity:2 in
  Lru.add c 1 "a";
  Lru.add c 2 "b";
  (* mem must not refresh recency: 1 stays the eviction candidate *)
  Alcotest.(check bool) "mem" true (Lru.mem c 1);
  Lru.add c 3 "c";
  Alcotest.(check (option string)) "1 evicted" None (Lru.find c 1)

let test_lru_invalid_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Lru.create: capacity must be positive") (fun () ->
      ignore (Lru.create ~capacity:0))

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  Alcotest.(check bool) "no last" true (Vec.last v = None);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check bool) "last" true (Vec.last v = Some 99);
  Vec.set v 42 999;
  Alcotest.(check int) "set" 999 (Vec.get v 42);
  Alcotest.(check (list int)) "of_list/to_list" [ 1; 2; 3 ]
    (Vec.to_list (Vec.of_list [ 1; 2; 3 ]))

let test_vec_truncate () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  Vec.truncate v 3;
  Alcotest.(check (list int)) "truncated" [ 1; 2; 3 ] (Vec.to_list v);
  Vec.truncate v 10 (* no-op *);
  Alcotest.(check int) "no-op" 3 (Vec.length v);
  Vec.push v 9;
  Alcotest.(check (list int)) "push after truncate" [ 1; 2; 3; 9 ]
    (Vec.to_list v);
  Alcotest.check_raises "negative" (Invalid_argument "Vec.truncate: negative length")
    (fun () -> Vec.truncate v (-1))

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> Vec.set v (-1) 0)

let vec_model =
  QCheck.Test.make ~name:"vec behaves like a list" ~count:200
    QCheck.(small_list small_int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs && Vec.length v = List.length xs)

(* remove_range must behave exactly like per-key removal, including its
   effect on recency order (observed through subsequent evictions). *)
let lru_remove_range_model =
  QCheck.Test.make ~name:"lru remove_range = per-key remove" ~count:300
    QCheck.(
      quad (int_range 1 8)
        (small_list (pair (int_range 0 20) small_int))
        (pair (int_range 0 20) (int_range 0 20))
        (small_list (pair (int_range 0 20) small_int)))
    (fun (cap, ops, (lo, hi), after) ->
      let fill c = List.iter (fun (k, v) -> Lru.add c k v) ops in
      let a = Lru.create ~capacity:cap in
      let b = Lru.create ~capacity:cap in
      fill a;
      fill b;
      Lru.remove_range a ~lo ~hi;
      for k = lo to hi do
        Lru.remove b k
      done;
      (* drive more churn so eviction order differences would surface *)
      List.iter (fun (k, v) -> Lru.add a k v) after;
      List.iter (fun (k, v) -> Lru.add b k v) after;
      let same =
        Lru.length a = Lru.length b
        && List.for_all (fun k -> Lru.find a k = Lru.find b k)
             (List.init 21 Fun.id)
      in
      same)

let lru_churn =
  QCheck.Test.make ~name:"lru never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (pair (int_range 0 20) small_int)))
    (fun (cap, ops) ->
      let c = Lru.create ~capacity:cap in
      List.iter (fun (k, v) -> Lru.add c k v) ops;
      Lru.length c <= cap)

(* ------------------------------------------------------------- Blk *)

let test_blk_sub_aliases () =
  (* The load-bearing property of the zero-copy path: [sub] is a view,
     not a copy.  Mutations through either window must be visible
     through the other. *)
  let t = Blk.of_string "abcdefgh" in
  let v = Blk.sub t 2 4 in
  Alcotest.(check string) "window" "cdef" (Blk.to_string v);
  Blk.set v 0 'X';
  Alcotest.(check string) "write through sub visible in parent" "abXdefgh"
    (Blk.to_string t);
  Blk.set t 3 'Y';
  Alcotest.(check string) "write through parent visible in sub" "XYef"
    (Blk.to_string v);
  (* nested sub composes offsets *)
  let vv = Blk.sub v 1 2 in
  Alcotest.(check string) "nested sub" "Ye" (Blk.to_string vv)

let test_blk_copy_detaches () =
  let t = Blk.of_string "abcd" in
  let c = Blk.copy (Blk.sub t 1 2) in
  Blk.set t 1 'Z';
  Alcotest.(check string) "copy unaffected by source mutation" "bc"
    (Blk.to_string c);
  Blk.set c 0 'Q';
  Alcotest.(check string) "source unaffected by copy mutation" "aZcd"
    (Blk.to_string t)

let test_blk_blit_and_bounds () =
  let a = Blk.of_string "0123456789" in
  let b = Blk.create 10 in
  Blk.blit a 2 b 5 3;
  Alcotest.(check string) "blit" "\000\000\000\000\000234\000\000"
    (Blk.to_string b);
  Alcotest.check_raises "sub oob" (Invalid_argument "Blk.sub") (fun () ->
      ignore (Blk.sub a 8 3));
  Alcotest.check_raises "blit oob" (Invalid_argument "Blk.blit") (fun () ->
      Blk.blit a 8 b 0 3);
  (* bytes interop *)
  let bytes = Bytes.of_string "xxxx" in
  Blk.blit_to_bytes a 0 bytes 1 3;
  Alcotest.(check string) "blit_to_bytes" "x012" (Bytes.to_string bytes);
  Blk.blit_from_bytes (Bytes.of_string "AB") 0 b 0 2;
  Alcotest.(check string) "blit_from_bytes" "AB" (Blk.to_string (Blk.sub b 0 2))

(* Each width's little-endian bytes, assembled and split by hand. *)
let le_bytes n v =
  String.init n (fun k -> Char.chr ((v lsr (8 * k)) land 0xff))

let le_bytes64 v =
  String.init 8 (fun k ->
      Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff))

(* Fixed fields, then a round trip of every width at every in-range
   offset of a [sub] view: the bytes are little-endian, no byte outside
   the field moves, and values with the top bit set survive. *)
let test_blk_scalars () =
  let t = Blk.create 16 in
  Blk.set_u16 t 0 0xfffe;
  Blk.set_u32 t 2 0xdeadbeef;
  Blk.set_u64 t 6 0x1122334455667788L;
  Alcotest.(check int) "u16" 0xfffe (Blk.get_u16 t 0);
  Alcotest.(check int) "u32" 0xdeadbeef (Blk.get_u32 t 2);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Blk.get_u64 t 6);
  (* little-endian layout, the same as the bytes accessors' *)
  let b = Bytes.make 4 '\000' in
  Blk.set_u32_bytes b 0 0xdeadbeef;
  Alcotest.(check string) "LE layout" (Bytes.to_string b)
    (Blk.to_string (Blk.sub t 2 4));
  let size = 21 in
  let view () =
    let whole = Blk.create (size + 6) in
    Blk.fill whole '\xa5';
    (whole, Blk.sub whole 5 size)
  in
  let only_field what whole at want =
    (* [want] at [5 + at] of [whole], every other byte untouched *)
    let expected = Bytes.make (size + 6) '\xa5' in
    Bytes.blit_string want 0 expected (5 + at) (String.length want);
    if Blk.to_string whole <> Bytes.to_string expected then
      Alcotest.failf "%s: wrong bytes" what
  in
  let ints n =
    [ 0; 1; 0x5a; (1 lsl ((8 * n) - 1)) lor 0x81; (1 lsl (8 * n)) - 1 ]
  in
  List.iter
    (fun (n, get, set) ->
      for at = 0 to size - n do
        List.iter
          (fun x ->
            let what = Printf.sprintf "u%d %#x at %d" (8 * n) x at in
            let whole, v = view () in
            set v at x;
            only_field what whole at (le_bytes n x);
            Alcotest.(check int) what x (get v at))
          (ints n)
      done)
    [ (2, Blk.get_u16, Blk.set_u16); (4, Blk.get_u32, Blk.set_u32) ];
  for at = 0 to size - 8 do
    List.iter
      (fun x ->
        let what = Printf.sprintf "u64 %Lx at %d" x at in
        let whole, v = view () in
        Blk.set_u64 v at x;
        only_field what whole at (le_bytes64 x);
        Alcotest.(check int64) what x (Blk.get_u64 v at))
      [
        0L; 1L; 0x0102030405060708L; Int64.min_int; -1L; 0x8000_0000_0000_0081L;
      ]
  done;
  (* the top bit of a u32 reads back as a non-negative int, and a wide
     or negative int keeps only its low bits *)
  let _, v = view () in
  Blk.set_u32 v 3 0xffff_ffff;
  Alcotest.(check int) "u32 top bit non-negative" 0xffff_ffff (Blk.get_u32 v 3);
  Blk.set_u32 v 3 0x1_2345_6789;
  Alcotest.(check int) "set_u32 keeps low bits" 0x2345_6789 (Blk.get_u32 v 3);
  Blk.set_u32 v 3 (-2);
  Alcotest.(check int) "set_u32 of -2" 0xffff_fffe (Blk.get_u32 v 3);
  Blk.set_u16 v 3 0x1_fffe;
  Alcotest.(check int) "set_u16 keeps low bits" 0xfffe (Blk.get_u16 v 3);
  let w = Blk.Writer.create () in
  Blk.Writer.u32 w 0x1_2345_6789;
  Blk.Writer.u32 w (-2);
  Blk.Writer.u16 w (-1);
  Blk.Writer.u64 w Int64.min_int;
  Alcotest.(check string) "writer keeps low bits"
    (le_bytes 4 0x2345_6789 ^ le_bytes 4 0xffff_fffe ^ "\xff\xff"
   ^ le_bytes64 Int64.min_int)
    (Blk.to_string (Blk.Writer.contents w));
  let r = Blk.Reader.of_view (Blk.Writer.contents w) in
  Alcotest.(check int) "reader u32" 0x2345_6789 (Blk.Reader.u32 r);
  Alcotest.(check int) "reader u32 top bit" 0xffff_fffe (Blk.Reader.u32 r);
  Alcotest.(check int) "reader u16" 0xffff (Blk.Reader.u16 r);
  Alcotest.(check int64) "reader u64 bit 63" Int64.min_int (Blk.Reader.u64 r)

let test_blk_bytes_accessors () =
  let b = Bytes.make 8 '\000' in
  Bytes.set_uint16_le b 0 0xfffe;
  Blk.set_u32_bytes b 2 0x1deadbeef (* only the low 32 bits are stored *);
  Alcotest.(check string) "layout" "\254\255\239\190\173\222\000\000"
    (Bytes.to_string b);
  Alcotest.(check int) "u16" 0xfffe (Bytes.get_uint16_le b 0);
  Alcotest.(check int) "u32 unsigned" 0xdeadbeef (Blk.get_u32_bytes b 2)

(* Golden values pin the checkpoint-chunk and JLD checksum: every
   length through the word loop and the byte tail, and an unaligned
   window. *)
let test_blk_hash64_golden () =
  let data = Bytes.init 67 (fun i -> Char.chr ((i * 37 + 11) land 0xff)) in
  let v = Blk.of_bytes data in
  List.iter
    (fun (len, h) ->
      Alcotest.(check int64) (Printf.sprintf "hash64 len=%d" len) h
        (Blk.hash64 ~len v))
    [
      (0, 0xcbf29ce484222325L);
      (1, 0xaf63c64c8601c72aL);
      (7, 0xfcf25e868166b7a9L);
      (8, 0x648a88b16455972aL);
      (9, 0x2cfd5e6d7d6fbf7bL);
      (16, 0x86daced2b757e77bL);
      (23, 0x7d8bf1fbf5f07e9fL);
      (24, 0x7d92f67d02e53b60L);
      (67, 0xb27b60653f63d199L);
    ];
  Alcotest.(check int64) "hash64 window" 0x375f45ddcd294751L
    (Blk.hash64 ~pos:3 ~len:29 v)

let test_blk_hash64_stable () =
  let b = Blk.of_string "the quick brown fox" in
  let h1 = Blk.hash64 b in
  Alcotest.(check int64) "deterministic" h1 (Blk.hash64 b);
  Blk.set b 0 'T';
  Alcotest.(check bool) "sensitive to change" false
    (Int64.equal h1 (Blk.hash64 b))

let test_blk_hash64_range () =
  let b = Blk.of_string "abcdefghijk" in
  let whole = Blk.hash64 b in
  let prefix = Blk.hash64 ~pos:0 ~len:9 b in
  let sub = Blk.hash64 (Blk.of_string "abcdefghi") in
  Alcotest.(check int64) "range equals standalone" sub prefix;
  Alcotest.(check bool) "range differs from whole" false
    (Int64.equal whole prefix)

let test_blk_writer_reader_roundtrip () =
  let w = Blk.Writer.create ~capacity:4 () in
  Blk.Writer.u8 w 0xab;
  Blk.Writer.u16 w 0xbeef;
  Blk.Writer.u32 w 0x12345678;
  Blk.Writer.u64 w 0x1122334455667788L;
  Blk.Writer.string w "hello";
  Blk.Writer.raw w (Blk.of_string "raw");
  Blk.Writer.raw_bytes w (Bytes.of_string "rb");
  let v = Blk.Writer.contents w in
  let r = Blk.Reader.of_view v in
  Alcotest.(check int) "u8" 0xab (Blk.Reader.u8 r);
  Alcotest.(check int) "u16" 0xbeef (Blk.Reader.u16 r);
  Alcotest.(check int) "u32" 0x12345678 (Blk.Reader.u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Blk.Reader.u64 r);
  Alcotest.(check string) "string" "hello" (Blk.Reader.string r);
  Alcotest.(check string) "raw" "raw" (Blk.to_string (Blk.Reader.raw r 3));
  Alcotest.(check string) "raw_bytes" "rb"
    (Bytes.to_string (Blk.Reader.raw_bytes r 2));
  Alcotest.(check int) "exhausted" 0 (Blk.Reader.remaining r);
  Alcotest.check_raises "past end" Blk.Truncated (fun () ->
      ignore (Blk.Reader.u8 r))

(* The exact bytes the writer emits: Summary and Checkpoint encode
   through it, so these pin the on-disk field layout. *)
let test_blk_writer_golden () =
  let w = Blk.Writer.create () in
  Blk.Writer.u8 w 7;
  Blk.Writer.u16 w 0xbeef;
  Blk.Writer.u32 w 0xcafe01;
  Blk.Writer.u64 w 0x0102030405060708L;
  Blk.Writer.string w "wire";
  Alcotest.(check string) "bytes"
    "\007\239\190\001\254\202\000\b\007\006\005\004\003\002\001\004\000wire"
    (Blk.to_string (Blk.Writer.contents w))

let test_blk_reader_window () =
  let v = Blk.of_string "abcdefgh" in
  let r = Blk.Reader.of_view ~pos:2 ~len:3 v in
  Alcotest.(check int) "pos" 2 (Blk.Reader.pos r);
  Alcotest.(check string) "window" "cde" (Blk.to_string (Blk.Reader.raw r 3));
  Alcotest.check_raises "window end" Blk.Truncated (fun () ->
      ignore (Blk.Reader.u8 r));
  Alcotest.(check int) "empty window at the end" 0
    (Blk.Reader.remaining (Blk.Reader.of_view ~pos:8 v));
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "of_view ~pos:%d ~len:%s" pos
           (match len with None -> "_" | Some l -> string_of_int l))
        (Invalid_argument "Blk.Reader.of_view")
        (fun () -> ignore (Blk.Reader.of_view ~pos ?len v)))
    [ (0, Some (-1)); (2, Some 7); (-1, None); (9, None) ]

let test_blk_writer_of_view () =
  let target = Blk.create 8 in
  let w = Blk.Writer.of_view target in
  Blk.Writer.u32 w 0x11223344;
  (* writes land in the target, in place *)
  Alcotest.(check int) "in place" 0x11223344 (Blk.get_u32 target 0);
  Blk.Writer.u32 w 0x55667788;
  Alcotest.check_raises "overflow" (Invalid_argument "Blk.Writer: view overflow")
    (fun () -> Blk.Writer.u8 w 1);
  Alcotest.(check int) "length" 8 (Blk.Writer.length w)

let test_blk_reader_raw_aliases () =
  (* Reader.raw is the zero-copy read: a window, not a copy. *)
  let v = Blk.of_string "abcdef" in
  let r = Blk.Reader.of_view v in
  let raw = Blk.Reader.raw r 4 in
  Blk.set v 1 'Z';
  Alcotest.(check string) "alias sees mutation" "aZcd" (Blk.to_string raw)

(* The word-at-a-time kernels against byte-wise references, for every
   length 0-70 (word loop alone, tail alone, both) at offsets 0-9 of a
   [sub] view whose window starts inside a larger buffer. *)
let kernel_data =
  Bytes.init 83 (fun i -> Char.chr (((i * 151) + 29) land 0xff))

let kernel_view () =
  let whole = Blk.create (Bytes.length kernel_data + 3) in
  Blk.fill whole '\xa5';
  let v = Blk.sub whole 3 (Bytes.length kernel_data) in
  Blk.blit_from_bytes kernel_data 0 v 0 (Bytes.length kernel_data);
  v

(* Both CRC32c paths: [crc32c] takes the crc32 instruction on an x86-64
   CPU with SSE4.2, and [crc32c_slice8] is the OCaml loop it runs
   everywhere else. *)
type crc32c_path = ?init:int -> ?pos:int -> ?len:int -> Blk.t -> int

let crc32c_paths : (string * crc32c_path) list =
  [ ("crc32c", Blk.crc32c); ("crc32c_slice8", Blk.crc32c_slice8) ]

(* [name]'s one-shot CRC of the window, and the CRC chained through
   [~init] at [split], each against the byte-wise [want]. *)
let check_crc32c_window name (crc : crc32c_path) v ~pos ~len ~split ~want =
  let got = crc ~pos ~len v in
  if got <> want then
    Alcotest.failf "%s ~pos:%d ~len:%d = %08x, byte-wise %08x" name pos len got
      want;
  let init = crc ~pos ~len:split v in
  let chained = crc ~init ~pos:(pos + split) ~len:(len - split) v in
  if chained <> want then
    Alcotest.failf "%s ~pos:%d ~len:%d split at %d = %08x, want %08x" name pos
      len split chained want

let test_blk_crc32c_slices () =
  let v = kernel_view () in
  List.iter
    (fun (name, crc) ->
      for len = 0 to 70 do
        for pos = 0 to 9 do
          let want = Blk.crc32c_bytes ~pos ~len kernel_data in
          (* a chained checksum equals the one-shot, split anywhere *)
          for split = 0 to len do
            check_crc32c_window name crc v ~pos ~len ~split ~want
          done
        done
      done)
    crc32c_paths

(* 1 MB of seeded bytes, in a [sub] view whose window starts inside a
   larger buffer. *)
let big_data =
  let st = Random.State.make [| 3720 |] in
  Bytes.init (1 lsl 20) (fun _ -> Char.chr (Random.State.int st 256))

let big_view () =
  let whole = Blk.create (Bytes.length big_data + 5) in
  let v = Blk.sub whole 5 (Bytes.length big_data) in
  Blk.blit_from_bytes big_data 0 v 0 (Bytes.length big_data);
  v

(* A slot, a 32 KB run and a whole segment, at every start offset
   modulo a word. *)
let test_blk_crc32c_large () =
  let v = big_view () in
  List.iter
    (fun len ->
      for pos = 0 to 7 do
        let want = Blk.crc32c_bytes ~pos ~len big_data in
        List.iter
          (fun (name, crc) ->
            check_crc32c_window name crc v ~pos ~len ~split:(len / 2) ~want)
          crc32c_paths
      done)
    [ 4096; 32768; 524288 ]

let test_blk_crc32c_random () =
  let v = big_view () in
  let n = Bytes.length big_data in
  let st = Random.State.make [| 82; 0xf6; 0x3b; 0x78 |] in
  for _ = 1 to 50 do
    let pos = Random.State.int st n in
    let len = Random.State.int st (n - pos + 1) in
    let split = Random.State.int st (len + 1) in
    let want = Blk.crc32c_bytes ~pos ~len big_data in
    List.iter
      (fun (name, crc) -> check_crc32c_window name crc v ~pos ~len ~split ~want)
      crc32c_paths
  done

(* FNV-1a over little-endian 64-bit words assembled byte by byte, then
   over the tail's bytes one at a time. *)
let fnv1a_reference b pos len =
  let step h x = Int64.mul (Int64.logxor h x) 0x100000001b3L in
  let byte i = Int64.of_int (Char.code (Bytes.get b i)) in
  let words = len / 8 in
  let h = ref 0xcbf29ce484222325L in
  for w = 0 to words - 1 do
    let word = ref 0L in
    for k = 7 downto 0 do
      word := Int64.logor (Int64.shift_left !word 8) (byte (pos + (w * 8) + k))
    done;
    h := step !h !word
  done;
  for i = pos + (words * 8) to pos + len - 1 do
    h := step !h (byte i)
  done;
  !h

let test_blk_hash64_reference () =
  let v = kernel_view () in
  for len = 0 to 70 do
    for pos = 0 to 9 do
      let want = fnv1a_reference kernel_data pos len in
      let got = Blk.hash64 ~pos ~len v in
      if not (Int64.equal got want) then
        Alcotest.failf "hash64 ~pos:%d ~len:%d = %Lx, reference %Lx" pos len got
          want
    done
  done

(* A field that ends at the last byte works; one byte further, or at
   offset -1, raises [Invalid_argument]. *)
let test_blk_scalar_bounds () =
  let whole = Blk.create 16 in
  let v = Blk.sub whole 2 11 in
  let len = Blk.length v in
  List.iter
    (fun (n, get, set) ->
      ignore (get v (len - n));
      set v (len - n);
      List.iter
        (fun at ->
          let case what = Printf.sprintf "%s u%d at %d" what (8 * n) at in
          (match get v at with
          | _ -> Alcotest.failf "%s" (case "get")
          | exception Invalid_argument _ -> ());
          match set v at with
          | () -> Alcotest.failf "%s" (case "set")
          | exception Invalid_argument _ -> ())
        [ len - n + 1; -1 ])
    [
      (1, Blk.get_u8, fun v i -> Blk.set_u8 v i 0xff);
      (2, Blk.get_u16, fun v i -> Blk.set_u16 v i 0xffff);
      (4, Blk.get_u32, fun v i -> Blk.set_u32 v i 0xffff_ffff);
      (8, (fun v i -> Int64.to_int (Blk.get_u64 v i)), fun v i ->
        Blk.set_u64 v i (-1L));
    ]

(* A multi-byte access that fails changes nothing: the field is
   checked as a whole before any byte of it is written or read. *)
let test_blk_set_no_partial_effect () =
  let b = Blk.of_string "0123456789" in
  Alcotest.check_raises "set_u32 across the end" (Invalid_argument "Blk.set")
    (fun () -> Blk.set_u32 (Blk.sub b 4 6) 4 0x11223344);
  List.iter
    (fun (what, f) ->
      match f (Blk.sub b 4 6) with
      | () -> Alcotest.failf "%s did not raise" what
      | exception Invalid_argument _ -> ())
    [
      ("set_u16", fun v -> Blk.set_u16 v 5 0xffff);
      ("set_u64", fun v -> Blk.set_u64 v 0 (-1L));
    ];
  Alcotest.(check string) "buffer unchanged" "0123456789" (Blk.to_string b)

let test_blk_writer_no_partial_effect () =
  let target = Blk.of_string "abcdef" in
  let w = Blk.Writer.of_view target in
  Blk.Writer.u32 w 1;
  List.iter
    (fun (what, f) ->
      Alcotest.check_raises what (Invalid_argument "Blk.Writer: view overflow")
        (fun () -> f w))
    [
      ("writer u32", fun w -> Blk.Writer.u32 w 0xaabbccdd);
      ("writer u64", fun w -> Blk.Writer.u64 w (-1L));
      ("writer string", fun w -> Blk.Writer.string w "x");
    ];
  Alcotest.(check int) "writer length" 4 (Blk.Writer.length w);
  Alcotest.(check string) "writer view unchanged" "\001\000\000\000ef"
    (Blk.to_string target)

let test_blk_reader_no_partial_effect () =
  let reader s =
    let r = Blk.Reader.of_view (Blk.of_string s) in
    ignore (Blk.Reader.u32 r);
    r
  in
  List.iter
    (fun (what, s, f) ->
      let r = reader s in
      Alcotest.check_raises what Blk.Truncated (fun () -> f r);
      Alcotest.(check int) (what ^ ": pos") 4 (Blk.Reader.pos r))
    [
      ("u32 with 2 left", "abcdef", fun r -> ignore (Blk.Reader.u32 r));
      ("u64 with 3 left", "abcdefg", fun r -> ignore (Blk.Reader.u64 r));
      ("u16 with 1 left", "abcde", fun r -> ignore (Blk.Reader.u16 r));
      ("string past the end", "abcd\005\000abc", fun r ->
        ignore (Blk.Reader.string r));
    ]

(* [copy] and [of_bytes] skip the zero-fill because they overwrite the
   whole buffer; [create] must still hand out zeros, also where freed
   buffers full of other bytes were recycled. *)
let test_blk_create_zeroed () =
  let sizes = List.init 34 Fun.id @ [ 4096; 65536 ] in
  List.iter
    (fun n ->
      let junk = Blk.create n in
      Blk.fill junk '\xff';
      ignore (Blk.copy junk))
    sizes;
  Gc.full_major ();
  List.iter
    (fun n ->
      let t = Blk.create n in
      for i = 0 to n - 1 do
        if Blk.get t i <> '\000' then Alcotest.failf "create %d: byte %d" n i
      done)
    sizes

let test_arena_recycles () =
  let a = Arena.create ~chunk_slots:2 ~slot_bytes:8 () in
  let s1 = Arena.alloc a in
  let s2 = Arena.alloc a in
  Blk.fill s1 'x';
  Alcotest.(check int) "live" 2 (Arena.live a);
  Alcotest.(check int) "one chunk" 1 (Arena.chunks a);
  let s3 = Arena.alloc a in
  Alcotest.(check int) "second chunk" 2 (Arena.chunks a);
  ignore s3;
  Arena.free a s2;
  let s4 = Arena.alloc a in
  Alcotest.(check int) "recycled" 1 (Arena.recycled a);
  (* the recycled slot is the same storage: aliasing is the contract *)
  Blk.fill s4 'y';
  Alcotest.(check string) "s2 storage reused" "yyyyyyyy" (Blk.to_string s2);
  Alcotest.check_raises "wrong size" (Invalid_argument "Arena.free: wrong size")
    (fun () -> Arena.free a (Blk.create 4))

let blk_bytes_model =
  QCheck.Test.make ~name:"blk mirrors bytes under blit/sub/set" ~count:300
    QCheck.(
      pair (small_list (triple (int_range 0 31) (int_range 0 31) small_int))
        (int_range 0 31))
    (fun (ops, _) ->
      let b = Bytes.make 32 '\000' in
      let v = Blk.create 32 in
      List.iter
        (fun (i, j, x) ->
          let c = Char.chr (x land 0xff) in
          Bytes.set b i c;
          Blk.set v i c;
          let len = min (32 - i) (32 - j) in
          let len = min len ((i + j) mod 5) in
          Bytes.blit b i b j len;
          Blk.blit v i v j len)
        ops;
      Bytes.to_string b = Blk.to_string v
      && Blk.equal v (Blk.of_bytes b)
      && Blk.compare v (Blk.of_bytes b) = 0)

let () =
  Alcotest.run "lld_util"
    [
      ( "lru",
        [
          Alcotest.test_case "basic insert/evict" `Quick test_lru_basic;
          Alcotest.test_case "replace same key" `Quick test_lru_replace;
          Alcotest.test_case "remove and clear" `Quick test_lru_remove_clear;
          Alcotest.test_case "remove_range" `Quick test_lru_remove_range;
          Alcotest.test_case "mem does not touch recency" `Quick
            test_lru_mem_no_touch;
          Alcotest.test_case "invalid capacity" `Quick test_lru_invalid_capacity;
          QCheck_alcotest.to_alcotest lru_remove_range_model;
          QCheck_alcotest.to_alcotest lru_churn;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "truncate" `Quick test_vec_truncate;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          QCheck_alcotest.to_alcotest vec_model;
        ] );
      ( "blk",
        [
          Alcotest.test_case "sub aliases" `Quick test_blk_sub_aliases;
          Alcotest.test_case "copy detaches" `Quick test_blk_copy_detaches;
          Alcotest.test_case "blit and bounds" `Quick test_blk_blit_and_bounds;
          Alcotest.test_case "scalar accessors" `Quick test_blk_scalars;
          Alcotest.test_case "bytes accessors" `Quick test_blk_bytes_accessors;
          Alcotest.test_case "hash64 golden" `Quick test_blk_hash64_golden;
          Alcotest.test_case "hash64 stable and sensitive" `Quick
            test_blk_hash64_stable;
          Alcotest.test_case "hash64 ranges" `Quick test_blk_hash64_range;
          Alcotest.test_case "crc32c check vector" `Quick
            Kernel_cases.crc32c_vectors;
          Alcotest.test_case "writer/reader roundtrip" `Quick
            test_blk_writer_reader_roundtrip;
          Alcotest.test_case "writer golden bytes" `Quick test_blk_writer_golden;
          Alcotest.test_case "reader window" `Quick test_blk_reader_window;
          Alcotest.test_case "writer of_view" `Quick test_blk_writer_of_view;
          Alcotest.test_case "reader raw aliases" `Quick
            test_blk_reader_raw_aliases;
          Alcotest.test_case "bulk copies match a byte loop" `Quick
            Kernel_cases.bulk_copies;
          Alcotest.test_case "out-of-range kernel calls move nothing" `Quick
            Kernel_cases.out_of_range;
          Alcotest.test_case "crc32c slices match the byte-wise loop" `Quick
            test_blk_crc32c_slices;
          Alcotest.test_case "crc32c slot and segment windows" `Quick
            test_blk_crc32c_large;
          Alcotest.test_case "crc32c random chained windows" `Quick
            test_blk_crc32c_random;
          Alcotest.test_case "hash64 matches a byte-wise FNV-1a" `Quick
            test_blk_hash64_reference;
          Alcotest.test_case "scalar range boundary" `Quick
            test_blk_scalar_bounds;
          Alcotest.test_case "failed set changes nothing" `Quick
            test_blk_set_no_partial_effect;
          Alcotest.test_case "writer overflow changes nothing" `Quick
            test_blk_writer_no_partial_effect;
          Alcotest.test_case "truncated read leaves pos" `Quick
            test_blk_reader_no_partial_effect;
          Alcotest.test_case "create zero-fills" `Quick test_blk_create_zeroed;
          Alcotest.test_case "arena recycles slots" `Quick test_arena_recycles;
          QCheck_alcotest.to_alcotest blk_bytes_model;
        ] );
    ]
