(* Zero-copy block views (DESIGN.md §5.13).

   A [Blk.t] is a window into a [Bigarray] buffer: [sub] and the codec
   [Reader] hand out O(1) aliases instead of copies, and only [copy] /
   [to_bytes] materialise fresh storage.  The data path (backend, shim
   stack, segment images, LRU cache, record mesh) passes these views
   across layer boundaries; ownership rules — who may retain a view and
   for how long — are documented per producer in DESIGN.md §5.13. *)

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { buf : buf; off : int; len : int }

exception Truncated

let length t = t.len

(* A fresh buffer with unspecified contents, for constructors that
   overwrite all of it. *)
let uninit len =
  let buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout len in
  { buf; off = 0; len }

let create len =
  if len < 0 then invalid_arg "Blk.create: negative length";
  let t = uninit len in
  Bigarray.Array1.fill t.buf '\000';
  t

let of_buffer buf =
  { buf; off = 0; len = Bigarray.Array1.dim buf }

let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Blk.sub";
  { buf = t.buf; off = t.off + pos; len }

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Blk.get";
  Bigarray.Array1.unsafe_get t.buf (t.off + i)

let set t i c =
  if i < 0 || i >= t.len then invalid_arg "Blk.set";
  Bigarray.Array1.unsafe_set t.buf (t.off + i) c

let fill t c =
  Bigarray.Array1.fill (Bigarray.Array1.sub t.buf t.off t.len) c

let blit src src_off dst dst_off len =
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off + len > src.len
    || dst_off + len > dst.len
  then invalid_arg "Blk.blit";
  Bigarray.Array1.blit
    (Bigarray.Array1.sub src.buf (src.off + src_off) len)
    (Bigarray.Array1.sub dst.buf (dst.off + dst_off) len)

(* Unchecked loads and stores in native byte order.  Both ends of a
   copy use the same order, so a word moves as 8 plain bytes. *)
external buf_get16 : buf -> int -> int = "%caml_bigstring_get16u"
external buf_set16 : buf -> int -> int -> unit = "%caml_bigstring_set16u"
external buf_get32 : buf -> int -> int32 = "%caml_bigstring_get32u"
external buf_set32 : buf -> int -> int32 -> unit = "%caml_bigstring_set32u"
external buf_get64 : buf -> int -> int64 = "%caml_bigstring_get64u"
external buf_set64 : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bytes_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Little-endian fields at an absolute offset the caller has checked:
   one access each, byte-swapped only on a big-endian host. *)
let[@inline] le_get16 buf i =
  if Sys.big_endian then swap16 (buf_get16 buf i) else buf_get16 buf i

let[@inline] le_set16 buf i v =
  if Sys.big_endian then buf_set16 buf i (swap16 v) else buf_set16 buf i v

let[@inline] le_get32 buf i =
  let v = buf_get32 buf i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xffff_ffff

let[@inline] le_set32 buf i v =
  let v = Int32.of_int v in
  buf_set32 buf i (if Sys.big_endian then swap32 v else v)

let[@inline] le_get64 buf i =
  if Sys.big_endian then swap64 (buf_get64 buf i) else buf_get64 buf i

let[@inline] le_set64 buf i v =
  buf_set64 buf i (if Sys.big_endian then swap64 v else v)

(* The Bytes <-> Bigarray copies: 8 bytes per step, then a byte-wise
   tail.  Offsets are absolute and the ranges already checked. *)
let unsafe_bytes_to_buf src s dst d len =
  let words = len / 8 in
  for i = 0 to words - 1 do
    buf_set64 dst (d + (i * 8)) (bytes_get64 src (s + (i * 8)))
  done;
  for i = words * 8 to len - 1 do
    Bigarray.Array1.unsafe_set dst (d + i) (Bytes.unsafe_get src (s + i))
  done

let unsafe_buf_to_bytes src s dst d len =
  let words = len / 8 in
  for i = 0 to words - 1 do
    bytes_set64 dst (d + (i * 8)) (buf_get64 src (s + (i * 8)))
  done;
  for i = words * 8 to len - 1 do
    Bytes.unsafe_set dst (d + i) (Bigarray.Array1.unsafe_get src (s + i))
  done

let blit_from_bytes src src_off dst dst_off len =
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off + len > Bytes.length src
    || dst_off + len > dst.len
  then invalid_arg "Blk.blit_from_bytes";
  unsafe_bytes_to_buf src src_off dst.buf (dst.off + dst_off) len

let blit_to_bytes src src_off dst dst_off len =
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off + len > src.len
    || dst_off + len > Bytes.length dst
  then invalid_arg "Blk.blit_to_bytes";
  unsafe_buf_to_bytes src.buf (src.off + src_off) dst dst_off len

let of_bytes b =
  let t = uninit (Bytes.length b) in
  blit_from_bytes b 0 t 0 (Bytes.length b);
  t

let of_string s = of_bytes (Bytes.unsafe_of_string s)

let to_bytes t =
  let b = Bytes.create t.len in
  blit_to_bytes t 0 b 0 t.len;
  b

let to_string t = Bytes.unsafe_to_string (to_bytes t)

let copy t =
  let c = uninit t.len in
  blit t 0 c 0 t.len;
  c

let equal a b =
  a.len = b.len
  &&
  let rec go i =
    i >= a.len
    || Bigarray.Array1.unsafe_get a.buf (a.off + i)
       = Bigarray.Array1.unsafe_get b.buf (b.off + i)
       && go (i + 1)
  in
  go 0

let compare a b =
  let n = min a.len b.len in
  let rec go i =
    if i >= n then Stdlib.compare a.len b.len
    else
      let c =
        Char.compare
          (Bigarray.Array1.unsafe_get a.buf (a.off + i))
          (Bigarray.Array1.unsafe_get b.buf (b.off + i))
      in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* -------------------------------------------------- scalar accessors *)

(* A multi-byte field is checked once, as a whole, before it is touched:
   a field that does not fit raises and changes nothing. *)
let[@inline] check t i n what =
  if i < 0 || i > t.len - n then invalid_arg what

let get_u8 t i = Char.code (get t i)
let set_u8 t i v = set t i (Char.unsafe_chr (v land 0xff))

let get_u16 t i =
  check t i 2 "Blk.get";
  le_get16 t.buf (t.off + i)

let set_u16 t i v =
  check t i 2 "Blk.set";
  le_set16 t.buf (t.off + i) v

let get_u32 t i =
  check t i 4 "Blk.get";
  le_get32 t.buf (t.off + i)

let set_u32 t i v =
  check t i 4 "Blk.set";
  le_set32 t.buf (t.off + i) v

let get_u64 t i =
  check t i 8 "Blk.get";
  le_get64 t.buf (t.off + i)

let set_u64 t i v =
  check t i 8 "Blk.set";
  le_set64 t.buf (t.off + i) v

let get_u32_bytes b i = Int32.to_int (Bytes.get_int32_le b i) land 0xffff_ffff
let set_u32_bytes b i v = Bytes.set_int32_le b i (Int32.of_int v)

(* ------------------------------------------------------------ hashes *)

(* FNV-1a over 8-byte LE words with a byte tail. *)
let hash64 ?(pos = 0) ?len t =
  let len = match len with None -> t.len - pos | Some l -> l in
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Blk.hash64";
  let start = t.off + pos in
  let words = len / 8 in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to words - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (le_get64 t.buf (start + (i * 8))))
        0x100000001b3L
  done;
  for i = start + (words * 8) to start + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h
           (Int64.of_int (Char.code (Bigarray.Array1.unsafe_get t.buf i))))
        0x100000001b3L
  done;
  !h

(* CRC32c (Castagnoli), reflected polynomial 0x82f63b78 — the checksum
   notafs-style self-healing formats use.  The portable loop is
   slice-by-8; a CPU with the crc32 instruction uses that instead
   (below).  Slice-by-8: table [k]
   (entries [256 * k] to [256 * k + 255]) is table [k - 1] run through
   one more zero byte, so eight lookups consume a 64-bit word at once.
   Table 0 is the classic byte-wise table, which the byte tail and
   [crc32c_bytes] use.  Built once, on first use. *)
let crc32c_tables =
  lazy
    (let table = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 <> 0 then c := 0x82f63b78 lxor (!c lsr 1)
         else c := !c lsr 1
       done;
       table.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let c = table.((256 * (k - 1)) + n) in
         table.((256 * k) + n) <- (c lsr 8) lxor table.(c land 0xff)
       done
     done;
     table)

(* Entry [i land 0xff] of table [k]: always in range. *)
let[@inline] slice (table : int array) k i =
  Array.unsafe_get table ((256 * k) + (i land 0xff))

let[@inline] crc_byte table crc byte =
  (crc lsr 8) lxor slice table 0 (crc lxor byte)

(* The slice-by-8 loop over [len] bytes from absolute offset [start],
   folded into the raw (uninverted) register [crc]. *)
let crc32c_slice8_loop buf start len crc =
  let table = Lazy.force crc32c_tables in
  let words = len / 8 in
  let crc = ref crc in
  for i = 0 to words - 1 do
    let w = le_get64 buf (start + (i * 8)) in
    let lo = (Int64.to_int w land 0xffff_ffff) lxor !crc in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    crc :=
      slice table 7 lo
      lxor slice table 6 (lo lsr 8)
      lxor slice table 5 (lo lsr 16)
      lxor slice table 4 (lo lsr 24)
      lxor slice table 3 hi
      lxor slice table 2 (hi lsr 8)
      lxor slice table 1 (hi lsr 16)
      lxor slice table 0 (hi lsr 24)
  done;
  for i = start + (words * 8) to start + len - 1 do
    crc := crc_byte table !crc (Char.code (Bigarray.Array1.unsafe_get buf i))
  done;
  !crc

(* The same fold on the CPU's crc32 instruction (blk_stubs.c), on an
   x86-64 CPU with SSE4.2 only.  Whether it has it is asked once, here
   at module initialisation. *)
external crc32c_hw_loop :
  buf ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) = "lld_blk_crc32c_byte" "lld_blk_crc32c"
[@@noalloc]

external crc32c_hw_supported : unit -> bool = "lld_blk_crc32c_supported"
[@@noalloc]

let crc32c_hw = crc32c_hw_supported ()

(* The window check and the pre- and post-inversion, around either
   loop: [~init] chains the same way through both. *)
let crc32c_with ~hw ~init ~pos ?len t =
  let len = match len with None -> t.len - pos | Some l -> l in
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Blk.crc32c";
  let start = t.off + pos in
  let crc = lnot init land 0xffffffff in
  let crc =
    if hw then crc32c_hw_loop t.buf start len crc
    else crc32c_slice8_loop t.buf start len crc
  in
  lnot crc land 0xffffffff

let crc32c ?(init = 0) ?(pos = 0) ?len t =
  crc32c_with ~hw:crc32c_hw ~init ~pos ?len t

let crc32c_slice8 ?(init = 0) ?(pos = 0) ?len t =
  crc32c_with ~hw:false ~init ~pos ?len t

let crc32c_bytes ?(init = 0) ?(pos = 0) ?len b =
  let len = match len with None -> Bytes.length b - pos | Some l -> l in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Blk.crc32c_bytes";
  let table = Lazy.force crc32c_tables in
  let crc = ref (lnot init land 0xffffffff) in
  for i = pos to pos + len - 1 do
    crc := crc_byte table !crc (Char.code (Bytes.unsafe_get b i))
  done;
  lnot !crc land 0xffffffff

(* ------------------------------------------------------------ codecs *)

module Writer = struct
  type view = t

  type t = {
    mutable w_buf : buf;
    mutable w_pos : int;  (* next write offset, relative to w_off *)
    w_off : int;
    w_limit : int;  (* max bytes writable; max_int when growable *)
    w_grow : bool;
  }

  let create ?(capacity = 256) () =
    let capacity = max capacity 16 in
    {
      w_buf = Bigarray.Array1.create Bigarray.char Bigarray.c_layout capacity;
      w_pos = 0;
      w_off = 0;
      w_limit = max_int;
      w_grow = true;
    }

  let of_view (v : view) =
    { w_buf = v.buf; w_pos = 0; w_off = v.off; w_limit = v.len; w_grow = false }

  let length t = t.w_pos

  let grow t n =
    let cap = ref (Bigarray.Array1.dim t.w_buf) in
    while t.w_off + t.w_pos + n > !cap do
      cap := !cap * 2
    done;
    let bigger = Bigarray.Array1.create Bigarray.char Bigarray.c_layout !cap in
    Bigarray.Array1.blit
      (Bigarray.Array1.sub t.w_buf 0 (t.w_off + t.w_pos))
      (Bigarray.Array1.sub bigger 0 (t.w_off + t.w_pos));
    t.w_buf <- bigger

  (* Each field calls [ensure] once for its whole width, then stores
     with one unchecked access at [at t]: a field that overflows a
     fixed view raises before any of its bytes is written. *)
  let[@inline] ensure t n =
    if t.w_pos + n > t.w_limit then invalid_arg "Blk.Writer: view overflow";
    if t.w_grow && t.w_off + t.w_pos + n > Bigarray.Array1.dim t.w_buf then
      grow t n

  let at t = t.w_off + t.w_pos

  let u8 t v =
    ensure t 1;
    Bigarray.Array1.unsafe_set t.w_buf (at t) (Char.unsafe_chr (v land 0xff));
    t.w_pos <- t.w_pos + 1

  let u16 t v =
    ensure t 2;
    le_set16 t.w_buf (at t) v;
    t.w_pos <- t.w_pos + 2

  let u32 t v =
    ensure t 4;
    le_set32 t.w_buf (at t) v;
    t.w_pos <- t.w_pos + 4

  let u64 t v =
    ensure t 8;
    le_set64 t.w_buf (at t) v;
    t.w_pos <- t.w_pos + 8

  let raw t (v : view) =
    ensure t v.len;
    Bigarray.Array1.blit
      (Bigarray.Array1.sub v.buf v.off v.len)
      (Bigarray.Array1.sub t.w_buf (at t) v.len);
    t.w_pos <- t.w_pos + v.len

  let raw_bytes t b =
    let n = Bytes.length b in
    ensure t n;
    unsafe_bytes_to_buf b 0 t.w_buf (at t) n;
    t.w_pos <- t.w_pos + n

  (* The length prefix and the bytes are one field. *)
  let string t s =
    ensure t (2 + String.length s);
    u16 t (String.length s);
    raw_bytes t (Bytes.unsafe_of_string s)

  let contents t : view = { buf = t.w_buf; off = t.w_off; len = t.w_pos }
end

module Reader = struct
  type view = t
  type t = { r_view : view; mutable r_pos : int; r_limit : int }

  let of_view ?(pos = 0) ?len (v : view) =
    let len = match len with None -> v.len - pos | Some l -> l in
    if pos < 0 || len < 0 || pos + len > v.len then
      invalid_arg "Blk.Reader.of_view";
    { r_view = v; r_pos = pos; r_limit = pos + len }

  let pos t = t.r_pos
  let remaining t = t.r_limit - t.r_pos

  (* Each field calls [need] once for its whole width, then loads with
     one unchecked access at [at t] ([of_view] checked the window): a
     truncated field raises with [pos] unmoved. *)
  let[@inline] need t n = if t.r_limit - t.r_pos < n then raise Truncated
  let at t = t.r_view.off + t.r_pos

  let u8 t =
    need t 1;
    let v = Char.code (Bigarray.Array1.unsafe_get t.r_view.buf (at t)) in
    t.r_pos <- t.r_pos + 1;
    v

  let u16 t =
    need t 2;
    let v = le_get16 t.r_view.buf (at t) in
    t.r_pos <- t.r_pos + 2;
    v

  let u32 t =
    need t 4;
    let v = le_get32 t.r_view.buf (at t) in
    t.r_pos <- t.r_pos + 4;
    v

  let u64 t =
    need t 8;
    let v = le_get64 t.r_view.buf (at t) in
    t.r_pos <- t.r_pos + 8;
    v

  let raw t n : view =
    need t n;
    let v = sub t.r_view t.r_pos n in
    t.r_pos <- t.r_pos + n;
    v

  let raw_bytes t n =
    need t n;
    let b = Bytes.create n in
    blit_to_bytes t.r_view t.r_pos b 0 n;
    t.r_pos <- t.r_pos + n;
    b

  (* The length prefix and the bytes are one field. *)
  let string t =
    need t 2;
    let n = le_get16 t.r_view.buf (at t) in
    need t (2 + n);
    t.r_pos <- t.r_pos + 2;
    Bytes.unsafe_to_string (raw_bytes t n)
end

let pp ppf t =
  Format.fprintf ppf "<blk len=%d off=%d>" t.len t.off
