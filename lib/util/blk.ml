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

(* Unchecked 64-bit loads and stores in native byte order.  Both ends
   of a copy use the same order, so a word moves as 8 plain bytes. *)
external buf_get64 : buf -> int -> int64 = "%caml_bigstring_get64u"
external buf_set64 : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bytes_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

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

let get_u8 t i = Char.code (get t i)
let set_u8 t i v = set t i (Char.chr (v land 0xff))
let get_u16 t i = get_u8 t i lor (get_u8 t (i + 1) lsl 8)

let set_u16 t i v =
  set_u8 t i v;
  set_u8 t (i + 1) (v lsr 8)

let get_u32 t i = get_u16 t i lor (get_u16 t (i + 2) lsl 16)

let set_u32 t i v =
  set_u16 t i (v land 0xffff);
  set_u16 t (i + 2) ((v lsr 16) land 0xffff)

let get_u64 t i =
  Int64.logor
    (Int64.of_int (get_u32 t i))
    (Int64.shift_left (Int64.of_int (get_u32 t (i + 4))) 32)

let set_u64 t i v =
  set_u32 t i (Int64.to_int (Int64.logand v 0xffffffffL));
  set_u32 t (i + 4)
    (Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xffffffffL))

let get_u32_bytes b i = Int32.to_int (Bytes.get_int32_le b i) land 0xffff_ffff
let set_u32_bytes b i v = Bytes.set_int32_le b i (Int32.of_int v)

(* ------------------------------------------------------------ hashes *)

(* FNV-1a over 8-byte LE words with a byte tail. *)
let hash64 ?(pos = 0) ?len t =
  let len = match len with None -> t.len - pos | Some l -> l in
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Blk.hash64";
  let h = ref 0xcbf29ce484222325L in
  let words = len / 8 in
  for i = 0 to words - 1 do
    h := Int64.logxor !h (get_u64 t (pos + (i * 8)));
    h := Int64.mul !h 0x100000001b3L
  done;
  for i = pos + (words * 8) to pos + len - 1 do
    h :=
      Int64.logxor !h
        (Int64.of_int (Char.code (Bigarray.Array1.unsafe_get t.buf (t.off + i))));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

(* CRC32c (Castagnoli), reflected polynomial 0x82f63b78 — the checksum
   notafs-style self-healing formats use.  Software table; computed
   once at module initialisation. *)
let crc32c_table =
  lazy
    (let table = Array.make 256 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 <> 0 then c := 0x82f63b78 lxor (!c lsr 1)
         else c := !c lsr 1
       done;
       table.(n) <- !c
     done;
     table)

let crc32c ?(init = 0) ?(pos = 0) ?len t =
  let len = match len with None -> t.len - pos | Some l -> l in
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Blk.crc32c";
  let table = Lazy.force crc32c_table in
  let crc = ref (lnot init land 0xffffffff) in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bigarray.Array1.unsafe_get t.buf (t.off + i)) in
    crc := (!crc lsr 8) lxor table.((!crc lxor byte) land 0xff)
  done;
  lnot !crc land 0xffffffff

let crc32c_bytes ?(init = 0) ?(pos = 0) ?len b =
  let len = match len with None -> Bytes.length b - pos | Some l -> l in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Blk.crc32c_bytes";
  let table = Lazy.force crc32c_table in
  let crc = ref (lnot init land 0xffffffff) in
  for i = pos to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    crc := (!crc lsr 8) lxor table.((!crc lxor byte) land 0xff)
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

  let ensure t n =
    if t.w_pos + n > t.w_limit then invalid_arg "Blk.Writer: view overflow";
    if t.w_grow && t.w_off + t.w_pos + n > Bigarray.Array1.dim t.w_buf then begin
      let cap = ref (Bigarray.Array1.dim t.w_buf) in
      while t.w_off + t.w_pos + n > !cap do
        cap := !cap * 2
      done;
      let bigger =
        Bigarray.Array1.create Bigarray.char Bigarray.c_layout !cap
      in
      Bigarray.Array1.blit
        (Bigarray.Array1.sub t.w_buf 0 (t.w_off + t.w_pos))
        (Bigarray.Array1.sub bigger 0 (t.w_off + t.w_pos));
      t.w_buf <- bigger
    end

  let u8 t v =
    ensure t 1;
    Bigarray.Array1.unsafe_set t.w_buf (t.w_off + t.w_pos)
      (Char.unsafe_chr (v land 0xff));
    t.w_pos <- t.w_pos + 1

  let u16 t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32 t v =
    u16 t (v land 0xffff);
    u16 t ((v lsr 16) land 0xffff)

  let u64 t v =
    u32 t (Int64.to_int (Int64.logand v 0xffffffffL));
    u32 t
      (Int64.to_int (Int64.logand (Int64.shift_right_logical v 32) 0xffffffffL))

  let raw t (v : view) =
    ensure t v.len;
    Bigarray.Array1.blit
      (Bigarray.Array1.sub v.buf v.off v.len)
      (Bigarray.Array1.sub t.w_buf (t.w_off + t.w_pos) v.len);
    t.w_pos <- t.w_pos + v.len

  let raw_bytes t b =
    let n = Bytes.length b in
    ensure t n;
    unsafe_bytes_to_buf b 0 t.w_buf (t.w_off + t.w_pos) n;
    t.w_pos <- t.w_pos + n

  let string t s =
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
  let need t n = if t.r_limit - t.r_pos < n then raise Truncated

  let u8 t =
    need t 1;
    let v = get_u8 t.r_view t.r_pos in
    t.r_pos <- t.r_pos + 1;
    v

  let u16 t =
    let lo = u8 t in
    let hi = u8 t in
    lo lor (hi lsl 8)

  let u32 t =
    let lo = u16 t in
    let hi = u16 t in
    lo lor (hi lsl 16)

  let u64 t =
    let lo = u32 t in
    let hi = u32 t in
    Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

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

  let string t =
    let n = u16 t in
    Bytes.unsafe_to_string (raw_bytes t n)
end

let pp ppf t =
  Format.fprintf ppf "<blk len=%d off=%d>" t.len t.off
