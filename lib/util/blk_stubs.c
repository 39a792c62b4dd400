/* Blk's C kernels: the byte movers behind every Blk copy, and the
   SSE4.2 CRC32c behind Blk.crc32c.

   Blk checks every range before it calls a kernel, so the kernels
   take absolute offsets and trust them.  Each is [@@noalloc] with
   untagged ints in native code and has a boxed twin (the _byte entry
   point) for bytecode.

   The movers are libc's memmove, memcpy, memset and memcmp, which
   every host has, so they need no fallback.  Each returns before
   calling libc on a zero length: the data pointer of a 0-byte
   Bigarray may be NULL.  A [bytes] argument is read or written in
   place; the call allocates nothing, so the GC cannot move it.

   The CRC kernel takes and returns the raw CRC register: Blk keeps the
   window check and the pre- and post-inversion, so a chained ~init
   works exactly as in its OCaml slice-by-8 loop, and every result is
   bit-identical to it.  The instruction folds the reflected Castagnoli
   polynomial (0x82f63b78) that loop uses.

   It is compiled only for x86-64 under GCC or Clang, for the sse4.2
   target alone, and Blk calls it only where lld_blk_crc32c_supported,
   asked once at module initialisation, says the CPU has the
   instruction.  Everywhere else Blk runs its OCaml loop. */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>

#define BA_BYTES(v, off) ((unsigned char *)Caml_ba_data_val(v) + (off))

/* ------------------------------------------------------------ movers */

/* [len] bytes from byte [src_off] of the bigarray [src] to byte
   [dst_off] of [dst]; the two windows may overlap. */
value lld_blk_memmove(value src, intnat src_off, value dst, intnat dst_off,
                      intnat len)
{
  if (len > 0)
    memmove(BA_BYTES(dst, dst_off), BA_BYTES(src, src_off), (size_t)len);
  return Val_unit;
}

value lld_blk_memmove_byte(value src, value src_off, value dst,
                           value dst_off, value len)
{
  return lld_blk_memmove(src, Long_val(src_off), dst, Long_val(dst_off),
                         Long_val(len));
}

/* From the OCaml [bytes] [src] into the bigarray [dst]. */
value lld_blk_memcpy_from_bytes(value src, intnat src_off, value dst,
                                intnat dst_off, intnat len)
{
  if (len > 0)
    memcpy(BA_BYTES(dst, dst_off), Bytes_val(src) + src_off, (size_t)len);
  return Val_unit;
}

value lld_blk_memcpy_from_bytes_byte(value src, value src_off, value dst,
                                     value dst_off, value len)
{
  return lld_blk_memcpy_from_bytes(src, Long_val(src_off), dst,
                                   Long_val(dst_off), Long_val(len));
}

/* From the bigarray [src] into the OCaml [bytes] [dst]. */
value lld_blk_memcpy_to_bytes(value src, intnat src_off, value dst,
                              intnat dst_off, intnat len)
{
  if (len > 0)
    memcpy(Bytes_val(dst) + dst_off, BA_BYTES(src, src_off), (size_t)len);
  return Val_unit;
}

value lld_blk_memcpy_to_bytes_byte(value src, value src_off, value dst,
                                   value dst_off, value len)
{
  return lld_blk_memcpy_to_bytes(src, Long_val(src_off), dst,
                                 Long_val(dst_off), Long_val(len));
}

/* [len] bytes from byte [off] of [buf] set to the byte [c]. */
value lld_blk_memset(value buf, intnat off, intnat len, intnat c)
{
  if (len > 0) memset(BA_BYTES(buf, off), (int)c, (size_t)len);
  return Val_unit;
}

value lld_blk_memset_byte(value buf, value off, value len, value c)
{
  return lld_blk_memset(buf, Long_val(off), Long_val(len), Long_val(c));
}

/* -1, 0 or 1 as the [len] bytes at [a_off] of [a] sort before, equal
   or after those at [b_off] of [b], byte by byte as unsigned chars. */
intnat lld_blk_memcmp(value a, intnat a_off, value b, intnat b_off,
                      intnat len)
{
  int c;
  if (len <= 0) return 0;
  c = memcmp(BA_BYTES(a, a_off), BA_BYTES(b, b_off), (size_t)len);
  return (c > 0) - (c < 0);
}

value lld_blk_memcmp_byte(value a, value a_off, value b, value b_off,
                          value len)
{
  return Val_long(lld_blk_memcmp(a, Long_val(a_off), b, Long_val(b_off),
                                 Long_val(len)));
}

/* --------------------------------------------------------------- CRC */

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>

/* One 8-byte stream, each word loaded with memcpy (the window need not
   be aligned), then the tail a byte at a time. */
__attribute__((target("sse4.2"))) static uint32_t
crc32c_sse42(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = crc;
  while (len >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    len -= 8;
  }
  crc = (uint32_t)c;
  while (len > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    len--;
  }
  return crc;
}

value lld_blk_crc32c_supported(value unit)
{
  (void)unit;
  __builtin_cpu_init();
  return Val_bool(__builtin_cpu_supports("sse4.2"));
}
#else
/* Never called: lld_blk_crc32c_supported answers false. */
static uint32_t crc32c_sse42(uint32_t crc, const unsigned char *p, size_t len)
{
  (void)crc;
  (void)p;
  (void)len;
  abort();
}

value lld_blk_crc32c_supported(value unit)
{
  (void)unit;
  return Val_false;
}
#endif

/* [len] bytes from byte [off] of the bigarray [buf], folded into the
   register [crc].  Blk has checked the window. */
intnat lld_blk_crc32c(value buf, intnat off, intnat len, intnat crc)
{
  return crc32c_sse42((uint32_t)crc, BA_BYTES(buf, off), (size_t)len);
}

value lld_blk_crc32c_byte(value buf, value off, value len, value crc)
{
  return Val_long(
      lld_blk_crc32c(buf, Long_val(off), Long_val(len), Long_val(crc)));
}
