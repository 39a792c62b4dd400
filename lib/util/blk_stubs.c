/* CRC32c on the SSE4.2 crc32 instruction, behind Blk.crc32c.

   The kernel takes and returns the raw CRC register: Blk keeps the
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
  const unsigned char *p = (const unsigned char *)Caml_ba_data_val(buf);
  return crc32c_sse42((uint32_t)crc, p + off, (size_t)len);
}

value lld_blk_crc32c_byte(value buf, value off, value len, value crc)
{
  return Val_long(
      lld_blk_crc32c(buf, Long_val(off), Long_val(len), Long_val(crc)));
}
