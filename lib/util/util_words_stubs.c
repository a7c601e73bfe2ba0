/* Merge kernels for Ds_util.Words: tight loops over off-heap word
   buffers.

   The buffers are Bigarrays of kind `int` (untagged OCaml integers in
   native 64-bit slots), so the kernels are plain intnat arithmetic with
   no tagging, no write barriers and no GC interaction — declared
   [@@noalloc] on the OCaml side.

   DS_WORDS_P is the Mersenne prime 2^31 - 1 of Ds_util.Field: in the
   `tri` variants every third word is a field residue kept reduced in
   [0, p), matching One_sparse's c2 counter exactly. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define DS_WORDS_P ((intnat)0x7fffffff)

CAMLprim value ds_words_add(value dst, value src, value vlen)
{
  intnat *d = (intnat *)Caml_ba_data_val(dst);
  const intnat *s = (const intnat *)Caml_ba_data_val(src);
  intnat n = Long_val(vlen);
  for (intnat i = 0; i < n; i++) d[i] += s[i];
  return Val_unit;
}

CAMLprim value ds_words_sub(value dst, value src, value vlen)
{
  intnat *d = (intnat *)Caml_ba_data_val(dst);
  const intnat *s = (const intnat *)Caml_ba_data_val(src);
  intnat n = Long_val(vlen);
  for (intnat i = 0; i < n; i++) d[i] -= s[i];
  return Val_unit;
}

/* Word ranges [dpos, dpos + len) of dst and [spos, spos + len) of src:
   whole-buffer merges pass 0 and 0, containers summing one nested
   sketch into a scratch buffer pass its offset. */
CAMLprim value ds_words_add_tri(value dst, value dpos, value src, value spos, value vlen)
{
  intnat *d = (intnat *)Caml_ba_data_val(dst) + Long_val(dpos);
  const intnat *s = (const intnat *)Caml_ba_data_val(src) + Long_val(spos);
  intnat n = Long_val(vlen);
  for (intnat i = 0; i + 2 < n; i += 3) {
    intnat c2;
    d[i] += s[i];
    d[i + 1] += s[i + 1];
    c2 = d[i + 2] + s[i + 2];
    d[i + 2] = (c2 >= DS_WORDS_P) ? c2 - DS_WORDS_P : c2;
  }
  return Val_unit;
}

CAMLprim value ds_words_sub_tri(value dst, value src, value vlen)
{
  intnat *d = (intnat *)Caml_ba_data_val(dst);
  const intnat *s = (const intnat *)Caml_ba_data_val(src);
  intnat n = Long_val(vlen);
  for (intnat i = 0; i + 2 < n; i += 3) {
    intnat c2;
    d[i] -= s[i];
    d[i + 1] -= s[i + 1];
    c2 = d[i + 2] - s[i + 2];
    d[i + 2] = (c2 < 0) ? c2 + DS_WORDS_P : c2;
  }
  return Val_unit;
}

/* Word-range copy without sub-array proxies; the ranges may overlap. */
CAMLprim value ds_words_blit(value src, value spos, value dst, value dpos, value vlen)
{
  memmove((intnat *)Caml_ba_data_val(dst) + Long_val(dpos),
          (const intnat *)Caml_ba_data_val(src) + Long_val(spos),
          (size_t)Long_val(vlen) * sizeof(intnat));
  return Val_unit;
}
