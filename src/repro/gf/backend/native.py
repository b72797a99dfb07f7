"""The native C backend: an ISA-L-style dot-product kernel, lazily compiled.

The NumPy tier pays one full pass over the plane per nonzero matrix entry
*plus* a temporary per gather; this tier compiles a small C library (no
build-time dependency — plain ``cc -O3 -fPIC -shared``) with one dot-product
kernel per field that computes f output rows from k source buffers read in
place, the shape of ISA-L's ``ec_encode_data``:

* **the dot form** — output rows go in groups of up to four; for each
  32-element column tile every source is loaded once and feeds all the
  group's accumulators, which stay in AVX2 registers and are stored once.
  A source is therefore read once per group, not once per output row, and
  nothing is stacked, zeroed or copied around the call;
* **GF(2^8)** — each coefficient's 256-entry multiply row splits into two
  16-entry nibble tables (``lut[b] = lut[b & 0xf] ^ lut[b & 0xf0]``,
  linearity of GF multiply over XOR), exactly the shape ``pshufb`` gathers
  32 bytes of per instruction — the layout ISA-L's ``gf_vect_dot_prod``
  uses.  The kernel builds them itself from ``field.mul_table``;
* **GF(2^16)** — a product is the XOR of four nibble products
  (``c*s = T0[s & 0xf] ^ T1[s >> 4 & 0xf] ^ T2[s >> 8 & 0xf] ^ T3[s >> 12]``),
  built in the kernel from the field's log/exp tables; the SIMD body splits
  each table into low and high result bytes and works on deinterleaved
  byte vectors, re-interleaving only at the store.

Without AVX2 (or for the last < 32 elements of a row) the body is scalar:
per output row, ``dst ^= lut[src]`` over each source.

**The binding.** A hop of a repair chain is a (1, 2) product over ~44 KiB,
a few µs of kernel work, so the call itself must cost next to nothing.  The
library uses the Python C API and is loaded with :class:`ctypes.PyDLL`: one
entry per field, ``repro_gf8_dot_py(n, coeffs, srcs, dsts)`` /
``repro_gf16_dot_py``, takes the coefficient array and sequences of source
and destination arrays as Python objects.  It acquires every buffer with
``PyObject_GetBuffer`` and checks all of them (1-D, the field's element type,
C-contiguous, exactly n long, destinations writable, the matrix shaped
(f, k)) before it reads a byte, raising ``ValueError`` otherwise; it releases
the GIL around the kernel and every buffer on every path.  The nibble-table
scratch lives in C (on the stack for small calls), and the field's tables
are bound once per process (``repro_gf8_bind`` / ``repro_gf16_bind``).

**Build caching and fallback** are :mod:`repro._cbuild`'s: one ~1 s compile
per host and interpreter into a per-user cache (``REPRO_GF_NATIVE_CACHE``),
then a ``dlopen``; no compiler, no ``Python.h`` or a failed build marks the
backend unavailable (``build_info()`` keeps the error) and auto-selection
falls back to the bit-identical NumPy tier.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

import numpy as np

from repro._cbuild import CLibrary

if TYPE_CHECKING:  # pragma: no cover - repro.gf.field imports this package
    from repro.gf.field import GF

#: kernel ABI version — bump when _C_SOURCE's signatures change so stale
#: cached builds from older checkouts are never dlopen'ed.
_ABI_VERSION = 3

_C_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__AVX2__)
#include <immintrin.h>
#define INLINE static inline __attribute__((always_inline))

/* r (<= 4) output rows over the tiles of 32 * u (u <= 2) bytes in [j, end),
 * r and u compile-time constants at every call: each source tile is loaded
 * once for the whole group, its nibble tables once per row, and the r * u
 * accumulators stay in registers until their one store.  tabs holds 32
 * bytes per (row, source): the low-nibble table, then the high-nibble one. */
INLINE void gf8_tiles(size_t j, size_t end, size_t k, int r, int u, const uint8_t *tabs,
                      const uint8_t *const *src, uint8_t *const *dst) {
    const __m256i mask = _mm256_set1_epi8(0x0f);
    for (; j < end; j += 32 * u) {
        __m256i acc[2][4], lo[2], hi[2];
        for (int v = 0; v < u; v++)
            for (int q = 0; q < r; q++)
                acc[v][q] = _mm256_setzero_si256();
        for (size_t t = 0; t < k; t++) {
            for (int v = 0; v < u; v++) {
                __m256i x = _mm256_loadu_si256((const __m256i *)(src[t] + j + 32 * v));
                lo[v] = _mm256_and_si256(x, mask);
                hi[v] = _mm256_and_si256(_mm256_srli_epi64(x, 4), mask);
            }
            for (int q = 0; q < r; q++) {
                const uint8_t *tab = tabs + (q * k + t) * 32;
                __m256i tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)tab));
                __m256i thi = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)(tab + 16)));
                for (int v = 0; v < u; v++)
                    acc[v][q] = _mm256_xor_si256(acc[v][q], _mm256_xor_si256(
                        _mm256_shuffle_epi8(tlo, lo[v]), _mm256_shuffle_epi8(thi, hi[v])));
            }
        }
        for (int v = 0; v < u; v++)
            for (int q = 0; q < r; q++)
                _mm256_storeu_si256((__m256i *)(dst[q] + j + 32 * v), acc[v][q]);
    }
}

/* One group's 32-byte tiles below `body`, two at a time while they last. */
INLINE void gf8_group(size_t body, size_t k, int r, const uint8_t *tabs,
                      const uint8_t *const *src, uint8_t *const *dst) {
    size_t pairs = body & ~(size_t)63;
    gf8_tiles(0, pairs, k, r, 2, tabs, src, dst);
    gf8_tiles(pairs, body, k, r, 1, tabs, src, dst);
}

/* The GF(2^16) group: 32 words per tile, deinterleaved into 32 low and 32
 * high source bytes whose four nibble vectors index eight byte tables per
 * (row, source) — four into the low result byte, four into the high one.
 * Accumulators stay deinterleaved; words are rebuilt at the store. */
INLINE void gf16_group(size_t body, size_t k, int r, const uint8_t *tabs,
                       const uint16_t *const *src, uint16_t *const *dst) {
    const __m256i nib = _mm256_set1_epi8(0x0f);
    const __m256i bytemask = _mm256_set1_epi16(0x00ff);
    for (size_t j = 0; j < body; j += 32) {
        __m256i alo[4], ahi[4];
        for (int q = 0; q < 4; q++)
            alo[q] = ahi[q] = _mm256_setzero_si256();
        for (size_t t = 0; t < k; t++) {
            __m256i a = _mm256_loadu_si256((const __m256i *)(src[t] + j));
            __m256i b = _mm256_loadu_si256((const __m256i *)(src[t] + j + 16));
            __m256i vlo = _mm256_permute4x64_epi64(
                _mm256_packus_epi16(_mm256_and_si256(a, bytemask),
                                    _mm256_and_si256(b, bytemask)), 0xd8);
            __m256i vhi = _mm256_permute4x64_epi64(
                _mm256_packus_epi16(_mm256_srli_epi16(a, 8),
                                    _mm256_srli_epi16(b, 8)), 0xd8);
            __m256i n[4] = {_mm256_and_si256(vlo, nib),
                            _mm256_and_si256(_mm256_srli_epi64(vlo, 4), nib),
                            _mm256_and_si256(vhi, nib),
                            _mm256_and_si256(_mm256_srli_epi64(vhi, 4), nib)};
            for (int q = 0; q < r; q++) {
                /* byte tables: for nibble p, [2p] -> low byte, [2p+1] -> high */
                const uint8_t *tab = tabs + (q * k + t) * 256 + 128;
                for (int p = 0; p < 4; p++) {
                    __m256i tl = _mm256_broadcastsi128_si256(
                        _mm_loadu_si128((const __m128i *)(tab + 32 * p)));
                    __m256i th = _mm256_broadcastsi128_si256(
                        _mm_loadu_si128((const __m128i *)(tab + 32 * p + 16)));
                    alo[q] = _mm256_xor_si256(alo[q], _mm256_shuffle_epi8(tl, n[p]));
                    ahi[q] = _mm256_xor_si256(ahi[q], _mm256_shuffle_epi8(th, n[p]));
                }
            }
        }
        for (int q = 0; q < r; q++) {
            __m256i plo = _mm256_permute4x64_epi64(alo[q], 0xd8);
            __m256i phi = _mm256_permute4x64_epi64(ahi[q], 0xd8);
            _mm256_storeu_si256((__m256i *)(dst[q] + j), _mm256_unpacklo_epi8(plo, phi));
            _mm256_storeu_si256((__m256i *)(dst[q] + j + 16), _mm256_unpackhi_epi8(plo, phi));
        }
    }
}

/* Dispatch f rows in groups of four, the remainder as one smaller group. */
#define GROUPS(fn, step)                                                    \
    for (size_t i = 0; i < f; i += 4) {                                     \
        const uint8_t *g = tabs + i * k * (step);                           \
        switch (f - i) {                                                    \
        case 1: fn(body, k, 1, g, src, dst + i); break;                     \
        case 2: fn(body, k, 2, g, src, dst + i); break;                     \
        case 3: fn(body, k, 3, g, src, dst + i); break;                     \
        default: fn(body, k, 4, g, src, dst + i);                           \
        }                                                                   \
    }
#endif

/* dst[i] = XOR_t coeffs[i*k + t] * src[t] over n bytes, for i < f.  mul is
 * the field's 256 x 256 multiply table, tabs 32 bytes of scratch per matrix
 * entry.  Every output byte is written; none is read first. */
void repro_gf8_dot(size_t n, size_t k, size_t f, const uint8_t *coeffs,
                   const uint8_t *mul, uint8_t *tabs,
                   const uint8_t *const *src, uint8_t *const *dst) {
    size_t body = 0;
#if defined(__AVX2__)
    body = n & ~(size_t)31;
    for (size_t e = 0; e < f * k; e++) {
        const uint8_t *lut = mul + 256 * (size_t)coeffs[e];
        for (int x = 0; x < 16; x++) {
            tabs[e * 32 + x] = lut[x];
            tabs[e * 32 + 16 + x] = lut[x << 4];
        }
    }
    GROUPS(gf8_group, 32)
#endif
    for (size_t i = 0; i < f; i++) {
        uint8_t *d = dst[i];
        memset(d + body, 0, n - body);
        for (size_t t = 0; t < k; t++) {
            const uint8_t c = coeffs[i * k + t];
            if (c == 0)
                continue;
            const uint8_t *lut = mul + 256 * (size_t)c, *s = src[t];
            for (size_t j = body; j < n; j++)
                d[j] ^= lut[s[j]];
        }
    }
}

/* The GF(2^16) dot product over n words.  log/exp are the field's tables
 * (exp doubled, so a sum of two logs needs no reduction); tabs is 256 bytes
 * of scratch per matrix entry: four 16-word nibble tables
 * T_p[x] = c * (x << 4p), then their low/high bytes for the SIMD body. */
void repro_gf16_dot(size_t n, size_t k, size_t f, const uint16_t *coeffs,
                    const uint32_t *log, const uint16_t *exp, uint8_t *tabs,
                    const uint16_t *const *src, uint16_t *const *dst) {
    for (size_t e = 0; e < f * k; e++) {
        uint16_t *w = (uint16_t *)(tabs + e * 256);
        uint8_t *b = tabs + e * 256 + 128;
        for (int p = 0; p < 4; p++) {
            for (int x = 0; x < 16; x++) {
                uint32_t s = (uint32_t)x << (4 * p);
                uint16_t v = (coeffs[e] && s) ? exp[log[coeffs[e]] + log[s]] : 0;
                w[16 * p + x] = v;
                b[32 * p + x] = (uint8_t)(v & 0xff);
                b[32 * p + 16 + x] = (uint8_t)(v >> 8);
            }
        }
    }
    size_t body = 0;
#if defined(__AVX2__)
    body = n & ~(size_t)31;
    GROUPS(gf16_group, 256)
#endif
    for (size_t i = 0; i < f; i++) {
        uint16_t *d = dst[i];
        memset(d + body, 0, (n - body) * sizeof(uint16_t));
        for (size_t t = 0; t < k; t++) {
            if (coeffs[i * k + t] == 0)
                continue;
            const uint16_t *w = (const uint16_t *)(tabs + (i * k + t) * 256), *s = src[t];
            for (size_t j = body; j < n; j++) {
                uint16_t v = s[j];
                d[j] ^= w[v & 15] ^ w[16 + (v >> 4 & 15)] ^ w[32 + (v >> 8 & 15)] ^ w[48 + (v >> 12)];
            }
        }
    }
}

/* ------------------------------------------------------------------ *
 * The Python entry points (the library is loaded with ctypes.PyDLL, so
 * they run holding the GIL and may raise).
 * ------------------------------------------------------------------ */

/* A field's tables, bound once per process: the views are never released,
 * which keeps the field's arrays alive for as long as the kernel can run. */
static Py_buffer gf8_mul_view, gf16_log_view, gf16_exp_view;
static const uint8_t *gf8_mul;
static const uint32_t *gf16_log;
static const uint16_t *gf16_exp;

/* Hold obj's buffer in *view if it is C-contiguous and holds `count` items
 * of `size` bytes; else raise naming `what`. */
static int bind_table(PyObject *obj, Py_buffer *view, Py_ssize_t count, Py_ssize_t size,
                      const char *what) {
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    if (view->itemsize != size || view->len != count * size) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, "%s must be %zd items of %zd bytes", what, count, size);
        return -1;
    }
    return 0;
}

PyObject *repro_gf8_bind(PyObject *mul) {
    if (!gf8_mul) {
        if (bind_table(mul, &gf8_mul_view, 256 * 256, 1, "the GF(2^8) multiply table") < 0)
            return NULL;
        gf8_mul = gf8_mul_view.buf;
    }
    Py_RETURN_NONE;
}

PyObject *repro_gf16_bind(PyObject *log, PyObject *exp) {
    if (!gf16_exp) {
        if (bind_table(log, &gf16_log_view, 65536, 4, "the GF(2^16) log table") < 0)
            return NULL;
        if (bind_table(exp, &gf16_exp_view, 2 * 65535, 2, "the GF(2^16) exp table") < 0) {
            PyBuffer_Release(&gf16_log_view);
            return NULL;
        }
        gf16_log = gf16_log_view.buf;
        gf16_exp = gf16_exp_view.buf;
    }
    Py_RETURN_NONE;
}

/* A C-contiguous buffer of one field element per item ("B" / "H"). */
static int is_elems(const Py_buffer *v, char code) {
    return v->format && v->format[0] == code && !v->format[1] && PyBuffer_IsContiguous(v, 'C');
}

/* Take the buffer of every item of the tuple rows into views, exactly n
 * elements each, and its address into ptrs.  *held counts the views taken,
 * failed or not: the caller releases them on every path. */
static int take_rows(PyObject *rows, Py_buffer *views, void **ptrs, Py_ssize_t *held,
                     size_t n, char code, int writable, const char *dtype) {
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(rows); i++) {
        Py_buffer *v = &views[*held];
        int flags = PyBUF_RECORDS_RO | (writable ? PyBUF_WRITABLE : 0);
        if (PyObject_GetBuffer(PyTuple_GET_ITEM(rows, i), v, flags) < 0) {
            PyErr_Clear();
            v = NULL;
        } else {
            ++*held;
        }
        if (!v || v->ndim != 1 || !is_elems(v, code)) {
            PyErr_Format(PyExc_ValueError, writable
                             ? "destination rows must be writable 1-D %s arrays"
                             : "source rows must be 1-D %s arrays", dtype);
            return -1;
        }
        if ((size_t)v->shape[0] != n) {
            PyErr_SetString(PyExc_ValueError, writable
                                ? "destination rows must have the sources' length"
                                : "source rows must have equal lengths");
            return -1;
        }
        ptrs[i] = v->buf;
    }
    return 0;
}

/* "(2, 3)" for the matrix message. */
static void shape_text(const Py_buffer *v, char *out, size_t size) {
    size_t at = (size_t)snprintf(out, size, "(");
    for (int d = 0; d < v->ndim && at < size; d++)
        at += (size_t)snprintf(out + at, size - at, d ? ", %zd" : "%zd", v->shape[d]);
    if (at < size)
        snprintf(out + at, size - at, v->ndim == 1 ? ",)" : ")");
}

/* The bytes one call needs: a view per buffer, a pointer per row, nibble
 * tables per matrix entry.  Small calls keep them on the stack. */
#define STACK_SCRATCH 16384

/* dsts[i] = XOR_t coeffs[i, t] * srcs[t] over n elements of GF(2^w): every
 * buffer is acquired and checked before the first byte is read, the GIL is
 * released around the kernel, and every buffer is released on every path.
 * The destinations must not overlap the sources. */
static PyObject *dot(int w, size_t n, PyObject *coeffs, PyObject *srcs, PyObject *dsts) {
    const char code = w == 8 ? 'B' : 'H', *dtype = w == 8 ? "uint8" : "uint16";
    const size_t tab = w == 8 ? 32 : 256;
    if (w == 8 ? !gf8_mul : !gf16_exp) {
        PyErr_Format(PyExc_RuntimeError, "GF(2^%d) tables are not bound", w);
        return NULL;
    }
    /* tuples, so the rows cannot change while their buffers are taken */
    PyObject *s = PySequence_Tuple(srcs);
    if (!s)
        return NULL;
    PyObject *d = PySequence_Tuple(dsts);
    if (!d) {
        Py_DECREF(s);
        return NULL;
    }
    const size_t k = (size_t)PyTuple_GET_SIZE(s), f = (size_t)PyTuple_GET_SIZE(d);
    const size_t need = (1 + k + f) * sizeof(Py_buffer) + (k + f) * sizeof(void *) + f * k * tab;
    Py_buffer stack[STACK_SCRATCH / sizeof(Py_buffer)];
    char *mem = need <= sizeof stack ? (char *)stack : malloc(need);
    Py_buffer *views = (Py_buffer *)mem, *mat = views;
    void **ptrs = (void **)(views + 1 + k + f);
    uint8_t *tabs = (uint8_t *)(ptrs + k + f);
    PyObject *ret = NULL;
    Py_ssize_t held = 0;
    if (!mem) {
        PyErr_NoMemory();
        goto done;
    }

    if (PyObject_GetBuffer(coeffs, mat, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "the matrix must be a C-contiguous %s array", dtype);
        goto done;
    }
    held = 1;
    if (!k || mat->ndim != 2 || (size_t)mat->shape[1] != k || (size_t)mat->shape[0] != f) {
        char text[96];
        shape_text(mat, text, sizeof text);
        if (mat->ndim == 2 && k && (size_t)mat->shape[1] == k)
            PyErr_Format(PyExc_ValueError, "matrix %s does not fit %zu destination rows", text, f);
        else
            PyErr_Format(PyExc_ValueError, "matrix %s does not fit %zu source rows", text, k);
        goto done;
    }
    if (!is_elems(mat, code)) {
        PyErr_Format(PyExc_ValueError, "the matrix must be a C-contiguous %s array", dtype);
        goto done;
    }
    if (take_rows(s, views, ptrs, &held, n, code, 0, dtype) < 0 ||
        take_rows(d, views, ptrs + k, &held, n, code, 1, dtype) < 0)
        goto done;

    Py_BEGIN_ALLOW_THREADS
    if (w == 8)
        repro_gf8_dot(n, k, f, mat->buf, gf8_mul, tabs, (const uint8_t *const *)ptrs,
                      (uint8_t *const *)(ptrs + k));
    else
        repro_gf16_dot(n, k, f, mat->buf, gf16_log, gf16_exp, tabs,
                       (const uint16_t *const *)ptrs, (uint16_t *const *)(ptrs + k));
    Py_END_ALLOW_THREADS
    ret = Py_None;
    Py_INCREF(ret);
done:
    while (held)
        PyBuffer_Release(&views[--held]);
    if (mem != (char *)stack)
        free(mem);
    Py_DECREF(s);
    Py_DECREF(d);
    return ret;
}

PyObject *repro_gf8_dot_py(size_t n, PyObject *coeffs, PyObject *srcs, PyObject *dsts) {
    return dot(8, n, coeffs, srcs, dsts);
}

PyObject *repro_gf16_dot_py(size_t n, PyObject *coeffs, PyObject *srcs, PyObject *dsts) {
    return dot(16, n, coeffs, srcs, dsts);
}
"""

_BASE_FLAGS = ["-O3", "-fPIC", "-shared"]
#: tried first; dropped when the compiler rejects it (cross-compilers,
#: exotic toolchains) — the scalar kernels still beat NumPy comfortably.
_NATIVE_FLAG = "-march=native"


def _bind(lib: ctypes.PyDLL) -> None:
    """Declare the Python entry points on a freshly loaded library."""
    obj, size = ctypes.py_object, ctypes.c_size_t
    for w, tables in ((8, 1), (16, 2)):
        bind = getattr(lib, f"repro_gf{w}_bind")
        bind.argtypes, bind.restype = [obj] * tables, obj
        dot = getattr(lib, f"repro_gf{w}_dot_py")
        dot.argtypes, dot.restype = [size, obj, obj, obj], obj


def _contiguous(row):
    """``row`` itself, or a contiguous copy of a strided array view."""
    if isinstance(row, np.ndarray) and not row.flags.c_contiguous:
        return np.ascontiguousarray(row)
    return row


class NativeBackend:
    """C dot-product kernels (nibble-table gathers) entered through the
    Python C API, compiled lazily."""

    name = "native"
    #: GF(2^8) and GF(2^16): the fields the C kernels implement
    fields = (8, 16)

    def __init__(self) -> None:
        #: ``-march=native`` first for the SIMD paths, retried without it
        #: when the compiler objects
        self._kernel = CLibrary(
            "gfkern", _C_SOURCE, _ABI_VERSION,
            [[*_BASE_FLAGS, _NATIVE_FLAG], _BASE_FLAGS], _bind, python=True,
        )
        #: w -> the field's entry point, its tables already bound
        self._entries: dict[int, object] = {}

    def build_info(self) -> dict:
        """Diagnostics: availability, the cached .so path and its flags, any
        build error."""
        return {"backend": self.name, **self._kernel.build_info()}

    def available(self) -> bool:
        """Whether the kernel compiled and loaded (probed once, then cached)."""
        return self._kernel.load() is not None

    def _entry(self, field: GF):
        """``entry(n, coeffs, srcs, dsts)`` for the field: ``dsts[i] =
        coeffs[i] @ srcs`` over n elements, every buffer checked in C.  The
        field's tables are bound to the library on first use."""
        entry = self._entries.get(field.w)
        if entry is None:
            lib = self._kernel.load()
            if lib is None:
                raise RuntimeError(f"native backend unavailable: {self._kernel.error}")
            if field.w not in self.fields:
                raise RuntimeError(f"native backend does not support GF(2^{field.w})")
            if field.w == 8:
                lib.repro_gf8_bind(field.mul_table)
            else:
                lib.repro_gf16_bind(field.log, field.exp)
            entry = self._entries[field.w] = getattr(lib, f"repro_gf{field.w}_dot_py")
        return entry

    def plane_matmul(self, mat: np.ndarray, plane: np.ndarray, field: GF) -> np.ndarray:
        """``mat @ plane`` over the field — bit-exact with ``gf_matmul``."""
        mat = np.asarray(mat, dtype=field.dtype)
        plane = np.asarray(plane, dtype=field.dtype)
        if mat.ndim != 2 or plane.ndim != 2 or mat.shape[1] != plane.shape[0]:
            raise ValueError(f"incompatible shapes {mat.shape} x {plane.shape}")
        (f, k), n = mat.shape, plane.shape[1]
        if not k:
            return np.zeros((f, n), dtype=field.dtype)
        out = np.empty((f, n), dtype=field.dtype)
        if plane.strides[1] != plane.itemsize:
            plane = np.ascontiguousarray(plane)
        self._entry(field)(n, np.ascontiguousarray(mat), tuple(plane), tuple(out))
        return out

    def rows_matmul(self, mat: np.ndarray, rows, field: GF) -> list[np.ndarray]:
        """``mat @ rows`` for k equal-length 1-D sources, read in place; the C
        entry rejects a bad source with ``ValueError`` before any kernel runs."""
        mat = np.ascontiguousarray(mat, dtype=field.dtype)
        srcs = [_contiguous(r) for r in rows]
        # no rows, or a first row that is no array: the entry rejects the call
        n = srcs[0].size if srcs and isinstance(srcs[0], np.ndarray) else 0
        out = [np.empty(n, dtype=field.dtype) for _ in range(len(mat))]
        self._entry(field)(n, mat, srcs, out)
        return out
