"""The native C backend: an ISA-L-style dot-product kernel, lazily compiled.

The NumPy tier pays one full pass over the plane per nonzero matrix entry
*plus* a temporary per gather; this tier compiles a small C extension (no
build-time dependency — plain ``cc -O3 -fPIC -shared`` driven through
:mod:`ctypes`) with one entry point per field that computes f output rows
from k source *pointers*, the shape of ISA-L's ``ec_encode_data``:

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

**Build caching and fallback** are :mod:`repro._cbuild`'s: one ~1 s compile
per host into a per-user cache (``REPRO_GF_NATIVE_CACHE``), then a ``dlopen``;
no compiler or a failed build marks the backend unavailable (``build_info()``
keeps the error) and auto-selection falls back to the bit-identical NumPy tier.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

import numpy as np

from repro._cbuild import CLibrary
from repro.gf.backend.base import KernelBackend, _checked_rows

if TYPE_CHECKING:  # pragma: no cover - repro.gf.field imports this package
    from repro.gf.field import GF

#: kernel ABI version — bump when _C_SOURCE's signatures change so stale
#: cached builds from older checkouts are never dlopen'ed.
_ABI_VERSION = 2

_C_SOURCE = r"""
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
"""

_BASE_FLAGS = ["-O3", "-fPIC", "-shared"]
#: tried first; dropped when the compiler rejects it (cross-compilers,
#: exotic toolchains) — the scalar kernels still beat NumPy comfortably.
_NATIVE_FLAG = "-march=native"
#: scratch bytes per matrix entry for the tables each entry point builds.
_TABLE_BYTES = {8: 32, 16: 256}


def _bind(lib: ctypes.CDLL) -> None:
    """Declare the kernels' signatures on a freshly loaded library."""
    ptr, size = ctypes.c_void_p, ctypes.c_size_t
    lib.repro_gf8_dot.argtypes = [size, size, size, ptr, ptr, ptr, ptr, ptr]
    lib.repro_gf8_dot.restype = None
    lib.repro_gf16_dot.argtypes = [size, size, size, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.repro_gf16_dot.restype = None


class NativeBackend(KernelBackend):
    """ctypes-driven C dot-product kernels (nibble-table gathers), compiled lazily."""

    name = "native"
    priority = 10

    def __init__(self) -> None:
        #: ``-march=native`` first for the SIMD paths, retried without it
        #: when the compiler objects
        self._kernel = CLibrary(
            "gfkern", _C_SOURCE, _ABI_VERSION,
            [[*_BASE_FLAGS, _NATIVE_FLAG], _BASE_FLAGS], _bind,
        )

    def build_info(self) -> dict:
        """Diagnostics: availability, the cached .so path and its flags, any
        build error."""
        return {"backend": self.name, **self._kernel.build_info()}

    # -------------------------------------------------------------- #
    # backend protocol
    # -------------------------------------------------------------- #
    def capabilities(self, w: int) -> bool:
        """GF(2^8) and GF(2^16): the fields the C kernels implement."""
        return w in (8, 16)

    def available(self) -> bool:
        return self._kernel.load() is not None

    def _dot(self, mat: np.ndarray, srcs: list[int], dsts: list[int], n: int, field: GF) -> None:
        """Run the field's entry point: ``dsts[i] = mat[i] @ srcs`` over n
        elements, every pointer already checked to cover n elements."""
        lib = self._kernel.load()
        if lib is None:
            raise RuntimeError(f"native backend unavailable: {self._kernel.error}")
        if not self.capabilities(field.w):
            raise RuntimeError(f"native backend does not support GF(2^{field.w})")
        f, k = mat.shape
        coeffs = np.ascontiguousarray(mat)
        tabs = np.empty(f * k * _TABLE_BYTES[field.w], dtype=np.uint8)
        ptrs = np.array(srcs + dsts, dtype=np.uintp)
        src_ptrs = ptrs.ctypes.data
        dst_ptrs = src_ptrs + k * ptrs.itemsize
        if field.w == 8:
            lib.repro_gf8_dot(n, k, f, coeffs.ctypes.data, field.mul_table.ctypes.data,
                              tabs.ctypes.data, src_ptrs, dst_ptrs)
        else:
            lib.repro_gf16_dot(n, k, f, coeffs.ctypes.data, field.log.ctypes.data,
                               field.exp.ctypes.data, tabs.ctypes.data, src_ptrs, dst_ptrs)

    def plane_matmul(self, mat: np.ndarray, plane: np.ndarray, field: GF) -> np.ndarray:
        mat = np.asarray(mat, dtype=field.dtype)
        plane = np.asarray(plane, dtype=field.dtype)
        if mat.ndim != 2 or plane.ndim != 2 or mat.shape[1] != plane.shape[0]:
            raise ValueError(f"incompatible shapes {mat.shape} x {plane.shape}")
        f, n = mat.shape[0], plane.shape[1]
        out = np.empty((f, n), dtype=field.dtype)
        if n and f:
            if plane.strides[1] != plane.itemsize:
                plane = np.ascontiguousarray(plane)
            base, step = plane.ctypes.data, plane.strides[0]
            self._dot(
                mat, [base + t * step for t in range(plane.shape[0])],
                [out.ctypes.data + i * out.strides[0] for i in range(f)], n, field,
            )
        return out

    def rows_matmul(self, mat: np.ndarray, rows, field: GF) -> list[np.ndarray]:
        mat, rows = _checked_rows(mat, rows, field)
        rows = [np.ascontiguousarray(r) for r in rows]
        n = rows[0].shape[0]
        out = [np.empty(n, dtype=field.dtype) for _ in range(mat.shape[0])]
        if n and out:
            self._dot(mat, [r.ctypes.data for r in rows], [o.ctypes.data for o in out], n, field)
        return out
