"""The native C backend: fused gather-XOR kernels, lazily compiled.

The NumPy tier pays one full pass over the plane per nonzero matrix entry
*plus* a temporary per gather; this tier compiles a small C extension (no
build-time dependency — plain ``cc -O3 -fPIC -shared`` driven through
:mod:`ctypes`) that fuses the gather and the XOR accumulation and, where
the compiler targets AVX2/SSSE3, runs the classic SIMD table layout:

* **GF(2^8)** — each 256-entry multiply table splits into two 16-entry
  nibble tables (``lut[b] = lut[b & 0xf] ^ lut[b & 0xf0]``, linearity of
  GF multiply over XOR), which is exactly the shape ``pshufb`` gathers 32
  bytes of per instruction — the layout ISA-L's ``gf_vect_mad`` uses;
* **GF(2^16)** — products split per source byte (``lo[s & 0xff] ^
  hi[s >> 8]``, two 256-entry word tables), and each split-byte table
  decomposes again into nibble tables for the SIMD path;
* coefficient 1 degrades to a vectorized XOR, coefficient 0 to a skip.

**Build caching and fallback** are :mod:`repro._cbuild`'s: one ~1 s compile
per host into a per-user cache (``REPRO_GF_NATIVE_CACHE``), then a ``dlopen``;
no compiler or a failed build marks the backend unavailable (``build_info()``
keeps the error) and auto-selection falls back to the bit-identical NumPy tier.
"""

from __future__ import annotations

import ctypes
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from repro._cbuild import CLibrary
from repro.gf.backend.base import KernelBackend

if TYPE_CHECKING:  # pragma: no cover - repro.gf.field imports this package
    from repro.gf.field import GF

#: kernel ABI version — bump when _C_SOURCE's signatures change so stale
#: cached builds from older checkouts are never dlopen'ed.
_ABI_VERSION = 1

_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

/* dst ^= src over n bytes (the coefficient-1 kernel). */
void repro_xor_into(uint8_t *dst, const uint8_t *src, size_t n) {
    size_t j = 0;
#if defined(__AVX2__)
    for (; j + 32 <= n; j += 32) {
        __m256i d = _mm256_loadu_si256((const __m256i *)(dst + j));
        __m256i s = _mm256_loadu_si256((const __m256i *)(src + j));
        _mm256_storeu_si256((__m256i *)(dst + j), _mm256_xor_si256(d, s));
    }
#endif
    for (; j < n; j++)
        dst[j] ^= src[j];
}

/* dst ^= lut[src] over n bytes; lut is the 256-entry multiply-by-c table.
 * SIMD path: lut[b] = lut[b & 0xf] ^ lut[b & 0xf0] (GF multiply is linear
 * over XOR), so two 16-entry nibble tables cover the whole byte — the
 * pshufb-native split high/low-nibble layout. */
static void gf8_mulxor(uint8_t *dst, const uint8_t *src, size_t n,
                       const uint8_t *lut) {
    size_t j = 0;
#if defined(__AVX2__)
    uint8_t lo_tab[16], hi_tab[16];
    for (int i = 0; i < 16; i++) {
        lo_tab[i] = lut[i];
        hi_tab[i] = lut[i << 4];
    }
    __m256i lo = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)lo_tab));
    __m256i hi = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)hi_tab));
    __m256i mask = _mm256_set1_epi8(0x0f);
    for (; j + 32 <= n; j += 32) {
        __m256i v = _mm256_loadu_si256((const __m256i *)(src + j));
        __m256i vlo = _mm256_and_si256(v, mask);
        __m256i vhi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
        __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(lo, vlo),
                                     _mm256_shuffle_epi8(hi, vhi));
        __m256i d = _mm256_loadu_si256((const __m256i *)(dst + j));
        _mm256_storeu_si256((__m256i *)(dst + j), _mm256_xor_si256(d, p));
    }
#endif
    for (; j < n; j++)
        dst[j] ^= lut[src[j]];
}

/* Whole (f, k) x (k, n) product over GF(2^8).  lut_ids[i*k+t] routes each
 * matrix entry: -1 = coefficient 0 (skip), -2 = coefficient 1 (XOR),
 * otherwise an index into luts (256 bytes per table).  out must be
 * zeroed by the caller; rows are accumulated in place. */
void repro_gf8_plane_matmul(const int32_t *lut_ids, size_t f, size_t k,
                            const uint8_t *luts, const uint8_t *plane,
                            size_t n, uint8_t *out) {
    for (size_t i = 0; i < f; i++) {
        uint8_t *row = out + i * n;
        for (size_t t = 0; t < k; t++) {
            int32_t id = lut_ids[i * k + t];
            if (id == -1)
                continue;
            const uint8_t *src = plane + t * n;
            if (id == -2)
                repro_xor_into(row, src, n);
            else
                gf8_mulxor(row, src, n, luts + (size_t)id * 256);
        }
    }
}

/* dst ^= c * src over n uint16 words via split-byte product tables:
 * c*s = lo[s & 0xff] ^ hi[s >> 8] (two 256-entry word tables).  SIMD
 * path: each split-byte table decomposes into nibble tables again, the
 * words deinterleave into low-byte/high-byte vectors, and eight pshufb
 * gathers cover 32 words per iteration. */
static void gf16_mulxor(uint16_t *dst, const uint16_t *src, size_t n,
                        const uint16_t *lo, const uint16_t *hi) {
    size_t j = 0;
#if defined(__AVX2__)
    uint8_t tabs[8][16];
    for (int x = 0; x < 16; x++) {
        tabs[0][x] = (uint8_t)(lo[x] & 0xff);      /* lo-src low nib -> out lo */
        tabs[1][x] = (uint8_t)(lo[x << 4] & 0xff); /* lo-src high nib -> out lo */
        tabs[2][x] = (uint8_t)(lo[x] >> 8);        /* lo-src low nib -> out hi */
        tabs[3][x] = (uint8_t)(lo[x << 4] >> 8);   /* lo-src high nib -> out hi */
        tabs[4][x] = (uint8_t)(hi[x] & 0xff);      /* hi-src low nib -> out lo */
        tabs[5][x] = (uint8_t)(hi[x << 4] & 0xff); /* hi-src high nib -> out lo */
        tabs[6][x] = (uint8_t)(hi[x] >> 8);        /* hi-src low nib -> out hi */
        tabs[7][x] = (uint8_t)(hi[x << 4] >> 8);   /* hi-src high nib -> out hi */
    }
    __m256i t[8];
    for (int i = 0; i < 8; i++)
        t[i] = _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)tabs[i]));
    __m256i nib = _mm256_set1_epi8(0x0f);
    __m256i bytemask = _mm256_set1_epi16(0x00ff);
    for (; j + 32 <= n; j += 32) {
        __m256i a = _mm256_loadu_si256((const __m256i *)(src + j));
        __m256i b = _mm256_loadu_si256((const __m256i *)(src + j + 16));
        /* deinterleave 32 words into 32 low bytes + 32 high bytes */
        __m256i vlo = _mm256_permute4x64_epi64(
            _mm256_packus_epi16(_mm256_and_si256(a, bytemask),
                                _mm256_and_si256(b, bytemask)), 0xd8);
        __m256i vhi = _mm256_permute4x64_epi64(
            _mm256_packus_epi16(_mm256_srli_epi16(a, 8),
                                _mm256_srli_epi16(b, 8)), 0xd8);
        __m256i ln0 = _mm256_and_si256(vlo, nib);
        __m256i ln1 = _mm256_and_si256(_mm256_srli_epi64(vlo, 4), nib);
        __m256i hn0 = _mm256_and_si256(vhi, nib);
        __m256i hn1 = _mm256_and_si256(_mm256_srli_epi64(vhi, 4), nib);
        __m256i outlo = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_shuffle_epi8(t[0], ln0),
                             _mm256_shuffle_epi8(t[1], ln1)),
            _mm256_xor_si256(_mm256_shuffle_epi8(t[4], hn0),
                             _mm256_shuffle_epi8(t[5], hn1)));
        __m256i outhi = _mm256_xor_si256(
            _mm256_xor_si256(_mm256_shuffle_epi8(t[2], ln0),
                             _mm256_shuffle_epi8(t[3], ln1)),
            _mm256_xor_si256(_mm256_shuffle_epi8(t[6], hn0),
                             _mm256_shuffle_epi8(t[7], hn1)));
        /* re-interleave lo/hi bytes back into words */
        __m256i plo = _mm256_permute4x64_epi64(outlo, 0xd8);
        __m256i phi = _mm256_permute4x64_epi64(outhi, 0xd8);
        __m256i r0 = _mm256_unpacklo_epi8(plo, phi);
        __m256i r1 = _mm256_unpackhi_epi8(plo, phi);
        __m256i d0 = _mm256_loadu_si256((const __m256i *)(dst + j));
        __m256i d1 = _mm256_loadu_si256((const __m256i *)(dst + j + 16));
        _mm256_storeu_si256((__m256i *)(dst + j), _mm256_xor_si256(d0, r0));
        _mm256_storeu_si256((__m256i *)(dst + j + 16), _mm256_xor_si256(d1, r1));
    }
#endif
    for (; j < n; j++) {
        uint16_t s = src[j];
        dst[j] ^= (uint16_t)(lo[s & 0xff] ^ hi[s >> 8]);
    }
}

/* GF(2^16) plane product; luts holds 512 uint16 per table (lo 256 then
 * hi 256).  Same id routing and zeroed-out contract as the w=8 kernel. */
void repro_gf16_plane_matmul(const int32_t *lut_ids, size_t f, size_t k,
                             const uint16_t *luts, const uint16_t *plane,
                             size_t n, uint16_t *out) {
    for (size_t i = 0; i < f; i++) {
        uint16_t *row = out + i * n;
        for (size_t t = 0; t < k; t++) {
            int32_t id = lut_ids[i * k + t];
            if (id == -1)
                continue;
            const uint16_t *src = plane + t * n;
            if (id == -2)
                repro_xor_into((uint8_t *)row, (const uint8_t *)src, n * 2);
            else
                gf16_mulxor(row, src, n, luts + (size_t)id * 512,
                            luts + (size_t)id * 512 + 256);
        }
    }
}
"""

_BASE_FLAGS = ["-O3", "-fPIC", "-shared"]
#: tried first; dropped when the compiler rejects it (cross-compilers,
#: exotic toolchains) — the scalar kernels still beat NumPy comfortably.
_NATIVE_FLAG = "-march=native"


def _bind(lib: ctypes.CDLL) -> None:
    """Declare the kernels' signatures on a freshly loaded library."""
    ptr, size = ctypes.c_void_p, ctypes.c_size_t
    lib.repro_xor_into.argtypes = [ptr, ptr, size]
    lib.repro_xor_into.restype = None
    matmul_sig = [ptr, size, size, ptr, ptr, size, ptr]
    lib.repro_gf8_plane_matmul.argtypes = matmul_sig
    lib.repro_gf8_plane_matmul.restype = None
    lib.repro_gf16_plane_matmul.argtypes = matmul_sig
    lib.repro_gf16_plane_matmul.restype = None


class NativeBackend(KernelBackend):
    """ctypes-driven C kernels (XOR + nibble-table gathers), compiled lazily."""

    name = "native"
    priority = 10

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``-march=native`` first for the SIMD paths, retried without it
        #: when the compiler objects
        self._kernel = CLibrary(
            "gfkern", _C_SOURCE, _ABI_VERSION,
            [[*_BASE_FLAGS, _NATIVE_FLAG], _BASE_FLAGS], _bind,
        )
        #: bounded memo of native LUT blocks keyed by (w, coeff); entries
        #: are 256-byte (w=8) or 512-word (w=16) per-coefficient tables.
        self._luts: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
        self._luts_capacity = 512

    def build_info(self) -> dict:
        """Diagnostics: availability, the cached .so path, any build error."""
        return {"backend": self.name, **self._kernel.build_info()}

    # -------------------------------------------------------------- #
    # backend protocol
    # -------------------------------------------------------------- #
    def capabilities(self, w: int) -> bool:
        """GF(2^8) and GF(2^16): the fields the C kernels implement."""
        return w in (8, 16)

    def available(self) -> bool:
        return self._kernel.load() is not None

    def _lut_for(self, field: GF, coeff: int) -> np.ndarray:
        """The native per-coefficient table (LRU-cached, lock-guarded)."""
        key = (field.w, coeff)
        with self._lock:
            cached = self._luts.get(key)
            if cached is not None:
                self._luts.move_to_end(key)
                return cached
        if field.w == 8:
            lut = np.ascontiguousarray(field.mul_table[coeff])
        else:
            b = np.arange(256, dtype=np.uint16)
            lut = np.empty(512, dtype=np.uint16)
            lut[:256] = field.mul(coeff, b)
            lut[256:] = field.mul(coeff, b << 8)
        lut.setflags(write=False)
        with self._lock:
            raced = self._luts.get(key)
            if raced is not None:
                self._luts.move_to_end(key)
                return raced
            self._luts[key] = lut
            while len(self._luts) > self._luts_capacity:
                self._luts.popitem(last=False)
        return lut

    def plane_matmul(self, mat: np.ndarray, plane: np.ndarray, field: GF) -> np.ndarray:
        lib = self._kernel.load()
        if lib is None:
            raise RuntimeError(f"native backend unavailable: {self._kernel.error}")
        if not self.capabilities(field.w):
            raise RuntimeError(f"native backend does not support GF(2^{field.w})")
        mat = np.asarray(mat, dtype=field.dtype)
        plane = np.asarray(plane, dtype=field.dtype)
        if mat.ndim != 2 or plane.ndim != 2 or mat.shape[1] != plane.shape[0]:
            raise ValueError(f"incompatible shapes {mat.shape} x {plane.shape}")
        f, k = mat.shape
        n = plane.shape[1]
        out = np.zeros((f, n), dtype=field.dtype)
        if n == 0 or f == 0 or k == 0:
            return out
        plane = np.ascontiguousarray(plane)
        # route each matrix entry: -1 skip, -2 xor, else a LUT index
        tables: list[np.ndarray] = []
        index_of: dict[int, int] = {}
        ids = np.empty((f, k), dtype=np.int32)
        for i in range(f):
            for t in range(k):
                c = int(mat[i, t])
                if c == 0:
                    ids[i, t] = -1
                elif c == 1:
                    ids[i, t] = -2
                else:
                    slot = index_of.get(c)
                    if slot is None:
                        slot = index_of[c] = len(tables)
                        tables.append(self._lut_for(field, c))
                    ids[i, t] = slot
        width = 256 if field.w == 8 else 512
        if tables:
            luts = np.concatenate(tables)
        else:
            luts = np.zeros(width, dtype=field.dtype)
        fn = lib.repro_gf8_plane_matmul if field.w == 8 else lib.repro_gf16_plane_matmul
        fn(
            ids.ctypes.data,
            f,
            k,
            luts.ctypes.data,
            plane.ctypes.data,
            n,
            out.ctypes.data,
        )
        return out
