"""Sub-block splitting (paper Property 3: fine-grained repair).

HMBR divides every block of ``B/l_w`` words into an *upper* sub-block (the
first ``round(p * B/l_w)`` words, repaired centrally) and a *lower* sub-block
(the remaining words, repaired by pipelined independent repair):
``word_slice(block, 0, p)`` and ``word_slice(block, p, 1)``.  Splits are
word-aligned so that the same offsets across all blocks of a stripe decode
together.
"""

from __future__ import annotations

import numpy as np

#: Paper's default word length l_w in bytes.
DEFAULT_WORD_BYTES = 8


def word_slice(
    arr: np.ndarray,
    frac_start: float,
    frac_stop: float,
    word_bytes: int = DEFAULT_WORD_BYTES,
) -> np.ndarray:
    """Word-aligned sub-view of ``arr`` covering a fraction range (no copy).

    Boundaries are ``round(frac * total_words)`` so that adjacent ranges
    sharing a boundary fraction partition the buffer exactly.
    """
    elems_per_word = word_bytes // arr.itemsize
    if elems_per_word == 0 or (arr.size * arr.itemsize) % word_bytes:
        raise ValueError(f"buffer not aligned to {word_bytes}-byte words")
    total_words = arr.size // elems_per_word
    a = int(round(frac_start * total_words))
    b = int(round(frac_stop * total_words))
    a, b = max(0, min(a, total_words)), max(0, min(b, total_words))
    if b < a:
        raise ValueError("inverted fraction range")
    return arr[a * elems_per_word : b * elems_per_word]

