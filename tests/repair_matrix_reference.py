"""The full-inverse decode-matrix derivation, kept as the test oracle.

``RSCode.derive_repair_matrix`` inverts only the e x e core of erased data
columns.  Before that it inverted the whole k x k survivor matrix; this is
that body, unchanged.  Nothing in ``repro`` imports this module;
``tests/test_repair_matrix_oracle.py`` requires the library derivation to
reproduce it exactly.
"""

from __future__ import annotations

import numpy as np

from repro.gf.matrix import gf_inv, gf_matmul


def reference_repair_matrix(code, survivors, failed) -> np.ndarray:
    """``G[failed] @ inv(G[survivors])`` with the full survivor inverse."""
    a_inv = gf_inv(code.generator[list(survivors)], code.field)
    return gf_matmul(code.generator[list(failed)], a_inv, code.field)
