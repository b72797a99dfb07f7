"""Locally Repairable Codes (Azure-LRC style) — the §VI alternative to
wide-stripe RS.

An (k, l, g) LRC splits k data blocks into l equal local groups, adds one
XOR local parity per group and g Reed-Solomon global parities.  Single-block
repairs read only k/l blocks (the local group) instead of k; the price is
higher redundancy than a (k, g)-equivalent wide stripe.  The paper's
motivation is exactly this trade — wide stripes chase the redundancy floor
that LRC gives up — so the library carries both and the benchmarks compare
their repair behaviour.

Block layout (indices):
    0 .. k-1                    data blocks
    k .. k+l-1                  local parities (one per group)
    k+l .. k+l+g-1              global parities

Fault tolerance: any g+1 failures are recoverable (information-theoretic
bound for this family); additionally any failure pattern with at most one
failure per local group and intact local parity repairs locally.
"""

from __future__ import annotations

import numpy as np

from repro.ec.matrices import cauchy_parity_matrix
from repro.gf import matmul
from repro.gf.field import GF, gf8
from repro.gf.matrix import gf_inv, gf_rank


class LRCCode:
    """An (k, l, g) locally repairable code over GF(2^w)."""

    def __init__(self, k: int, l: int, g: int, field: GF = gf8):
        if k < 1 or l < 1 or g < 0:
            raise ValueError("need k >= 1, l >= 1, g >= 0")
        if k % l:
            raise ValueError(f"k={k} must divide evenly into l={l} local groups")
        if k + l + g > field.size:
            raise ValueError("stripe too wide for the field")
        self.k = k
        self.l = l
        self.g = g
        self.field = field
        self.group_size = k // l
        self.n = k + l + g
        self.generator = self._build_generator()
        self.generator.setflags(write=False)

    # -------------------------------------------------------------- #
    def _build_generator(self) -> np.ndarray:
        """(n x k) generator: identity, XOR group rows, Cauchy global rows."""
        f = self.field
        gen = np.zeros((self.n, self.k), dtype=f.dtype)
        gen[: self.k] = np.eye(self.k, dtype=f.dtype)
        for grp in range(self.l):
            row = self.k + grp
            lo, hi = grp * self.group_size, (grp + 1) * self.group_size
            gen[row, lo:hi] = 1  # XOR local parity
        if self.g:
            gen[self.k + self.l :] = cauchy_parity_matrix(self.k, self.g, f)
        return gen

    def group_of(self, block: int) -> int | None:
        """Local-group index of a data or local-parity block (None = global)."""
        if 0 <= block < self.k:
            return block // self.group_size
        if self.k <= block < self.k + self.l:
            return block - self.k
        if self.k + self.l <= block < self.n:
            return None
        raise ValueError(f"block index {block} out of range")

    def group_members(self, group: int) -> list[int]:
        """Data block indices of a local group."""
        if not 0 <= group < self.l:
            raise ValueError(f"group {group} out of range")
        lo = group * self.group_size
        return list(range(lo, lo + self.group_size))

    def local_parity_of(self, group: int) -> int:
        return self.k + group

    @property
    def storage_overhead(self) -> float:
        """Redundancy factor n/k (the wide-stripe paper's target metric)."""
        return self.n / self.k

    # -------------------------------------------------------------- #
    def encode_stripe(self, data_blocks) -> np.ndarray:
        data = np.asarray(data_blocks, dtype=self.field.dtype)
        if data.shape[0] != self.k:
            raise ValueError(f"expected {self.k} data blocks")
        parity = matmul(self.generator[self.k :], data, self.field)
        return np.concatenate([data, parity], axis=0)

    # -------------------------------------------------------------- #
    def repair_locally(self, failed: int, available: dict[int, np.ndarray]):
        """Single-block local repair: XOR of the group's other members.

        Returns the repaired buffer, or ``None`` when local repair is
        impossible for this failure/availability pattern (caller falls back
        to :meth:`decode`).  Only data blocks and local parities repair
        locally; global parities always need a global decode.
        """
        group = self.group_of(failed)
        if group is None:
            return None
        needed = [b for b in self.group_members(group) + [self.local_parity_of(group)]
                  if b != failed]
        if any(b not in available for b in needed):
            return None
        out = np.zeros_like(np.asarray(available[needed[0]], dtype=self.field.dtype))
        for b in needed:
            np.bitwise_xor(out, np.asarray(available[b], dtype=self.field.dtype), out=out)
        return out

    def repair_cost_blocks(self, failed: int, available: dict[int, np.ndarray] | None = None) -> int:
        """Blocks read to repair ``failed`` (group size locally, k globally)."""
        group = self.group_of(failed)
        if group is None:
            return self.k
        if available is not None and self.repair_locally(failed, available) is None:
            return self.k
        return self.group_size

    def decode(self, available: dict[int, np.ndarray], failed_ids) -> dict[int, np.ndarray]:
        """Global decode of arbitrary erasures (up to the code's tolerance).

        Solves for the data blocks from any full-rank subset of available
        rows, then re-encodes the failed blocks.  Raises ``ValueError`` when
        the failure pattern is information-theoretically unrecoverable.
        """
        failed = [int(b) for b in failed_ids]
        avail_ids = sorted(set(available) - set(failed))
        rows = self.generator[avail_ids]
        if gf_rank(rows, self.field) < self.k:
            raise ValueError(
                f"failure pattern unrecoverable: available rows span rank "
                f"{gf_rank(rows, self.field)} < k={self.k}"
            )
        # pick k independent rows greedily
        chosen: list[int] = []
        mat = np.zeros((0, self.k), dtype=self.field.dtype)
        for bid in avail_ids:
            cand = np.concatenate([mat, self.generator[bid : bid + 1]], axis=0)
            if gf_rank(cand, self.field) > mat.shape[0]:
                mat = cand
                chosen.append(bid)
            if len(chosen) == self.k:
                break
        src = np.stack([np.asarray(available[b], dtype=self.field.dtype) for b in chosen])
        data = matmul(gf_inv(mat, self.field), src, self.field)
        full = self.encode_stripe(data)
        return {b: full[b] for b in failed}

    def repair(self, failed: int, available: dict[int, np.ndarray]) -> np.ndarray:
        """Single-block repair: local when possible, global otherwise."""
        local = self.repair_locally(failed, available)
        if local is not None:
            return local
        return self.decode(available, [failed])[failed]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LRCCode(k={self.k}, l={self.l}, g={self.g})"
