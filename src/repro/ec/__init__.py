"""Reed-Solomon erasure coding over GF(2^w).

Provides systematic (k, m) RS codes (Property 1: MDS), repair coefficient
matrices expressing any f failed blocks as linear combinations of any k
survivors (Property 2: linearity), and word-aligned sub-block splitting
(Property 3: fine-grained repair) — the three properties HMBR builds on.
"""

from repro.ec.matrices import (
    cauchy_parity_matrix,
    systematic_cauchy_generator,
    systematic_vandermonde_generator,
)
from repro.ec.rs import RSCode
from repro.ec.lrc import LRCCode
from repro.ec.stripe import Stripe, StripeLayout, StripeMeta, block_name
from repro.ec.subblock import word_slice

__all__ = [
    "RSCode",
    "LRCCode",
    "Stripe",
    "StripeLayout",
    "StripeMeta",
    "block_name",
    "cauchy_parity_matrix",
    "systematic_cauchy_generator",
    "systematic_vandermonde_generator",
    "word_slice",
]
