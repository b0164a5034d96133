"""Zipf-distributed rank sampling for hot-key / hot-user skew.

Real request populations are heavily skewed — a few celebrities receive
most of the mail, a few videos draw most of the views.  The sampler
draws ranks ``0..n-1`` with ``P(rank k) ∝ 1/(k+1)^s`` by inverse-CDF
lookup over a precomputed cumulative table: O(n) setup once, O(log n)
per sample, deterministic given the caller's RNG.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Optional

__all__ = ["ZipfSampler"]


class ZipfSampler:
    """Inverse-CDF sampler over ranks ``0..n-1`` with exponent ``s``.

    ``s = 0`` degenerates to uniform; ``s ≈ 1`` is the classic web-trace
    skew.  Pass an external ``random.Random`` to :meth:`sample` to keep
    one seeded stream per driver, or give the sampler its own ``seed``.
    """

    def __init__(self, n: int, s: float = 1.1, seed: Optional[int] = None) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1 ranks, got {n}")
        if s < 0:
            raise ValueError(f"exponent must be >= 0, got {s}")
        self.n = n
        self.s = float(s)
        self._rng = None if seed is None else random.Random(f"zipf:{seed}")
        cdf: List[float] = []
        total = 0.0
        for k in range(n):
            total += (k + 1) ** -self.s
            cdf.append(total)
        self._total = total
        self._cdf = cdf

    def sample(self, rng: Optional[random.Random] = None) -> int:
        """Draw one rank (0 = hottest)."""
        r = rng if rng is not None else self._rng
        if r is None:
            raise ValueError("no RNG: pass rng= or construct with seed=")
        return bisect.bisect_left(self._cdf, r.random() * self._total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ZipfSampler n={self.n} s={self.s}>"
