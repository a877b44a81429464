"""Exact evaluators for the closed-form dimension and subrank bounds.

Everything here is integer arithmetic (integer square roots included); no
floating point is used anywhere.  Values are capped at the ambient
dimension where the quantity is a subrank (a tensor's border subrank never
exceeds its smallest factor dimension).
"""

from __future__ import annotations

import math
from typing import Sequence


def dimension_upper_bound(d: int, dims: Sequence[int], r: int) -> int:
    """Upper bound on the dimension of the locus of border subrank >= r.

    With ``s = floor(r/d)``:
    ``n1···nd - s^d + sum_i 2s(n_i - s) + r(1 + d(r-1) + sum_i (n_i - r))``.
    """
    if d < 2:
        raise ValueError("order must be at least 2")
    dims = tuple(int(n) for n in dims)
    if len(dims) != d or any(n < 1 for n in dims):
        raise ValueError(f"need {d} dimensions >= 1, got {dims}")
    if r < 0:
        raise ValueError("r must be nonnegative")
    s = r // d
    total = math.prod(dims) - s**d
    total += sum(2 * s * (n - s) for n in dims)
    total += r * (1 + d * (r - 1) + sum(n - r for n in dims))
    return total


def generic_border_subrank_upper(d: int, n: int) -> int:
    """Largest ``r <= n`` not excluded by the dimension bound.

    An ``r`` with ``dimension_upper_bound < n^d`` cannot have a dense
    locus, so the generic border subrank is at most the largest surviving
    ``r``.  Found by exhaustive scan (no monotonicity assumed).
    """
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    full = n**d
    best = 0
    for r in range(0, n + 1):
        if dimension_upper_bound(d, (n,) * d, r) >= full:
            best = r
    return best


def border_subrank_lower_3d(n: int) -> int:
    """Lower bound ``isqrt(4n) - 3`` on the generic border subrank for
    three factors; values below 1 are reported as 0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(math.isqrt(4 * n) - 3, 0)


def generic_subrank_interval(n: int) -> tuple:
    """The proven interval for the generic (non-border) subrank:
    ``[3*floor(sqrt(n/3 + 1/4) - 1/2), floor(sqrt(3n - 2))]``.

    Both endpoints are evaluated with exact integer square roots computed
    on cleared denominators.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # sqrt(n/3 + 1/4) - 1/2 = (sqrt(12(4n+3)) - 6) / 12
    lo = 3 * ((math.isqrt(12 * (4 * n + 3)) - 6) // 12)
    hi = math.isqrt(3 * n - 2)
    return lo, hi


def generic_subrank(n: int) -> int:
    """The exact generic subrank for three equal factors: ``isqrt(3n-2)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.isqrt(3 * n - 2)


def scan_table(d: int, n_max: int):
    """Row dicts for the CSV/JSON table emitters.

    Columns: n, d3_lower, generic_subrank, dmz_lo, border_upper,
    excess_flag.  The three-factor-specific columns are blank for other
    orders.
    """
    if n_max < 1 or d < 2:
        raise ValueError("need n_max >= 1 and d >= 2")
    rows = []
    for n in range(1, n_max + 1):
        lower = gen = lo_int = excess = None
        if d == 3:
            lower, gen = border_subrank_lower_3d(n), generic_subrank(n)
            lo_int, excess = generic_subrank_interval(n)[0], lower > gen
        rows.append(
            {
                "n": n,
                "d3_lower": lower,
                "generic_subrank": gen,
                "dmz_lo": lo_int,
                "border_upper": generic_border_subrank_upper(d, n),
                "excess_flag": excess,
            }
        )
    return rows
