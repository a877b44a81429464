"""Checkers of the paper's combinatorial lemmas and closed forms.

No subcommand runs these: the hypercube dichotomy and the minimum slice
cover (behind the upper bound on the border subrank), and the simplified
dimension bounds (equal dimensions, and the maximal-border-subrank locus).
The tests check them by enumeration and against the general formula in
``borderlab.bounds``.
"""

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from borderlab import ShapeError
from borderlab.bounds import dimension_upper_bound


# ---------------------------------------------------------------------------
# closed forms of the dimension bound
# ---------------------------------------------------------------------------

def dimension_upper_bound_equal_dims(d: int, n: int, r: int) -> int:
    """Simplified form for equal dimensions and ``d | r``:
    ``n^d - (r/d)^d + r(2(n - r/d) + d(n-1) + 1)``."""
    if r % d != 0:
        raise ValueError(f"r must be a multiple of d, got r={r}, d={d}")
    s = r // d
    return n**d - s**d + r * (2 * (n - s) + d * (n - 1) + 1)


def max_locus_bounds(n: int) -> tuple:
    """Dimension bounds for the locus of maximal border subrank (3 | n):
    lower ``(2n^3 + 3n^2 - 2n - 3)/3`` and upper
    ``26/27 n^3 + 13/3 n^2 - 2n`` (checked against the general formula)."""
    if n % 3 != 0:
        raise ValueError("the closed-form upper bound needs 3 | n")
    lower_frac = Fraction(2 * n**3 + 3 * n**2 - 2 * n - 3, 3)
    upper_frac = Fraction(26, 27) * n**3 + Fraction(13, 3) * n**2 - 2 * n
    if lower_frac.denominator != 1 or upper_frac.denominator != 1:
        raise ArithmeticError("bounds expected to be integral")
    upper = int(upper_frac)
    if upper != dimension_upper_bound(3, (n, n, n), n):
        raise ArithmeticError("simplified upper bound disagrees with the general formula")
    return int(lower_frac), upper


# ---------------------------------------------------------------------------
# slice combinatorics
# ---------------------------------------------------------------------------

def is_downward_closed(positions, d: int) -> bool:
    pos_set = set(positions)
    for pos in pos_set:
        if len(pos) != d:
            raise ShapeError(f"position {pos} does not have arity {d}")
        for axis in range(d):
            if pos[axis] > 1:
                pred = pos[:axis] + (pos[axis] - 1,) + pos[axis + 1 :]
                if pred not in pos_set:
                    return False
    return True


class DichotomyResult(NamedTuple):
    """Either a hypercube inside the set or an explicit small slice cover."""

    kind: str  # "hypercube" | "cover"
    hypercube: Optional[frozenset] = None
    cover: Optional[tuple] = None  # tuple of (axis, value) coordinate slices


def hypercube_dichotomy(positions, s: int, d: int) -> DichotomyResult:
    """Either ``[s]^d`` sits inside the downward-closed set, or the set is
    covered by the ``d*(s-1)`` coordinate slices with value below ``s``.

    Both branches are verified by enumeration rather than trusted.
    """
    pos_set = set(tuple(p) for p in positions)
    if not is_downward_closed(pos_set, d):
        raise ValueError("input set is not downward closed")
    if s < 1:
        raise ValueError("s must be >= 1")
    corner = (s,) * d
    if corner in pos_set:
        cube = frozenset(
            tuple(p) for p in _product_range(s, d)
        )
        missing = cube - pos_set
        if missing:
            raise RuntimeError(f"hypercube witness violated at {sorted(missing)[0]}")
        return DichotomyResult(kind="hypercube", hypercube=cube)
    cover = tuple((axis, c) for axis in range(d) for c in range(1, s))
    for pos in pos_set:
        if not any(pos[axis] == c for axis, c in cover):
            raise RuntimeError(f"cover misses position {pos}")
    return DichotomyResult(kind="cover", cover=cover)


def _product_range(s: int, d: int):
    if d == 0:
        yield ()
        return
    for head in range(1, s + 1):
        for tail in _product_range(s, d - 1):
            yield (head,) + tail


def min_slice_cover(support, dims: Sequence[int]) -> int:
    """Exact minimum number of coordinate slices covering ``support``.

    Branch and bound over which slice through a chosen uncovered point to
    take next, seeded with a greedy upper bound.  Guarded to small
    instances (intended for dimensions up to ~6): a larger one raises
    ValueError.
    """
    support = set(tuple(p) for p in support)
    dims = tuple(dims)
    d = len(dims)
    if max(dims, default=0) > 8 or len(support) > 400 or d > 4:
        raise ValueError(f"min_slice_cover guarded to small instances, got dims={dims}, |support|={len(support)}")
    if not support:
        return 0

    def greedy(remaining) -> int:
        count = 0
        remaining = set(remaining)
        while remaining:
            best_axis, best_val, best_hit = None, None, -1
            for axis in range(d):
                seen: dict = {}
                for p in remaining:
                    seen[p[axis]] = seen.get(p[axis], 0) + 1
                val, hit = max(seen.items(), key=lambda kv: (kv[1], -kv[0]))
                if hit > best_hit:
                    best_axis, best_val, best_hit = axis, val, hit
            remaining = {p for p in remaining if p[best_axis] != best_val}
            count += 1
        return count

    best = greedy(support)

    def dfs(remaining: frozenset, used: int):
        nonlocal best
        if not remaining:
            best = min(best, used)
            return
        if used + 1 >= best:
            return
        pivot = min(remaining)
        for axis in range(d):
            val = pivot[axis]
            rest = frozenset(p for p in remaining if p[axis] != val)
            dfs(rest, used + 1)

    dfs(frozenset(support), 0)
    return best
