"""The explicit three-factor degeneration with a machine-checkable certificate.

For ``r <= isqrt(4n) - 3`` the construction plants, on top of a diagonal
unit-type tensor ``S``, one full-rank block per pyramid layer, far enough
outside the pyramid ``P`` of nonpositive-weight positions.  The resulting
tensor ``T~`` satisfies

* ``T~`` agrees with ``S`` on ``P`` and its limit under the weight
  subgroup at ``t -> 0`` is exactly ``S``;
* the derivative of the translation map ``(g1, g2) -> (g1, g2, id) · T~``,
  restricted to upper-triangular directions in the first two factors,
  covers the whole space spanned by ``P`` -- certified by an exact rank
  computation.

Full Jacobian rank at the one constructed point certifies dominance of the
translation map, hence density of the border-subrank->=r locus.  The
planted blocks default to identity matrices, which keeps the tensor 0/1
and the Jacobian integral, so full rank over a single prime field already
certifies the characteristic-zero statement (an integral matrix can only
lose rank modulo p).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .errors import NoLimitError, PlacementError, ShapeError, SizeGuardError
from .fields import FieldContext, PrimeField, QQ, random_prime
from .tensors import OneParamSubgroup, Tensor, limit_at_zero, recognize_unit_tensor

#: pyramid size by layers: 1^2 + 2^2 + ... + r^2
def pyramid_size(r: int) -> int:
    return r * (r + 1) * (2 * r + 1) // 6


@dataclass(frozen=True)
class WeightProfile:
    """Weakly increasing integer weights per tensor factor.

    ``pyramid_rank`` marks profiles produced by
    :func:`pyramid_weight_profile`; for those the pyramid enumeration is
    cross-checked against its closed form.
    """

    dims: tuple
    weights: tuple  # tuple per factor, weakly increasing
    pyramid_rank: Optional[int] = None

    def __post_init__(self):
        if len(self.weights) != len(self.dims):
            raise ShapeError("one weight list per factor required")
        for n, ws in zip(self.dims, self.weights):
            if len(ws) != n:
                raise ShapeError("weight list length must match the factor dimension")
            if any(ws[i] > ws[i + 1] for i in range(len(ws) - 1)):
                raise ValueError("weights must be weakly increasing within each factor")

    @property
    def order(self) -> int:
        return len(self.dims)

    def subgroup(self, field: FieldContext) -> OneParamSubgroup:
        return OneParamSubgroup.from_weights(field, [list(ws) for ws in self.weights])


def pyramid_weight_profile(n: int, r: int) -> WeightProfile:
    """The doubling profile: ``2^j`` on the first two factors and
    ``-2^(r-l+2)`` (then zeros) on the third."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    ab = tuple(2 ** j for j in range(1, n + 1))
    third = tuple(-(2 ** (r - l + 2)) if l <= r else 0 for l in range(1, n + 1))
    return WeightProfile(dims=(n, n, n), weights=(ab, ab, third), pyramid_rank=r)


@dataclass(frozen=True)
class PyramidPattern:
    """Nonpositive-weight positions of a three-factor profile.

    ``positions`` is downward closed because the weights increase weakly;
    ``zero_set`` is the equality locus.
    """

    dims: tuple
    positions: frozenset
    zero_set: frozenset

    @property
    def size(self) -> int:
        return len(self.positions)


def build_pyramid(profile: WeightProfile) -> PyramidPattern:
    """Enumerate the nonpositive-weight set of a three-factor profile.

    For the doubling profile the enumeration is cross-checked against the
    closed form ``{(j,k,l) : l <= r and j,k <= r-l+1}`` and the layer-sum
    size formula.
    """
    if profile.order != 3:
        raise ShapeError("pyramid enumeration expects a three-factor profile")
    a1, a2, a3 = profile.weights
    positions = set()
    zeros = set()
    for l0, w3 in enumerate(a3, start=1):
        for k0, w2 in enumerate(a2, start=1):
            budget = -(w3 + w2)
            jmax = bisect_right(a1, budget)
            for j0 in range(1, jmax + 1):
                pos = (j0, k0, l0)
                positions.add(pos)
                if a1[j0 - 1] == budget:
                    zeros.add(pos)
    pattern = PyramidPattern(
        dims=profile.dims, positions=frozenset(positions), zero_set=frozenset(zeros)
    )
    r = profile.pyramid_rank
    if r is not None:
        closed = {
            (j, k, l)
            for l in range(1, r + 1)
            for j in range(1, r - l + 2)
            for k in range(1, r - l + 2)
        }
        corners = {(r - l + 1, r - l + 1, l) for l in range(1, r + 1)}
        if positions != closed or zeros != corners or len(positions) != pyramid_size(r):
            raise RuntimeError(
                "pyramid enumeration disagrees with the closed form "
                f"(n={profile.dims[0]}, r={r})"
            )
    return pattern


@dataclass(frozen=True)
class BlockPlacement:
    """One planted full-rank block: size ``s+1`` at layer ``l = r - s``.

    Even ``s`` places the block on rows ``[start, start+s]`` x columns
    ``[1, s+1]``; odd ``s`` on rows ``[1, s+1]`` x columns
    ``[start, start+s]``.  ``axis`` records which coordinate carries the
    packed interval ("j" for even, "k" for odd).
    """

    s: int
    layer: int
    axis: str
    start: int

    @property
    def interval(self) -> tuple:
        return (self.start, self.start + self.s)


def fit_bound(r: int) -> int:
    """Smallest ambient dimension accepted for rank ``r``: ceil((r+3)^2/4)."""
    return -((-((r + 3) ** 2)) // 4)


def build_planted_tensor(
    field: FieldContext,
    n: int,
    r: int,
    rng: Optional[random.Random] = None,
    random_blocks: bool = False,
):
    """Build ``(T~, S, placements)`` for the rank-``r`` degeneration.

    ``S`` has ones exactly on the pyramid corners ``(r-l+1, r-l+1, l)``;
    ``T~`` adds one ``(s+1) x (s+1)`` block per layer ``l = r-s``, packed
    greedily left-to-right from row/column ``r+1`` in increasing ``s``
    (even sizes on the row axis, odd sizes on the column axis, intervals
    pairwise disjoint per axis).  Blocks are identity matrices unless
    ``random_blocks`` asks for random invertible ones.

    Raises PlacementError when ``4n < (r+3)^2`` or -- double-checked rather
    than trusted -- when the greedy packing would leave ``[1, n]``.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if 4 * n < (r + 3) ** 2:
        raise PlacementError(
            f"fit condition violated: n >= (r+3)^2/4 requires n >= {fit_bound(r)}, got n={n}"
        )
    one = field.one()
    entries = {}
    s_entries = {}
    for l in range(1, r + 1):
        pos = (r - l + 1, r - l + 1, l)
        entries[pos] = one
        s_entries[pos] = one

    placements = []
    next_start = {"j": r + 1, "k": r + 1}
    for s in range(0, r):
        axis = "j" if s % 2 == 0 else "k"
        start = next_start[axis]
        end = start + s
        if end > n:
            raise PlacementError(
                f"block of size {s + 1} does not fit: interval [{start}, {end}] exceeds n={n}",
                interval=(start, end),
            )
        next_start[axis] = end + 1
        layer = r - s
        block = _block_matrix(field, s + 1, rng, random_blocks)
        for i in range(s + 1):
            for i2 in range(s + 1):
                v = block[i][i2]
                if field.is_zero(v):
                    continue
                if axis == "j":
                    entries[(start + i, 1 + i2, layer)] = v
                else:
                    entries[(1 + i, start + i2, layer)] = v
        placements.append(BlockPlacement(s=s, layer=layer, axis=axis, start=start))

    t_tilde = Tensor.from_entries(field, (n, n, n), entries)
    s_tensor = Tensor.from_entries(field, (n, n, n), s_entries)
    return t_tilde, s_tensor, placements


def _block_matrix(field: FieldContext, size: int, rng, random_blocks: bool):
    if not random_blocks:
        return linalg.identity(field, size)
    if rng is None:
        rng = random.Random(0)
    while True:
        cand = [[field.random_scalar(rng) for _ in range(size)] for _ in range(size)]
        if linalg.is_invertible(field, cand):
            return cand


def jacobian_dominance_rank(
    t_tilde: Tensor, pattern: PyramidPattern, field: FieldContext, stop_early: bool = True
) -> int:
    """Exact rank of the translation derivative restricted to the pyramid.

    Rows are indexed by the pyramid positions; columns by upper-triangular
    matrix units ``E_ab`` acting on factor 1 or factor 2 (the entry at row
    ``(j,k,l)`` for a factor-1 column is ``T~[b,k,l]`` if ``j = a``, and
    symmetrically for factor 2).  With ``stop_early`` the elimination stops
    once the rank reaches the row count (the exact answer is already
    known then).
    """
    field.ensure_same(t_tilde.field)
    positions = sorted(pattern.positions)
    row_index = {pos: i for i, pos in enumerate(positions)}
    n1, n2, _ = t_tilde.dims
    in_p = pattern.positions

    by_first: dict = {}
    by_second: dict = {}
    for (j, k, l), v in t_tilde.support():
        by_first.setdefault(j, []).append((k, l, v))
        by_second.setdefault(k, []).append((j, l, v))

    # a column E_ab is empty unless some pyramid position has coordinate a
    # in the factor it acts on
    firsts = sorted({j for j, _, _ in in_p})
    seconds = sorted({k for _, k, _ in in_p})

    def columns():
        for a in firsts:
            for b in range(a, n1 + 1):
                slice_b = by_first.get(b)
                if not slice_b:
                    continue
                col = {}
                for k, l, v in slice_b:
                    pos = (a, k, l)
                    if pos in in_p:
                        col[row_index[pos]] = v
                if col:
                    yield col
        for a in seconds:
            for b in range(a, n2 + 1):
                slice_b = by_second.get(b)
                if not slice_b:
                    continue
                col = {}
                for j, l, v in slice_b:
                    pos = (j, a, l)
                    if pos in in_p:
                        col[row_index[pos]] = v
                if col:
                    yield col

    stop = len(positions) if stop_early else None
    return linalg.sparse_rank(field, columns(), stop_at=stop)


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------

VERDICT_CERTIFIED = "Certified"
VERDICT_REFUTED = "Refuted"
VERDICT_INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class DegenerationCertificate:
    """Everything needed to re-derive the dominance certificate from scratch."""

    n: int
    r: int
    profile: WeightProfile
    s_tensor: Tensor
    t_tilde: Tensor
    placements: tuple
    limit_check: bool
    restriction_check: bool
    unit_size: Optional[int]
    jacobian_rank: int
    pyramid_size: int
    prime: Optional[int]  # None when certified over the rationals
    verdict: str

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED


def default_rank(n: int) -> int:
    """The default certified rank ``isqrt(4n) - 3`` (not clamped)."""
    return math.isqrt(4 * n) - 3


def restriction_agrees(t_tilde: Tensor, s_tensor: Tensor, pattern: PyramidPattern) -> bool:
    """Whether the two tensors agree on every pyramid position.

    Tensors store no zeros, so this compares their nonzeros inside the pyramid.
    """
    in_p = pattern.positions
    return {pos: v for pos, v in t_tilde.support() if pos in in_p} == {
        pos: v for pos, v in s_tensor.support() if pos in in_p
    }


def certify_lower_bound(
    n: int,
    r: Optional[int] = None,
    field: Optional[FieldContext] = None,
    rng: Optional[random.Random] = None,
    prime_bits: int = 62,
    max_prime_retries: int = 3,
    max_block_retries: int = 2,
) -> DegenerationCertificate:
    """Run the full pipeline and return a self-contained certificate.

    ``r`` defaults to ``isqrt(4n) - 3`` and must end up >= 1.  The rank is
    certified over ``field``; when none is given, a random prime field with
    ``prime_bits``-bit modulus is drawn from ``rng``.  Because the default
    tensor is 0/1, full rank modulo one prime certifies the rational
    statement; a sub-full rank over a prime is inconclusive and triggers
    fresh primes, then random invertible blocks, before giving up.
    """
    if rng is None:
        rng = random.Random(0)
    if r is None:
        r = default_rank(n)
    if r < 1:
        raise ValueError(f"certified rank must be >= 1 (n={n} gives default {r}); pass r explicitly")
    if field is None:
        field = PrimeField(random_prime(prime_bits, rng))

    profile = pyramid_weight_profile(n, r)
    pattern = build_pyramid(profile)
    size = pattern.size

    def attempt(current_field: FieldContext, random_blocks: bool):
        t_tilde, s_tensor, placements = build_planted_tensor(
            current_field, n, r, rng=rng, random_blocks=random_blocks
        )
        subgroup = profile.subgroup(current_field)
        restriction = restriction_agrees(t_tilde, s_tensor, pattern)
        try:
            limit_ok = limit_at_zero(subgroup, t_tilde) == s_tensor
        except NoLimitError:
            limit_ok = False
        unit = recognize_unit_tensor(s_tensor)
        rank = jacobian_dominance_rank(t_tilde, pattern, current_field)
        return t_tilde, s_tensor, placements, restriction, limit_ok, unit, rank

    attempts = [(field, False)]
    if isinstance(field, PrimeField):
        attempts += [(PrimeField(random_prime(prime_bits, rng)), False) for _ in range(max_prime_retries)]
    attempts += [(field, True)] * max_block_retries

    for current_field, random_blocks in attempts:
        t_tilde, s_tensor, placements, restriction, limit_ok, unit, rank = attempt(current_field, random_blocks)
        if restriction and limit_ok and unit == r and rank == size:
            verdict = VERDICT_CERTIFIED
            break
    else:
        # the last attempt stands; over a prime field a rank deficit does not
        # refute the rational claim
        verdict = VERDICT_REFUTED if current_field == QQ else VERDICT_INCONCLUSIVE
    return DegenerationCertificate(
        n=n,
        r=r,
        profile=profile,
        s_tensor=s_tensor,
        t_tilde=t_tilde,
        placements=tuple(placements),
        limit_check=limit_ok,
        restriction_check=restriction,
        unit_size=unit,
        jacobian_rank=rank,
        pyramid_size=size,
        prime=current_field.p if isinstance(current_field, PrimeField) else None,
        verdict=verdict,
    )


def recheck_certificate(cert: DegenerationCertificate, rng: Optional[random.Random] = None):
    """Re-derive every checkable claim of a stored certificate from scratch.

    Returns an ordered list of ``(clause, ok, detail)`` triples.  The
    Jacobian rank is recomputed over a fresh random prime drawn from
    ``rng``, redrawn while it equals the stored prime.  ``rng`` should be a
    stream of its own, not the one the certificate was made with; the
    default is the verify stream of seed 0, ``random.Random("verify:0")``.
    """
    if rng is None:
        rng = random.Random("verify:0")
    results = []

    expected_profile = pyramid_weight_profile(cert.n, cert.r)
    results.append(("profile", cert.profile == expected_profile, "stored weight profile matches the construction"))

    pattern = build_pyramid(expected_profile)
    results.append(
        ("pyramid", pattern.size == cert.pyramid_size == pyramid_size(cert.r), "pyramid size r(r+1)(2r+1)/6")
    )

    results.append(
        ("restriction", restriction_agrees(cert.t_tilde, cert.s_tensor, pattern), "T|_P = S|_P")
    )

    tensor_field = cert.t_tilde.field
    subgroup = expected_profile.subgroup(tensor_field)
    try:
        limit_ok = limit_at_zero(subgroup, cert.t_tilde) == cert.s_tensor
    except NoLimitError:
        limit_ok = False
    results.append(("limit", limit_ok, "limit of T~ at t->0 equals S"))

    results.append(
        ("unit-tensor", recognize_unit_tensor(cert.s_tensor) == cert.r, "S is a diagonal unit tensor of size r")
    )

    prime = random_prime(62, rng)
    while prime == cert.prime:
        prime = random_prime(62, rng)
    fresh = PrimeField(prime)
    coerced = _coerce_tensor(cert.t_tilde, fresh)
    if coerced is None:
        results.append(("jacobian-rank", False, "tensor entries not integral; cannot recheck over a fresh prime"))
    else:
        rank = jacobian_dominance_rank(coerced, pattern, fresh)
        results.append(
            ("jacobian-rank", rank == cert.jacobian_rank == pattern.size, f"full rank over fresh prime {fresh.p}")
        )
    return results


def _coerce_tensor(t: Tensor, field: FieldContext) -> Optional[Tensor]:
    """Map an integral tensor into another field; None if entries are not integers."""
    entries = {}
    for pos, v in t.support():
        if not isinstance(v, int):
            num, den = getattr(v, "numerator", None), getattr(v, "denominator", None)
            if num is None or den != 1:
                return None
            v = num
        entries[pos] = field.from_int(v)
    return Tensor(field, t.dims, entries)


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


@dataclass(frozen=True)
class DichotomyResult:
    """Either a hypercube inside the set or an explicit small slice cover."""

    kind: str  # "hypercube" | "cover"
    hypercube: Optional[frozenset] = None
    cover: Optional[tuple] = None  # tuple of (axis, value) coordinate slices

    @property
    def cover_size(self) -> int:
        return 0 if self.cover is None else len(self.cover)


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
    instances (intended for dimensions up to ~6).
    """
    support = set(tuple(p) for p in support)
    dims = tuple(dims)
    d = len(dims)
    if max(dims, default=0) > 8 or len(support) > 400 or d > 4:
        raise SizeGuardError(f"min_slice_cover guarded to small instances, got dims={dims}, |support|={len(support)}")
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
