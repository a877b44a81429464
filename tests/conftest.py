import itertools
import json
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest

from borderlab import (NoLimitError, PrecisionError, PrimeField, QQ, ShapeError, SingularError, cli, limit_at_zero,
                       linalg)
from borderlab.series import LaurentSeries, SeriesMatrix, certify_min_valuation, muladd
from borderlab.tensors import OneParamSubgroup, SubgroupFactor, Tensor


@pytest.fixture
def fp():
    return PrimeField(1000003)


@pytest.fixture
def fields(fp):
    return [QQ, fp]


@pytest.fixture
def rng():
    return random.Random(20240917)


def series(field, terms):
    """Exact Laurent polynomial from an {exponent: int} mapping."""
    return LaurentSeries.from_terms(field, {k: field.from_int(c) for k, c in terms.items()})


def tpow(field, k):
    return LaurentSeries(field, k, [1])


def written(obj) -> str:
    """The text the command line writes of ``obj``; its writer encodes the
    matrices and tensors that document encoders leave in place."""
    pieces = []
    cli._dump_json(obj, pieces.append)
    return "".join(pieces)


def plain(obj):
    """``obj`` as the plain JSON that its written text reads back as."""
    return json.loads(written(obj))


def reduced(field, v):
    """The canonical scalar of ``v``, an int or Fraction formed by plain
    ``+``, ``-`` and ``*`` (test oracle: no field kernel is used)."""
    return Fraction(v) if field == QQ else v % field.p


def schoolbook_mul(a, b):
    """``a * b`` by the double loop over coefficient pairs (test oracle)."""
    field = a.field
    if a.is_exactly_zero() or b.is_exactly_zero():
        return LaurentSeries.zero(field)
    bounds = []
    if a.trunc is not None:
        bounds.append(a.trunc + b.valuation_lower_bound())
    if b.trunc is not None:
        bounds.append(b.trunc + a.valuation_lower_bound())
    trunc = min(bounds) if bounds else None
    terms = {}
    for i, x in enumerate(a.coeffs, a.val):
        for j, y in enumerate(b.coeffs, b.val):
            if trunc is None or i + j < trunc:
                terms[i + j] = terms.get(i + j, 0) + x * y
    return with_terms(field, terms, trunc)


def with_terms(field, terms, trunc):
    """The series of an ``{exponent: value}`` mapping, cut at ``trunc``; each
    value is an int or Fraction, reduced by :func:`reduced`."""
    lo = min(terms, default=0)
    hi = max(terms, default=-1) + 1
    return LaurentSeries(field, lo, [reduced(field, terms.get(k, 0)) for k in range(lo, hi)], trunc)


def reference_smith_form(m, n, events=None):
    """Smith reduction that keeps ``u`` in step with the working matrix: every
    row operation is applied to ``u``'s columns and every update touches the
    whole matrix (test oracle for ``loopgroup.smith_form``, with its pivot
    rule).  Returns ``(u, exponents, h2)``: the library returns the last two,
    and its check derives ``u`` as ``m · h2 · diag(t^-e)``.  A Counter
    ``events`` counts each ``row swap``, ``column swap`` and ``skipped
    multiplier``.
    """
    if m.rows != m.cols:
        raise ShapeError("Smith reduction expects a square matrix")
    bound = m.min_valuation_lower_bound()
    if bound is not None and bound < 0:
        raise ValueError("Smith reduction expects power-series entries (valuation >= 0)")
    events = Counter() if events is None else events
    size = m.rows
    field = m.field
    a = [list(row) for row in m.entries]
    u = [list(row) for row in SeriesMatrix.identity(field, size).entries]
    h2 = [list(row) for row in SeriesMatrix.identity(field, size).entries]
    exponents = []
    for k in range(size):
        cand = ((i, j) for i in range(k, size) for j in range(k, size))
        try:
            (pi, pj), pval = certify_min_valuation(((ij, a[ij[0]][ij[1]]) for ij in cand))
        except SingularError:
            raise SingularError("determinant is exactly zero") from None
        if pi != k:
            events["row swap"] += 1
            a[k], a[pi] = a[pi], a[k]
            for row in u:
                row[k], row[pi] = row[pi], row[k]
        if pj != k:
            events["column swap"] += 1
            for row in (*a, *h2):
                row[k], row[pj] = row[pj], row[k]
        pivot = a[k][k]
        pinv = pivot.inverse(n)
        for i in range(k + 1, size):
            if a[i][k].has_no_known_terms():
                events["skipped multiplier"] += 1
                continue
            f = a[i][k] * pinv
            a[i] = [muladd(x, ((f, y),), True) for x, y in zip(a[i], a[k])]
            for row in u:
                row[k] = muladd(row[k], ((f, row[i]),))
        for j in range(k + 1, size):
            if a[k][j].has_no_known_terms():
                continue
            f = a[k][j] * pinv
            for row in (*a, *h2):
                row[j] = muladd(row[j], ((f, row[k]),), True)
        unit = pivot.shift(-pval)
        for row in u:
            row[k] = row[k] * unit
        exponents.append(pval)
    return SeriesMatrix(field, u), exponents, SeriesMatrix(field, h2)


def leibniz_determinant(m):
    """Determinant of a square series matrix by Leibniz expansion (test oracle)."""
    if m.rows != m.cols or m.rows > 6:
        raise ValueError("the Leibniz oracle takes square matrices up to size 6")
    acc = LaurentSeries.zero(m.field)
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = LaurentSeries(m.field, 0, [m.field.from_int((-1) ** inversions)])
        for i, j in enumerate(perm):
            term = term * m.entries[i][j]
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# tensors and subgroups built from their definitions
# ---------------------------------------------------------------------------

def unit_tensor(field, r: int, d: int) -> Tensor:
    """The size-``r`` unit tensor: ones on the full diagonal of ``(K^r)^{⊗d}``."""
    if r < 0 or d < 2:
        raise ValueError("unit tensor needs r >= 0 and d >= 2")
    return Tensor(field, (r,) * d, {(i,) * d: field.one() for i in range(1, r + 1)})


def subgroup_from_weights(field, weights_per_factor) -> OneParamSubgroup:
    """The standard-basis one-parameter subgroup with these weights per factor."""
    return OneParamSubgroup(field, [SubgroupFactor(weights=tuple(int(w) for w in ws)) for ws in weights_per_factor])


def trivial_subgroup(field, dims):
    """The one-parameter subgroup with every weight 0."""
    return subgroup_from_weights(field, [[0] * n for n in dims])


class WeightDecomposition(NamedTuple):
    """Split of a tensor into weight components of a one-parameter subgroup.

    ``components`` maps each realized weight to the component tensor in the
    subgroup's eigenbasis; mapping the sum back through the basis recovers
    the decomposed tensor exactly.
    """

    base: OneParamSubgroup
    components: dict  # weight -> Tensor (eigenbasis coordinates)
    dims: tuple

    def weights(self) -> list:
        return sorted(self.components)

    def component(self, weight: int) -> Tensor:
        got = self.components.get(weight)
        if got is None:
            return Tensor(self.base.field, self.dims, {})
        return got


def weight_decompose(t: Tensor, subgroup: OneParamSubgroup) -> WeightDecomposition:
    """Decompose ``t`` into eigen-components of the subgroup's weights."""
    if t.dims != subgroup.dims:
        raise ShapeError(f"tensor dims {t.dims} do not match subgroup dims {subgroup.dims}")
    eigen = subgroup.to_eigen(t)
    buckets: dict = {}
    for pos, v in eigen.support():
        w = subgroup.weight_of(pos)
        buckets.setdefault(w, {})[pos] = v
    components = {
        w: Tensor(t.field, t.dims, entries) for w, entries in buckets.items()
    }
    return WeightDecomposition(base=subgroup, components=components, dims=t.dims)


# ---------------------------------------------------------------------------
# oracles over the library's records
# ---------------------------------------------------------------------------

def series_matrices(subgroup):
    """The subgroup's factors as exact series matrices ``h · diag(t^w) · h^-1``."""
    out = []
    for fac in subgroup.factors:
        d = SeriesMatrix.diag_powers(subgroup.field, list(fac.weights))
        if fac.basis is None:
            out.append(d)
        else:
            basis = [list(r) for r in fac.basis]
            h = SeriesMatrix.from_scalar_matrix(subgroup.field, basis)
            hinv = SeriesMatrix.from_scalar_matrix(subgroup.field, linalg.mat_inv(subgroup.field, basis))
            out.append(h @ d @ hinv)
    return tuple(out)


def reconstruct(dec):
    """The tensor a weight decomposition splits: its components' sum, out of the eigenbasis."""
    field = dec.base.field
    total: dict = {}
    for comp in dec.components.values():
        for pos, v in comp.support():
            total[pos] = total.get(pos, 0) + v
    total = {pos: reduced(field, v) for pos, v in total.items()}
    return dec.base.from_eigen(Tensor(field, dec.dims, total))


def difference(a, b):
    """``a - b`` entry by entry (test helper: the library forms no matrix difference)."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError("shape mismatch")
    return SeriesMatrix(a.field, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)])


def zero_mod(m, n):
    """Whether every entry of ``m`` is known and zero below ``t^n``; raises
    PrecisionError when one is not known that far."""
    return all(e.is_zero_mod(n) for row in m.entries for e in row)


def derived_h1(g, dec):
    """``g · h2 · diag(t^-w)`` with the unknown tail of each entry dropped
    (test helper): the ``h1`` that ``verify_cartan`` derives, made exact.

    The tail of column ``j`` starts at ``t^(trunc - w_j)``, so in ``h1 ·
    diag(t^w)`` it reaches only ``t^trunc`` and beyond, where ``g · h2`` is
    unknown anyway; dropping it costs a residual check no precision.
    """
    p = g @ dec.h2
    return SeriesMatrix(g.field, [[LaurentSeries.from_vector(g.field, e.val - w, e.nums, e.den)
                                   for e, w in zip(row, dec.weights)] for row in p.entries])


def stored_h1_check(g, h1, dec):
    """Whether the triple ``(h1, weights, h2)`` passes the three checks of a
    decomposition that stores ``h1`` (test oracle): ``h1`` and ``h2`` have no
    entry of certified negative valuation, ``h1(0)`` and ``h2(0)`` are
    invertible, and ``g · h2 - h1 · diag(t^w)`` vanishes mod
    ``t^precision``.  A check the precision cannot decide fails."""
    field = g.field
    for h in (h1, dec.h2):
        if min((e.val for row in h.entries for e in row if e.nums), default=0) < 0:
            return False
    h1d = SeriesMatrix(field, [[e.shift(w) for e, w in zip(row, dec.weights)] for row in h1.entries])
    try:
        return (all(linalg.is_invertible(field, h.constant_matrix()) for h in (h1, dec.h2))
                and zero_mod(difference(g @ dec.h2, h1d), dec.precision))
    except PrecisionError:
        return False


def inverse_residual_check(g, h1, dec):
    """Whether ``g - h1 · diag(t^w) · h2^{-1}`` vanishes mod ``t^precision``,
    with ``h2`` inverted explicitly, ``h1`` and ``h2`` in K[[t]] and their
    constant terms invertible (test oracle).

    Raises PrecisionError when the available precision cannot decide it.
    """
    field = g.field
    for h in (h1, dec.h2):
        if any(e.coeffs and e.val < 0 for row in h.entries for e in row):
            return False
    for h in (h1, dec.h2):
        if not linalg.is_invertible(field, h.constant_matrix()):
            return False
    h2inv = dec.h2.inverse(dec.h2.trunc if dec.h2.trunc is not None else dec.precision)
    product = h1 @ SeriesMatrix.diag_powers(field, list(dec.weights)) @ h2inv
    return zero_mod(difference(g, product), dec.precision)


def cartan_weights(witness):
    """The Cartan weights of each of a witness's decompositions."""
    return tuple(dec.weights for dec in witness.decompositions)


def cover_size(result):
    """The number of slices in a dichotomy's cover; 0 for a hypercube."""
    return 0 if result.cover is None else len(result.cover)


def elimination_rank(t_tilde, pattern, field):
    """The oracle: the restricted Jacobian built from its definition, ranked by elimination.

    Every upper-triangular matrix unit of factors 1 and 2 is a column; its
    entry at pyramid row ``(j, k, l)`` is ``T~[b, k, l]`` (factor 1,
    ``j = a``) or ``T~[j, b, l]`` (factor 2, ``k = a``).
    """
    n1, n2, _ = t_tilde.dims
    positions = pattern.positions
    entries = dict(t_tilde.support())
    columns = []
    for a in range(1, n1 + 1):
        for b in range(a, n1 + 1):
            columns.append({(a, k, l): v for (j, k, l), v in entries.items() if j == b and (a, k, l) in positions})
    for a in range(1, n2 + 1):
        for b in range(a, n2 + 1):
            columns.append({(j, a, l): v for (j, k, l), v in entries.items() if k == b and (j, a, l) in positions})
    return linalg.sparse_rank(field, columns)


# ---------------------------------------------------------------------------
# the doubling profile as exact weights: the oracle for the closed form
# ---------------------------------------------------------------------------

class _WeightProfileFields(NamedTuple):
    dims: tuple
    weights: tuple  # tuple per factor, weakly increasing
    pyramid_rank: Optional[int] = None


class WeightProfile(_WeightProfileFields):
    """Weakly increasing integer weights per tensor factor.

    ``pyramid_rank`` marks profiles produced by :func:`pyramid_weight_profile`.
    """

    __slots__ = ()

    def __new__(cls, dims: tuple, weights: tuple, pyramid_rank: Optional[int] = None):
        if len(weights) != len(dims):
            raise ShapeError("one weight list per factor required")
        for n, ws in zip(dims, weights):
            if len(ws) != n:
                raise ShapeError("weight list length must match the factor dimension")
            if any(ws[i] > ws[i + 1] for i in range(len(ws) - 1)):
                raise ValueError("weights must be weakly increasing within each factor")
        return super().__new__(cls, dims, weights, pyramid_rank)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds its copy here, so a copy is validated too
        return cls(*iterable)

    @property
    def order(self) -> int:
        return len(self.dims)

    def subgroup(self, field) -> OneParamSubgroup:
        return subgroup_from_weights(field, self.weights)


def pyramid_weight_profile(n: int, r: int) -> WeightProfile:
    """The doubling profile as integers: ``2^j`` on the first two factors and
    ``-2^(r-l+2)`` (then zeros) on the third."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    ab = tuple(2 ** j for j in range(1, n + 1))
    third = tuple(-(2 ** (r - l + 2)) if l <= r else 0 for l in range(1, n + 1))
    return WeightProfile(dims=(n, n, n), weights=(ab, ab, third), pyramid_rank=r)


class EnumeratedPyramid(NamedTuple):
    """A three-factor profile's nonpositive-weight set, found by bisecting its weights.

    ``steps[l-1][k-1]`` is the largest ``j`` with ``(j, k, l)`` in the set;
    ``zero_set`` is the equality locus.
    """

    steps: tuple
    zero_set: frozenset

    @property
    def positions(self) -> frozenset:
        return frozenset(
            (j, k, l)
            for l, layer in enumerate(self.steps, start=1)
            for k, jmax in enumerate(layer, start=1)
            for j in range(1, jmax + 1)
        )


def enumerate_pyramid(profile: WeightProfile) -> EnumeratedPyramid:
    """The nonpositive-weight set of a three-factor profile, by layers."""
    if profile.order != 3:
        raise ShapeError("pyramid enumeration expects a three-factor profile")
    a1, a2, a3 = profile.weights
    steps = []
    zeros = set()
    # the weights increase weakly, so once a k leaves no j every larger k
    # leaves none, and once a layer l is empty every later layer is too
    for l0, w3 in enumerate(a3, start=1):
        layer = []
        for k0, w2 in enumerate(a2, start=1):
            budget = -(w3 + w2)
            jmax = bisect_right(a1, budget)
            if jmax == 0:
                break
            layer.append(jmax)
            if a1[jmax - 1] == budget:
                zeros.update((j0, k0, l0) for j0 in range(bisect_left(a1, budget) + 1, jmax + 1))
        if not layer:
            break
        steps.append(tuple(layer))
    return EnumeratedPyramid(steps=tuple(steps), zero_set=frozenset(zeros))


def oracle_limit_agrees(t_tilde, s_tensor, r: int) -> bool:
    """Whether ``lim_{t->0}`` of ``t_tilde`` under the exact doubling weights of rank ``r`` is ``s_tensor``."""
    subgroup = pyramid_weight_profile(t_tilde.dims[0], r).subgroup(t_tilde.field)
    try:
        return limit_at_zero(subgroup, t_tilde) == s_tensor
    except NoLimitError:
        return False


# ---------------------------------------------------------------------------
# the block packing by the greedy loop: the oracle for its closed form
# ---------------------------------------------------------------------------

class BlockPlacement(NamedTuple):
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


def block_placements(r: int) -> tuple:
    """Where the rank-``r`` construction plants its blocks, in increasing ``s``.

    Blocks are packed greedily left-to-right from row/column ``r+1``: even
    sizes on the row axis, odd sizes on the column axis, so the intervals
    on each axis are pairwise disjoint.
    """
    placements = []
    next_start = {"j": r + 1, "k": r + 1}
    for s in range(r):
        axis = "j" if s % 2 == 0 else "k"
        placements.append(BlockPlacement(s=s, layer=r - s, axis=axis, start=next_start[axis]))
        next_start[axis] += s + 1
    return tuple(placements)


def _slices(t) -> tuple:
    """``t``'s nonzeros by first coordinate, as ``(k, l, v)``, and by second, as ``(j, l, v)``."""
    by_first: dict = {}
    by_second: dict = {}
    for (j, k, l), v in t.support():
        by_first.setdefault(j, []).append((k, l, v))
        by_second.setdefault(k, []).append((j, l, v))
    return by_first, by_second


def _unit_slice(entries, target: tuple, one, in_p) -> bool:
    """Whether a slice holds ``target -> 1`` and nothing else that ``in_p`` accepts."""
    found = False
    for c, l, v in entries:
        if (c, l) == target:
            if v != one:
                return False
            found = True
        elif in_p(c, l):
            return False
    return found


def slice_scan_cover_holds(t_tilde, pattern) -> bool:
    """The unit-column cover by scanning each block's slices of ``t_tilde``, placed greedily.

    For each block and each of its slices ``b``, the slice restricted to
    the pyramid's lines through row 1 must be exactly its unit.
    """
    one = t_tilde.field.one()
    by_first, by_second = _slices(t_tilde)
    contains = pattern.contains
    for p in block_placements(pattern.r):
        side = pattern.extent(p.layer)
        if p.axis == "j":
            slices, in_p = by_first, lambda k, l: contains((1, k, l))
        else:
            slices, in_p = by_second, lambda j, l: contains((j, 1, l))
        for c in range(1, side + 1):
            if not _unit_slice(slices.get(p.start + c - 1, ()), (c, p.layer), one, in_p):
                return False
    return True
