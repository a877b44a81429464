"""The explicit three-factor degeneration with a machine-checkable certificate.

For ``r <= isqrt(4n) - 3`` the construction plants, on top of a diagonal
unit-type tensor ``S``, one full-rank block per pyramid layer, far enough
outside the pyramid ``P`` of nonpositive-weight positions.  The resulting
tensor ``T~`` satisfies

* ``T~`` agrees with ``S`` on ``P`` and its limit under the weight
  subgroup at ``t -> 0`` is exactly ``S``;
* the derivative of the translation map ``(g1, g2) -> (g1, g2, id) · T~``,
  restricted to upper-triangular directions in the first two factors,
  covers the whole space spanned by ``P`` -- certified by its rank.

Full Jacobian rank at the one constructed point certifies dominance of the
translation map, hence density of the border-subrank->=r locus.  The
planted blocks are identity matrices, and the rank has a closed-form
proof: every row ``(j, k, l)`` of ``P`` owns one matrix unit whose
column, restricted to ``P``, is that row with entry 1 (a unit column).
``|P|`` unit columns on distinct rows form an identity submatrix, so the
rank is ``|P|`` over the integers, the rationals and every prime field at
once.  The check of that cover takes one pass over ``T~``, and it is the
only rank proof: a ``T~`` without the cover certifies nothing.

The weight subgroup is the doubling profile of ``(n, r)``, and its
weights are never built: ``P``, its zero-weight corners and the sign of
every position's weight are read from ``(n, r)`` in closed form (see
:class:`PyramidPattern`), and so are the blocks: where each one starts
(:func:`block_start`), where the packing ends (:func:`packing_end`) and,
inverting the first, which block a slice of ``T~`` belongs to.
Certifying and rechecking take time and memory in ``nnz(S) + nnz(T~)``
for any ``(n, r)``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import PlacementError
from .fields import QQ, FieldContext
from .tensors import Tensor, recognize_unit_tensor

def pyramid_size(r: int) -> int:
    """The pyramid's size by layers: ``1^2 + 2^2 + ... + r^2``."""
    return r * (r + 1) * (2 * r + 1) // 6


class PyramidPattern(NamedTuple):
    """The nonpositive-weight positions of the doubling profile of ``(n, r)``.

    The doubling profile puts the weight ``2^j`` on index ``j`` of the first
    two factors and ``-2^(r-l+2)`` on index ``l <= r`` of the third (0
    beyond), so ``(j, k, l)`` has weight ``2^j + 2^k - 2^(e+1)`` with
    ``e = r - l + 1`` when ``l <= r``, and a positive one when ``l > r``.
    That weight is negative exactly when ``j, k <= e`` and ``(j, k) != (e, e)``
    and zero exactly at the corner ``j = k = e``.  So ``P`` is
    ``{(j, k, l) : l <= r and j, k <= r - l + 1}``, layer ``l`` is the
    square of side :meth:`extent`, and the zero set is the ``r`` corners
    ``(r-l+1, r-l+1, l)``.  Every query is arithmetic on ``(n, r)``.
    """

    n: int
    r: int

    def extent(self, l: int) -> int:
        """The side ``r - l + 1`` of layer ``l``'s square."""
        return self.r - l + 1

    @property
    def size(self) -> int:
        return pyramid_size(self.r)

    @property
    def positions(self) -> frozenset:
        """Every position as a tuple, built afresh on each read."""
        return frozenset(
            (j, k, l)
            for l in range(1, self.r + 1)
            for k in range(1, self.extent(l) + 1)
            for j in range(1, self.extent(l) + 1)
        )

    def contains(self, pos) -> bool:
        j, k, l = pos
        e = self.extent(l)
        return 1 <= l <= self.r and 1 <= j <= e and 1 <= k <= e


def build_pyramid(n: int, r: int) -> PyramidPattern:
    """The pyramid of the doubling profile of ``(n, r)``; needs ``1 <= r <= n``."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return PyramidPattern(n, r)


def fit_bound(r: int) -> int:
    """Smallest ambient dimension accepted for rank ``r``: ceil((r+3)^2/4)."""
    return -((-((r + 3) ** 2)) // 4)


def block_start(r: int, s: int) -> int:
    """Where the rank-``r`` construction's block of size ``s+1`` starts.

    The blocks are packed from index ``r+1`` on, even sizes on the first
    axis and odd ones on the second, in increasing ``s``, so the intervals
    on each axis are disjoint.  Block ``s = 2m`` starts at ``r+1+m^2`` on
    the first axis, after the blocks of sizes ``1, 3, ..., 2m-1``; block
    ``s = 2m+1`` at ``r+1+m(m+1)`` on the second, after ``2, 4, ..., 2m``.
    """
    m = s // 2
    return r + 1 + (m * m if s % 2 == 0 else m * (m + 1))


def packing_end(r: int) -> int:
    """The last index the rank-``r`` packing uses on either axis: ``r + floor((r+1)^2/4)``.

    It is at most ``fit_bound(r) - 2``, so every block fits in ``[1, n]``
    once ``4n >= (r+3)^2``.
    """
    return r + (r + 1) ** 2 // 4


def _block_at(r: int, c: int, first_axis: bool) -> tuple:
    """``(s, i)``: index ``c > r`` is entry ``i`` of block ``s``'s interval on its axis.

    The inverse of :func:`block_start`; ``s`` is ``r`` or more when ``c``
    lies past the packing.
    """
    d = c - r - 1
    if first_axis:
        m = math.isqrt(d)
        return 2 * m, d - m * m
    m = (math.isqrt(4 * d + 1) - 1) // 2
    return 2 * m + 1, d - m * (m + 1)


def build_planted_tensor(field: FieldContext, n: int, r: int):
    """Build ``(T~, S)`` for the rank-``r`` degeneration.

    ``S`` has ones exactly on the pyramid corners ``(r-l+1, r-l+1, l)``;
    ``T~`` adds one ``(s+1) x (s+1)`` identity block per layer ``l = r-s``
    from :func:`block_start` on, planted as its diagonal.

    Raises PlacementError when ``4n < (r+3)^2``; otherwise every block
    fits (see :func:`packing_end`).
    """
    # a rank r >= 1 that fits has r < n, so the fit is the only check on n
    if r < 1:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if 4 * n < (r + 3) ** 2:
        raise PlacementError(
            f"fit condition violated: n >= (r+3)^2/4 requires n >= {fit_bound(r)} for r={r}, got n={n}"
        )
    one = field.one()
    corners = {(r - l + 1, r - l + 1, l): one for l in range(1, r + 1)}
    entries = dict(corners)
    for s in range(r):
        start = block_start(r, s)
        for i in range(s + 1):
            if s % 2 == 0:
                entries[(start + i, 1 + i, r - s)] = one
            else:
                entries[(1 + i, start + i, r - s)] = one

    t_tilde = Tensor(field, (n, n, n), entries)
    s_tensor = Tensor(field, (n, n, n), corners)
    return t_tilde, s_tensor


def unit_cover_holds(t_tilde: Tensor, pattern: PyramidPattern) -> bool:
    """Whether every row of ``pattern`` has its closed-form unit column in ``t_tilde``.

    Row ``(j, k, l)`` on layer ``l = r - s`` (``r`` the number of layers)
    names one column of the restricted Jacobian, with ``start`` the
    :func:`block_start` of that layer's block:

    * even ``s``: the factor-1 column ``E_{j,b}``, ``b = start + k - 1``;
    * odd ``s``: the factor-2 column ``E_{k,b}``, ``b = start + j - 1``.

    Every such column is upper triangular: ``b >= start >= r + 1``, and
    its first index is at most ``r - l + 1``.  The cover holds when each
    column restricted to the pyramid is exactly ``{its row: 1}``.  The
    pyramid is downward closed, so the column ``E_{a,b}`` restricted to it
    reads the slice ``b`` of ``T~`` on the lines ``(k, l)`` (or ``(j, l)``)
    with ``l <= r`` and ``k <= r - l + 1``: the slice's reach.  So the
    cover holds exactly when every entry of ``T~`` in the reach of a
    block's slice ``b = start + i`` is that slice's unit, ``1`` at
    ``(i + 1, r - s)``, and all ``r(r+1)/2`` units are there.  One pass
    over ``T~`` decides it, with the block of a slice found by inverting
    :func:`block_start`: ``O(nnz(T~))`` time and ``O(1)`` memory, whatever
    ``r`` is.
    """
    r = pattern.r
    one = t_tilde.field.one()
    units = 0
    for (j, k, l), v in t_tilde.support():
        e = pattern.extent(l)
        if j > r and k <= e:
            (s, i), line = _block_at(r, j, True), k
        elif k > r and j <= e:
            (s, i), line = _block_at(r, k, False), j
        else:
            continue
        if s >= r:
            continue
        if (line, l, v) != (i + 1, r - s, one):
            return False
        units += 1
    return units == r * (r + 1) // 2


def jacobian_dominance_rank(t_tilde: Tensor, pattern: PyramidPattern) -> int:
    """The rank a certificate claims for the translation derivative restricted to the pyramid.

    Rows are indexed by the pyramid positions; columns by upper-triangular
    matrix units ``E_ab`` acting on factor 1 or factor 2 (the entry at row
    ``(j,k,l)`` for a factor-1 column is ``T~[b,k,l]`` if ``j = a``, and
    symmetrically for factor 2).  This is a certificate check, not a
    general rank routine: when :func:`unit_cover_holds` the rank is
    ``|P|`` over every field, and otherwise no rank is claimed and 0 comes
    back.
    """
    return pattern.size if unit_cover_holds(t_tilde, pattern) else 0


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------

VERDICT_CERTIFIED = "Certified"
VERDICT_INCONCLUSIVE = "Inconclusive"


class DegenerationCertificate(NamedTuple):
    """The witness tensors and the claims a recheck compares.

    Everything else is read from ``(n, r)`` in closed form: the pyramid,
    its corners, the sign of each weight (so the limit) and the block
    packing, at a cost in ``nnz(S) + nnz(T~)`` for any ``(n, r)``.
    ``recipe`` is the ``(n, r)`` that the stored doubling profile names.
    """

    n: int
    r: int
    recipe: tuple
    s_tensor: Tensor
    t_tilde: Tensor
    jacobian_rank: int
    pyramid_size: int
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
    in_p = pattern.contains
    return {pos: v for pos, v in t_tilde.support() if in_p(pos)} == {
        pos: v for pos, v in s_tensor.support() if in_p(pos)
    }


def limit_agrees(t_tilde: Tensor, s_tensor: Tensor, pattern: PyramidPattern) -> bool:
    """Whether ``T~``'s limit at ``t -> 0`` under the doubling profile exists and equals ``S``.

    Off the pyramid every weight is positive and its entries vanish in the
    limit; inside it only the corners have weight 0 and the rest have a
    negative one.  So the limit exists iff ``T~`` has no nonzero on the
    pyramid off its corners, and it is ``T~`` on the corners.  One pass
    over ``T~``'s support, with no weight built.
    """
    kept = {}
    for pos, v in t_tilde.support():
        if pattern.contains(pos):
            j, k, l = pos
            if not j == k == pattern.extent(l):
                return False
            kept[pos] = v
    return Tensor(t_tilde.field, t_tilde.dims, kept) == s_tensor


def _claim_clauses(cert: DegenerationCertificate, pattern: PyramidPattern, rank: int):
    """Yield ``(clause, ok, detail)`` for every claim of ``cert`` but its verdict.

    ``pattern`` is the pyramid of ``(cert.n, cert.r)`` and ``rank`` the
    Jacobian rank re-derived from ``cert.t_tilde``; the caller computes it
    once, so that certifying and rechecking each rank ``T~`` once.
    """
    yield "profile", cert.recipe == (cert.n, cert.r), "stored recipe is the doubling profile of (n, r)"
    yield "pyramid", pattern.size == cert.pyramid_size, "pyramid size r(r+1)(2r+1)/6"
    yield "placements", packing_end(cert.r) <= cert.n, "blocks packed greedily from r+1 inside [1, n]"
    yield "restriction", restriction_agrees(cert.t_tilde, cert.s_tensor, pattern), "T|_P = S|_P"
    yield "limit", limit_agrees(cert.t_tilde, cert.s_tensor, pattern), "limit of T~ at t->0 equals S"
    yield "unit-tensor", recognize_unit_tensor(cert.s_tensor) == cert.r, "S is a diagonal unit tensor of size r"
    yield (
        "jacobian-rank",
        rank == cert.jacobian_rank == pattern.size,
        "unit-column cover: |P| unit columns on distinct rows",
    )


def certify_lower_bound(n: int, r: Optional[int] = None) -> DegenerationCertificate:
    """Run the full pipeline over the rationals and return a self-contained certificate.

    ``r`` defaults to ``isqrt(4n) - 3``, and to 1 below ``n = 4``, the fit
    bound of ``r = 1``, where no rank fits and the fit check refuses ``n``.  The
    identity blocks give the unit-column cover, whose full rank holds over
    the integers and so over every field; nothing is drawn at random.  The
    verdict is Certified exactly when every clause that
    :func:`recheck_certificate` checks holds, and Inconclusive otherwise: a
    missing cover proves nothing either way.
    """
    if r is None:
        r = max(default_rank(n), 1)
    t_tilde, s_tensor = build_planted_tensor(QQ, n, r)
    pattern = build_pyramid(n, r)
    rank = jacobian_dominance_rank(t_tilde, pattern)
    cert = DegenerationCertificate(
        n=n,
        r=r,
        recipe=(n, r),
        s_tensor=s_tensor,
        t_tilde=t_tilde,
        jacobian_rank=rank,
        pyramid_size=pattern.size,
        verdict=VERDICT_INCONCLUSIVE,
    )
    if all(ok for _, ok, _ in _claim_clauses(cert, pattern, rank)):
        cert = cert._replace(verdict=VERDICT_CERTIFIED)
    return cert


def recheck_certificate(cert: DegenerationCertificate):
    """Re-derive every checkable claim of a stored certificate from scratch.

    Returns an ordered list of ``(clause, ok, detail)`` triples.  The
    pyramid, its corners and the end of the block packing are read from
    ``(n, r)`` in closed form; the restriction, the limit, the unit tensor and the rank
    are recomputed from the stored tensors.  A stored claim passes only
    when it equals its re-derived value: the profile recipe, the rank and
    pyramid size, and the verdict, which must read Certified exactly when
    every other clause holds.  The Jacobian rank is re-derived from the unit-column
    cover of the stored ``T~``, so the result draws nothing at random.
    """
    pattern = build_pyramid(cert.n, cert.r)
    results = list(_claim_clauses(cert, pattern, jacobian_dominance_rank(cert.t_tilde, pattern)))
    holds = all(ok for _, ok, _ in results)
    results.append(
        (
            "verdict",
            (cert.verdict == VERDICT_CERTIFIED) == holds,
            f"{VERDICT_CERTIFIED} exactly when every clause above holds",
        )
    )
    return results
