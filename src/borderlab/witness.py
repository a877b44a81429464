"""Executable form of the generalized Hilbert-Mumford criterion.

Given a curve ``g(t)`` in a product of loop groups that specializes a
tensor ``p`` to ``q`` at ``t -> 0``, the Cartan decomposition of each factor
``g_i = h1_i · mu_i · h2_i^{-1}`` yields

* the one-parameter subgroup ``lambda_i = h2_i(0) · mu_i · h2_i(0)^{-1}``,
* the translated point ``q~ = (h2(0) h1(0)^{-1}) · q`` in the orbit of ``q``,

and the two-sided identity ``lim_{t->0} lambda(t)·p = lim_{t->inf}
lambda(t)·q~`` holds (both limits exist).  Construction verifies the
identity before returning; a mismatch is never accepted silently.

The classical binary-cubics example runs through the same machinery via
the fixed cubic symmetric-power lift of 2x2 matrices.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import linalg
from .errors import NoLimitError, ShapeError, WitnessVerificationFailure
from .loopgroup import cartan_decompose, verify_cartan
from .series import DEFAULT_TRUNCATION, LaurentSeries, SeriesMatrix
from .tensors import (
    OneParamSubgroup,
    SubgroupFactor,
    Tensor,
    act,
    act_series,
    limit_at_infinity,
    limit_at_zero,
)

_BINOM = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1))


def sym3_lift(m: SeriesMatrix) -> SeriesMatrix:
    """Matrix of a 2x2 series matrix acting on binary cubic forms.

    An element ``[[a, b], [c, d]]`` sends ``f(x, y)`` to
    ``f(dx - by, -cx + ay)``; the returned 4x4 matrix expresses this on the
    ordered basis ``(x^3, x^2 y, x y^2, y^3)``.  The lift is multiplicative:
    ``sym3_lift(g h) = sym3_lift(g) sym3_lift(h)``.
    """
    if (m.rows, m.cols) != (2, 2):
        raise ShapeError("sym3_lift expects a 2x2 matrix")
    fld = m.field
    a, b = m.entries[0]
    c, d = m.entries[1]
    nb, nc = -b, -c
    # powers up to cube of each of d, -b, -c, a
    pw = {}
    for name, base in (("d", d), ("nb", nb), ("nc", nc), ("a", a)):
        cur = [LaurentSeries.one(fld)]
        for _ in range(3):
            cur.append(cur[-1] * base)
        pw[name] = cur
    zero = LaurentSeries.zero(fld)
    out = [[zero] * 4 for _ in range(4)]
    for i in range(4):  # column: image of x^{3-i} y^i
        for p in range(3 - i + 1):
            for q in range(i + 1):
                coef = _BINOM[3 - i][p] * _BINOM[i][q]
                term = pw["d"][p] * pw["nb"][3 - i - p] * pw["nc"][q] * pw["a"][i - q]
                term = term.scale(fld.from_int(coef))
                row = 3 - p - q  # x-power p+q lands on basis index 3-(p+q)
                out[row][i] = out[row][i] + term
    return SeriesMatrix(fld, out)


def sym3_lift_constant(fld, mat: Sequence[Sequence]) -> list:
    """Constant-matrix version of :func:`sym3_lift`."""
    lifted = sym3_lift(SeriesMatrix.from_scalar_matrix(fld, mat))
    return lifted.constant_matrix()


def _sym3_weights(w1: int, w2: int) -> tuple:
    # diag(t^w1, t^w2) acts on x^{3-i} y^i by t^{i*w1 + (3-i)*w2}
    return tuple(i * w1 + (3 - i) * w2 for i in range(4))


def specialize(gs: Sequence[SeriesMatrix], p: Tensor) -> Tensor:
    """The tensor ``q = lim_{t->0} g(t) · p`` along an exact curve.

    Requires every matrix entry to be an exact Laurent polynomial so that
    valuations are certain.  Raises :class:`NoLimitError` with the first
    (row-major) offending position and its negative valuation when the
    limit does not exist.
    """
    moved = act_series(list(gs), p)
    constant_terms = {}
    for pos, e in moved.support():
        if e.val < 0:
            raise NoLimitError(
                f"curve does not specialize: entry {pos} has valuation {e.val}", position=pos, weight=e.val
            )
        constant_terms[pos] = e.coefficient(0)
    return Tensor(p.field, moved.dims, constant_terms)


class LimitWitness(NamedTuple):
    """A verified two-sided-limit witness.

    ``limit_at_zero(subgroup, p)`` and ``limit_at_infinity(subgroup,
    q_tilde)`` both exist and equal ``shared_limit``; ``q_tilde`` is the
    image of ``q`` under the recorded invertible constant translations, so
    it lies in the orbit of ``q`` by construction.
    """

    subgroup: OneParamSubgroup
    q: Tensor
    q_tilde: Tensor
    shared_limit: Tensor
    translations: tuple  # per-factor constant matrices h2(0) · h1(0)^{-1}
    decompositions: tuple  # per-factor CartanDecomposition
    lift: Optional[str] = None


def subgroup_and_translations(fld, decs: Sequence, lift: Optional[str] = None) -> tuple:
    """``(lambda, translations)`` as a witness derives them from its Cartan decompositions.

    ``lambda_i`` has the weights of ``decs[i]`` on the basis ``h2_i(0)``,
    and translation ``i`` is ``h2_i(0) · h1_i(0)^{-1}``.  With
    ``lift="sym3"`` the one 2x2 decomposition gives both, lifted to binary
    cubics.  Each ``h1_i(0)`` must be invertible, as a verified
    decomposition's is.
    """
    factors = []
    translations = []
    for dec in decs:
        h2_0 = dec.h2.constant_matrix()
        translations.append(linalg.mat_mul(fld, h2_0, linalg.mat_inv(fld, dec.h1.constant_matrix())))
        factors.append(SubgroupFactor(weights=tuple(dec.weights), basis=_freeze(h2_0)))
    if lift == "sym3":
        if len(decs) != 1:
            raise ShapeError(f"sym3 lift expects one 2x2 decomposition, got {len(decs)}")
        basis = sym3_lift_constant(fld, factors[0].basis)
        factors = [SubgroupFactor(weights=_sym3_weights(*factors[0].weights), basis=_freeze(basis))]
        translations = [sym3_lift_constant(fld, translations[0])]
    return OneParamSubgroup(fld, factors), tuple(_freeze(m) for m in translations)


def build_witness(
    gs: Sequence[SeriesMatrix],
    p: Tensor,
    n: int = DEFAULT_TRUNCATION,
    lift: Optional[str] = None,
) -> LimitWitness:
    """Construct and verify a limit witness from a specializing curve.

    ``lift="sym3"`` treats ``gs`` as a single 2x2 curve acting on the
    4-dimensional space of binary cubics through :func:`sym3_lift`; the
    Cartan decomposition then runs on the 2x2 matrix and the subgroup and
    translation are lifted.  Each decomposition is computed and checked at
    precision ``n`` (:func:`cartan_decompose` finds its own working
    precision); a check that fails, or that precision ``n`` cannot decide,
    raises WitnessVerificationFailure with its reason.
    """
    fld = p.field
    if lift not in (None, "sym3"):
        raise ValueError(f"unknown lift {lift!r}")
    if lift == "sym3":
        if len(gs) != 1 or p.dims != (4,):
            raise ShapeError("sym3 lift expects one 2x2 curve and a 4-dimensional tensor")
        action = [sym3_lift(gs[0])]
    else:
        action = list(gs)
        if len(action) != p.order:
            raise ShapeError(f"expected {p.order} curve matrices, got {len(action)}")
    q = specialize(action, p)

    decs = []
    for g in gs:
        dec = cartan_decompose(g, n)
        check = verify_cartan(g, dec)
        if not check:
            raise WitnessVerificationFailure(f"Cartan decomposition failed to verify: {check.reason}")
        decs.append(dec)
    subgroup, translations = subgroup_and_translations(fld, decs, lift)
    q_tilde = act(translations, q)

    try:
        lim0 = limit_at_zero(subgroup, p)
        liminf = limit_at_infinity(subgroup, q_tilde)
    except NoLimitError as exc:
        raise WitnessVerificationFailure(f"witness limit does not exist: {exc}") from exc
    if lim0 != liminf:
        raise WitnessVerificationFailure(
            "the two witness limits disagree (precision failure or bug): "
            f"t->0 gives {lim0!r}, t->inf gives {liminf!r}"
        )
    return LimitWitness(
        subgroup=subgroup,
        q=q,
        q_tilde=q_tilde,
        shared_limit=lim0,
        translations=translations,
        decompositions=tuple(decs),
        lift=lift,
    )


def _freeze(mat: Sequence[Sequence]) -> tuple:
    return tuple(tuple(row) for row in mat)
