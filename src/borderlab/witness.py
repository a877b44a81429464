"""Executable form of the generalized Hilbert-Mumford criterion.

Given a curve ``g(t)`` in a product of loop groups that specializes a
tensor ``p`` to ``q`` at ``t -> 0``, the Cartan decomposition of each factor
``g_i = h1_i · mu_i · h2_i^{-1}`` yields

* the one-parameter subgroup ``lambda_i = h2_i(0) · mu_i · h2_i(0)^{-1}``,
* the translated point ``q~ = (h2(0) h1(0)^{-1}) · q`` in the orbit of ``q``,

and the two-sided identity ``lim_{t->0} lambda(t)·p = lim_{t->inf}
lambda(t)·q~`` holds (both limits exist).  :func:`witness_clauses` lists
these claims once: :func:`build_witness` checks a witness by them before
returning it, and :func:`recheck_witness` re-derives a stored one by them.

The classical binary-cubics example runs through the same machinery via
the fixed cubic symmetric-power lift of 2x2 matrices.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

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
                term = term * LaurentSeries(fld, 0, (fld.from_int(coef),))
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


def lambda_and_constants(fld, decs: Sequence, verdicts: Sequence, lift: Optional[str] = None) -> tuple:
    """``(factors, pairs)``: λ's factors and each factor's ``(h1_i(0), h2_i(0))``, from its Cartan decompositions.

    ``h1_i(0)`` is the one that :func:`verify_cartan` derived and handed
    back in ``verdicts[i]``.  ``lambda_i`` has the weights of ``decs[i]`` on the basis ``h2_i(0)``;
    nothing is inverted.  With ``lift="sym3"`` the one 2x2 decomposition
    gives both, lifted to binary cubics (the lift is multiplicative).
    """
    pairs = [(verdict.h1_0, dec.h2.constant_matrix()) for dec, verdict in zip(decs, verdicts)]
    weights = [tuple(dec.weights) for dec in decs]
    if lift == "sym3":
        pairs = [tuple(sym3_lift_constant(fld, m) for m in pairs[0])]
        weights = [_sym3_weights(*weights[0])]
    return tuple(SubgroupFactor(weights=w, basis=_freeze(h2_0)) for w, (_, h2_0) in zip(weights, pairs)), pairs


def _action(gs: Sequence[SeriesMatrix], p: Tensor, lift: Optional[str]) -> list:
    """The curve that moves ``p``: ``gs``, or with ``lift="sym3"`` the cubic lift of its one 2x2 matrix."""
    if lift not in (None, "sym3"):
        raise ValueError(f"unknown lift {lift!r}")
    if lift == "sym3":
        if len(gs) != 1 or p.dims != (4,):
            raise ShapeError("sym3 lift expects one 2x2 curve and a 4-dimensional tensor")
        return [sym3_lift(gs[0])]
    if len(gs) != p.order:
        raise ShapeError(f"expected {p.order} curve matrices, got {len(gs)}")
    return list(gs)


def witness_clauses(witness: LimitWitness, gs: Sequence[SeriesMatrix], p: Tensor, q: Union[Tensor, NoLimitError],
                    verdicts: Sequence):
    """Yield ``(clause, ok, detail)`` for every claim ``witness`` makes of the curve ``gs`` at ``p``.

    ``q`` is :func:`specialize` of the curve at ``p``, or the NoLimitError
    it raised, and ``verdicts`` is :func:`verify_cartan` of each matrix of
    ``gs`` and its decomposition; the caller computes them once.  The
    ``cim-residual[i]`` clauses come first, and λ and the translations are
    checked only when every one holds, as then each derived ``h1_i(0)`` is
    invertible: a stored ``T`` is ``h2_i(0) · h1_i(0)^{-1}`` exactly when
    ``T · h1_i(0) = h2_i(0)``, and is then invertible too.
    """
    fld = witness.subgroup.field
    mats = witness.translations
    for i, verdict in enumerate(verdicts):
        yield f"cim-residual[{i}]", verdict.passed, verdict.reason or "verified"
    held = all(verdict.passed for verdict in verdicts)
    translations_hold = False
    if held:
        factors, pairs = lambda_and_constants(fld, witness.decompositions, verdicts, witness.lift)
        # the shape check comes first: mat_mul reads only the first row's length
        translations_hold = len(mats) == len(pairs) and all(
            [len(row) for row in m] == [len(h1_0)] * len(h1_0) and linalg.mat_mul(fld, m, h1_0) == h2_0
            for m, (h1_0, h2_0) in zip(mats, pairs)
        )
        yield "lambda", factors == witness.subgroup.factors, "lambda_i = weights of cim[i] on the basis h2_i(0)"
        yield "translations", translations_hold, "translation i = h2_i(0) h1_i(0)^-1"
    else:
        for clause in ("lambda", "translations"):
            yield clause, False, "needs every cim-residual to hold"
    if isinstance(q, NoLimitError):
        yield "specialization", False, str(q)
    else:
        yield "specialization", q == witness.q, "lim g(t)p recomputed"
        invertible = translations_hold or all(linalg.is_invertible(fld, m) for m in mats)
        yield "translation-invertible", invertible, "h2(0) h1(0)^-1 per factor"
        yield "translation", act(mats, q) == witness.q_tilde, "qTilde = translations . q"
    for clause, limit, t, detail in (
        ("limit-zero", limit_at_zero, p, "lim_{t->0} lambda(t) p"),
        ("limit-infinity", limit_at_infinity, witness.q_tilde, "lim_{t->inf} lambda(t) qTilde"),
    ):
        try:
            ok = limit(witness.subgroup, t) == witness.shared_limit
        except NoLimitError as exc:
            ok, detail = False, str(exc)
        yield clause, ok, detail


def recheck_witness(witness: LimitWitness, gs: Sequence[SeriesMatrix], p: Tensor) -> list:
    """Re-derive every claim of a stored witness of the curve ``gs`` at ``p``.

    Returns the ordered ``(clause, ok, detail)`` triples of
    :func:`witness_clauses`, the clauses :func:`build_witness` checks.
    """
    try:
        q = specialize(_action(gs, p, witness.lift), p)
    except NoLimitError as exc:
        q = exc
    verdicts = [verify_cartan(g, dec) for g, dec in zip(gs, witness.decompositions)]
    return list(witness_clauses(witness, gs, p, q, verdicts))


def build_witness(
    gs: Sequence[SeriesMatrix],
    p: Tensor,
    n: int = DEFAULT_TRUNCATION,
    lift: Optional[str] = None,
) -> LimitWitness:
    """Construct a limit witness from a specializing curve, and check it by :func:`witness_clauses`.

    ``lift="sym3"`` treats ``gs`` as a single 2x2 curve acting on the
    4-dimensional space of binary cubics through :func:`sym3_lift`; the
    Cartan decomposition then runs on the 2x2 matrix and the subgroup and
    translation are lifted.  Each decomposition is computed at precision
    ``n`` (:func:`cartan_decompose` finds its own working precision and
    keeps only a decomposition that passes :func:`verify_cartan`).  Raises
    NoLimitError when the curve does not specialize at ``p`` or λ(t)·p has
    no limit at ``t -> 0``, PrecisionError when precision ``n`` cannot
    decide a Cartan check, and WitnessVerificationFailure naming the first
    clause that fails with its reason: the clauses ``verify`` checks.
    """
    q = specialize(_action(gs, p, lift), p)
    decs, verdicts = zip(*(cartan_decompose(g, n) for g in gs))
    factors, pairs = lambda_and_constants(p.field, decs, verdicts, lift)
    translations = tuple(_freeze(linalg.mat_mul(p.field, h2_0, linalg.mat_inv(p.field, h1_0))) for h1_0, h2_0 in pairs)
    subgroup = OneParamSubgroup(p.field, factors)
    witness = LimitWitness(subgroup, q, act(translations, q), limit_at_zero(subgroup, p), translations, decs, lift)
    for clause, ok, detail in witness_clauses(witness, gs, p, q, verdicts):
        if not ok:
            raise WitnessVerificationFailure(f"witness clause {clause} failed: {detail}")
    return witness


def _freeze(mat: Sequence[Sequence]) -> tuple:
    return tuple(tuple(row) for row in mat)
