"""Smith normal form over K[[t]] and Cartan decomposition of loop-group elements.

Every invertible matrix ``g(t)`` over the Laurent-series field factors as
``g = h1 · diag(t^w1, ..., t^wn) · h2^{-1}`` with ``h1, h2`` invertible over
the power-series ring (Cartan / Iwahori-Matsumoto decomposition of the loop
group of GL_n).  Because every ideal of K[[t]] is ``(t^b)``, the middle
factor is found by Smith reduction with minimal-valuation pivoting after
clearing denominators by a global power of ``t``.

The pivot rule is deterministic: smallest certified valuation, ties broken
in row-major scan order.  Output weights are weakly increasing; any valid
triple passes verification.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import linalg
from .errors import PrecisionError, ShapeError, SingularError
from .series import DEFAULT_TRUNCATION, LaurentSeries, SeriesMatrix, certify_min_valuation, muladd


class CartanDecomposition(NamedTuple):
    """The verified triple ``g ≡ h1 · diag(t^weights) · h2^{-1} mod t^precision``.

    ``h1(0)`` and ``h2(0)`` are invertible constant matrices, and the
    weights are weakly increasing (the canonical form produced here; the
    decomposition itself is not unique).
    """

    h1: SeriesMatrix
    weights: tuple
    h2: SeriesMatrix
    precision: int


class VerificationResult(NamedTuple):
    """Outcome of a residual check; ``residual`` is kept when it is nonzero."""

    passed: bool
    reason: str = ""
    residual: Optional[SeriesMatrix] = None


def smith_form(m: SeriesMatrix, n: int):
    """Smith reduction of a square power-series matrix at precision ``n``.

    Returns ``(u, exponents, h2)`` with ``m · h2 ≡ u · diag(t^e) mod t^n``,
    ``u(0), h2(0)`` invertible and the exponents weakly increasing; their
    sum equals the valuation of ``det m``.  The reduction is an LU
    factorisation: column ``k`` of ``u`` holds step ``k``'s pivot unit in
    the row where the pivot row of ``m`` started, and the unit times each
    multiplier in the rows where the rows it eliminates started.  ``h2`` is
    the inverse of the right transform ``v`` of ``m ≡ u · diag(t^e) · v``,
    built column operation by column operation, so no inverse is formed.
    Step ``k`` updates only the rows and columns ``> k`` of the working
    matrix, and its column operations run on ``h2`` alone: no later step
    reads row ``k`` or column ``k``, so the column below the pivot, which
    the row operations make zero to the working precision, is never formed.

    Raises SingularError when the determinant is exactly zero and
    PrecisionError when a pivot choice is ambiguous at the working
    precision.
    """
    if m.rows != m.cols:
        raise ShapeError("Smith reduction expects a square matrix")
    bound = m.min_valuation_lower_bound()
    if bound is not None and bound < 0:
        raise ValueError("Smith reduction expects power-series entries (valuation >= 0)")
    size = m.rows
    field = m.field
    a = [list(row) for row in m.entries]
    u = [[LaurentSeries.zero(field)] * size for _ in range(size)]
    h2 = [list(row) for row in SeriesMatrix.identity(field, size).entries]
    # row i of ``a`` started as row origin[i] of m, and so writes row origin[i] of u
    origin = list(range(size))
    exponents = []
    for k in range(size):
        cand = ((i, j) for i in range(k, size) for j in range(k, size))
        try:
            (pi, pj), pval = certify_min_valuation(((ij, a[ij[0]][ij[1]]) for ij in cand))
        except SingularError:
            raise SingularError("determinant is exactly zero") from None
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            origin[k], origin[pi] = origin[pi], origin[k]
        if pj != k:
            for row in (*a[k:], *h2):
                row[k], row[pj] = row[pj], row[k]
        pivot = a[k][k]
        pinv = pivot.inverse(n)
        # the unit factor of the pivot goes into u, leaving a pure t-power
        unit = pivot.shift(-pval)
        u[origin[k]][k] = unit
        for i in range(k + 1, size):
            if a[i][k].has_no_known_terms():
                continue
            f = a[i][k] * pinv
            a[i][k + 1:] = [muladd(x, ((f, y),), True) for x, y in zip(a[i][k + 1:], a[k][k + 1:])]
            u[origin[i]][k] = f * unit
        for j in range(k + 1, size):
            if a[k][j].has_no_known_terms():
                continue
            f = a[k][j] * pinv
            for row in h2:
                row[j] = muladd(row[j], ((f, row[k]),), True)
        exponents.append(pval)
    return SeriesMatrix(field, u), exponents, SeriesMatrix(field, h2)


#: how often ``cartan_decompose`` doubles its working precision when a full
#: Smith pass cannot certify a pivot
MAX_DOUBLINGS = 3


def cartan_decompose(g: SeriesMatrix, n: int = DEFAULT_TRUNCATION) -> CartanDecomposition:
    """Cartan decomposition of an invertible Laurent-series matrix at precision ``n``.

    Clears denominators with a global shift ``t^a``, Smith-reduces the
    resulting power-series matrix at a working precision ``work`` that it
    finds itself, and un-shifts the middle factor.  A precision-1 probe
    learns the exponents when it can certify its pivots, so the full pass
    starts at ``n + a + max(e)``, what the factors need.  A full pass that
    cannot certify a pivot is retried at twice the working precision, at
    most ``MAX_DOUBLINGS`` times and never once ``work`` reaches what the
    shifted input is known to.  ``h2`` is the Smith pass's own, cut at
    ``work`` when it is known beyond it and left exact when every column
    operation was exact.  The result always has precision ``n``, and is
    deterministic for fixed input and ``n``.

    Raises ValueError for ``n < 1``, SingularError when the determinant
    is exactly zero, and PrecisionError when no working precision
    certifies the pivots or ``g`` is known only below ``t^(n + max(w) -
    min(w))``: no decomposition is claimed to more precision than its
    input has, and the weight spread is what the factors lose of it.
    """
    if g.rows != g.cols:
        raise ShapeError("Cartan decomposition expects a square matrix")
    if n < 1:
        raise ValueError(f"precision must be >= 1, got {n}")
    if g.trunc is not None and g.trunc < n:
        raise PrecisionError(f"input known only to t^{g.trunc}, below precision {n}")
    bound = g.min_valuation_lower_bound()
    if bound is None:
        raise SingularError("matrix is exactly zero")
    shift = max(0, -bound)
    cleared = g.shift(shift)
    # the exponents are intrinsic (elementary divisors), so any certified
    # reduction finds the same ones: the probe at precision 1 learns them
    # when it can, and a full pass that falls short of what they need is
    # re-run where they say
    probe, work, doublings = True, 1, 0
    while True:
        try:
            u, exponents, h2 = smith_form(cleared, work)
        except PrecisionError as exc:
            if probe:
                work = n + 2 * shift
            elif doublings < MAX_DOUBLINGS and (g.trunc is None or work < g.trunc + shift):
                work, doublings = 2 * work, doublings + 1
            else:
                raise PrecisionError(f"{exc} (working precision {work}, {doublings} doublings)") from exc
        else:
            spread = max(exponents, default=0) - min(exponents, default=0)
            if g.trunc is not None and g.trunc < n + spread:
                raise PrecisionError(f"input known only to t^{g.trunc}, below precision {n} plus the weight spread {spread}")
            need = n + shift + max(exponents, default=0)
            if not probe and work >= need:
                break
            work = max(n + 2 * shift, need)
        probe = False
    weights = tuple(e - shift for e in exponents)
    if h2.trunc is not None and h2.trunc > work:
        h2 = SeriesMatrix(h2.field, [[e.truncate(work) for e in row] for row in h2.entries])
    return CartanDecomposition(h1=u, weights=weights, h2=h2, precision=n)


def verify_cartan(g: SeriesMatrix, dec: CartanDecomposition) -> VerificationResult:
    """Residual check of a claimed decomposition at its stated precision.

    Passes iff ``h1`` and ``h2`` have no entry of certified negative
    valuation (they lie in K[[t]]), their constant terms ``h1(0)``,
    ``h2(0)`` are invertible, and ``g · h2 - h1 · diag(t^w)`` vanishes mod
    ``t^precision``.  Given the first two conditions ``h2`` is invertible
    over K[[t]], so the last is equivalent to ``g - h1 · diag(t^w) · h2^{-1}
    ≡ 0`` and no inverse is formed; a failed ``residual`` holds
    ``g · h2 - h1 · diag(t^w)``.  Accepts any valid triple, not only the
    canonical one.  A check the available precision cannot decide fails,
    with the reason.
    """
    shape = (g.rows, g.cols)
    if shape != (dec.h1.rows, dec.h1.cols) or shape != (dec.h2.rows, dec.h2.cols) or len(dec.weights) != g.rows:
        raise ShapeError("decomposition shape does not match the matrix")
    field = g.field
    for name, h in (("h1", dec.h1), ("h2", dec.h2)):
        low = min((e.val for row in h.entries for e in row if e.nums), default=0)
        if low < 0:
            return VerificationResult(False, f"{name} has an entry of valuation {low}, outside K[[t]]")
    try:
        for name, h in (("h1", dec.h1), ("h2", dec.h2)):
            if not linalg.is_invertible(field, h.constant_matrix()):
                return VerificationResult(False, f"{name}(0) is not invertible")
    except PrecisionError as exc:
        return VerificationResult(False, f"constant terms not determined: {exc}")
    # h1 · diag(t^w) shifts column j of h1 by w_j
    h1d = SeriesMatrix(field, [[e.shift(w) for e, w in zip(row, dec.weights)] for row in dec.h1.entries])
    residual = g @ dec.h2 - h1d
    try:
        if residual.is_zero_mod(dec.precision):
            return VerificationResult(True)
    except PrecisionError as exc:
        return VerificationResult(False, f"insufficient precision for the residual check: {exc}")
    return VerificationResult(False, "nonzero residual", residual)


def cartan_factors(matrices, n: int = DEFAULT_TRUNCATION) -> list:
    """``(g, decomposition at precision n, verified, reason)`` per matrix, the verdict :func:`verify_cartan`'s."""
    factors = []
    for g in matrices:
        dec = cartan_decompose(g, n)
        verdict = verify_cartan(g, dec)
        factors.append((g, dec, verdict.passed, verdict.reason))
    return factors


def recheck_cartan(factors) -> list:
    """``(clause, ok, detail)`` triples re-deriving stored ``(g, decomposition, verified, reason)`` factors.

    Per factor, ``residual`` is the :func:`verify_cartan` check, and
    ``verdict`` holds when ``verified`` is its verdict and ``reason`` is
    empty exactly when it passes; with several factors they read
    ``residual[i]`` and ``verdict[i]``.
    """
    results = []
    for i, (g, dec, verified, reason) in enumerate(factors):
        verdict = verify_cartan(g, dec)
        index = f"[{i}]" if len(factors) > 1 else ""
        results.append((f"residual{index}", verdict.passed, verdict.reason or "g = h1 diag(t^w) h2^-1 mod t^N"))
        agrees = verified == verdict.passed and (reason == "") == verdict.passed
        detail = "stored verified and reason match the residual"
        if not agrees:
            detail = f"stored verified={verified}, reason={reason!r}"
        results.append((f"verdict{index}", agrees, detail))
    return results
