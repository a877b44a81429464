"""Smith normal form over K[[t]] and Cartan decomposition of loop-group elements.

Every invertible matrix ``g(t)`` over the Laurent-series field factors as
``g = h1 · diag(t^w1, ..., t^wn) · h2^{-1}`` with ``h1, h2`` invertible over
the power-series ring (Cartan / Iwahori-Matsumoto decomposition of the loop
group of GL_n).  Because every ideal of K[[t]] is ``(t^b)``, the middle
factor is found by Smith reduction with minimal-valuation pivoting after
clearing denominators by a global power of ``t``.

A decomposition is stored as its weights, ``h2`` and precision: given
those, ``h1 = g · h2 · diag(t^-w)`` is the only candidate, so
:func:`verify_cartan` derives it, and is the one precision rule:
:func:`cartan_decompose` keeps a Smith pass exactly when it passes.

The pivot rule is deterministic: smallest certified valuation, ties broken
in row-major scan order.  Output weights are weakly increasing; any valid
triple passes verification.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import linalg
from .errors import PrecisionError, ShapeError, SingularError
from .series import DEFAULT_TRUNCATION, SeriesMatrix, certify_min_valuation, muladd


class CartanDecomposition(NamedTuple):
    """The claim ``g ≡ h1 · diag(t^weights) · h2^{-1} mod t^precision`` for
    some ``h1`` in GL_n(K[[t]]), stored without ``h1``: :func:`verify_cartan`
    derives it from ``g``, the weights and ``h2``.

    ``h2(0)`` is an invertible constant matrix, and the weights are weakly
    increasing (the canonical form produced here; the decomposition itself
    is not unique).
    """

    weights: tuple
    h2: SeriesMatrix
    precision: int


class VerificationResult(NamedTuple):
    """Outcome of :func:`verify_cartan`; ``h1_0`` is the derived ``h1(0)`` when it passes."""

    passed: bool
    reason: str = ""
    h1_0: Optional[list] = None


def smith_form(m: SeriesMatrix, n: int):
    """Smith reduction of a square power-series matrix at precision ``n``.

    Returns ``(exponents, h2)`` with ``m · h2 ≡ u · diag(t^e) mod t^n`` for
    some ``u`` in GL_n(K[[t]]), ``h2(0)`` invertible and the exponents
    weakly increasing; their sum equals the valuation of ``det m``.  The
    reduction is an LU factorisation whose left factor ``u`` is not built:
    it is ``m · h2 · diag(t^-e)``, which :func:`verify_cartan` derives.
    ``h2`` is the inverse of the right transform ``v`` of ``m ≡ u ·
    diag(t^e) · v``, built column operation by column operation, so no
    inverse is formed.  Step ``k`` scales the pivot row past the pivot by
    the pivot's inverse, one product per column that serves both the row
    updates and ``h2``'s column operations: one per entry above the diagonal.
    It updates only the rows and columns ``> k`` of the working matrix, and
    its column operations run on ``h2`` alone: no later step reads row
    ``k`` or column ``k``, so the column below the pivot, which the row
    operations make zero to the working precision, is never formed, and
    each of its entries and, once the step ends, row ``k`` are released.

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
    h2 = [list(row) for row in SeriesMatrix.identity(field, size).entries]
    exponents = []
    for k in range(size):
        cand = ((i, j) for i in range(k, size) for j in range(k, size))
        try:
            (pi, pj), pval = certify_min_valuation(((ij, a[ij[0]][ij[1]]) for ij in cand))
        except SingularError:
            raise SingularError("determinant is exactly zero") from None
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for row in (*a[k:], *h2):
                row[k], row[pj] = row[pj], row[k]
        pinv = a[k][k].inverse(n)
        scaled = [y * pinv for y in a[k][k + 1:]]
        for i in range(k + 1, size):
            below, a[i][k] = a[i][k], None
            if below.has_no_known_terms():
                continue
            a[i][k + 1:] = [muladd(x, ((below, f),), True) for x, f in zip(a[i][k + 1:], scaled)]
        for j, f in enumerate(scaled, k + 1):
            if f.has_no_known_terms():
                continue
            for row in h2:
                row[j] = muladd(row[j], ((f, row[k]),), True)
        a[k] = None
        exponents.append(pval)
    return exponents, SeriesMatrix(field, h2)


#: how often ``cartan_decompose`` doubles its working precision when a full
#: Smith pass cannot certify a pivot or its decomposition fails the check
MAX_DOUBLINGS = 3


def cartan_decompose(g: SeriesMatrix, n: int = DEFAULT_TRUNCATION) -> tuple[CartanDecomposition, VerificationResult]:
    """``(decomposition, verdict)``: the Cartan decomposition of an invertible
    Laurent-series matrix at precision ``n``, and its passing :func:`verify_cartan`.

    Clears denominators with a global shift ``t^a``, Smith-reduces the
    resulting power-series matrix at a working precision ``work`` that it
    finds itself, and un-shifts the middle factor.  A precision-1 probe
    learns the exponents when it can certify its pivots, so the full pass
    starts at ``n + a + max(e)``, what the factors need.  ``h2`` is the
    pass's own, cut at ``work`` unless it is exact.  A full pass is
    kept exactly when :func:`verify_cartan` passes it; one that cannot
    certify a pivot or fails the check is retried at twice ``work``, at
    most ``MAX_DOUBLINGS`` times and never once ``work`` reaches what the
    shifted input is known to.  The result has precision ``n``, and is
    deterministic for fixed input and ``n``.

    Raises ValueError for ``n < 1``, SingularError when the determinant
    is exactly zero, and PrecisionError when ``g`` is known only below
    ``t^n`` or, with the check's reason, when no working precision passes
    it: no decomposition claims more precision than its input has.
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
            exponents, h2 = smith_form(cleared, work)
        except PrecisionError as exc:
            reason = str(exc)
        else:
            need = n + shift + max(exponents, default=0)
            if probe or work < need:
                probe, work = False, max(n + 2 * shift, need)
                continue
            if h2.trunc is not None:  # its entries share one order, so a cut at or above it is a no-op
                h2 = SeriesMatrix(h2.field, [[e.truncate(work) for e in row] for row in h2.entries])
            dec = CartanDecomposition(weights=tuple(e - shift for e in exponents), h2=h2, precision=n)
            verdict = verify_cartan(g, dec)
            if verdict.passed:
                return dec, verdict
            reason = verdict.reason
        if probe:
            probe, work = False, n + 2 * shift
        elif doublings < MAX_DOUBLINGS and (g.trunc is None or work < g.trunc + shift):
            work, doublings = 2 * work, doublings + 1
        else:
            raise PrecisionError(f"{reason} (working precision {work}, {doublings} doublings)")


def verify_cartan(g: SeriesMatrix, dec: CartanDecomposition) -> VerificationResult:
    """Check of a claimed decomposition at its stated precision, deriving ``h1``.

    The only ``h1`` with ``g · h2 = h1 · diag(t^w)`` is ``P · diag(t^-w)``,
    ``P = g · h2``: column ``j`` of ``P`` shifted down by ``w_j``.  Passes
    iff ``h2`` has no entry of certified negative valuation and ``h2(0)`` is
    invertible, ``P`` is known through ``t^precision``, column ``j`` of ``P``
    is known through ``t^w_j`` with no nonzero term below it, and ``h1(0)``
    (those ``t^w_j`` coefficients) is invertible; a pass hands ``h1(0)`` back.
    With every weight below the precision, that holds exactly when some
    stored ``h1`` passes ``g · h2 ≡ h1 · diag(t^w) mod t^precision`` with
    both factors in GL_n(K[[t]]).  A weight ``w_j >= precision`` is read the
    same way, beyond ``t^precision``, so the check certifies it where that
    residual would accept any ``h1`` column.  No inverse is formed, any
    valid triple passes, and a check the precision cannot decide fails
    with the reason.
    """
    if (g.rows, g.cols) != (dec.h2.rows, dec.h2.cols) or len(dec.weights) != g.rows:
        raise ShapeError("decomposition shape does not match the matrix")
    field = g.field
    low = min((e.val for row in dec.h2.entries for e in row if e.nums), default=0)
    if low < 0:
        return VerificationResult(False, f"h2 has an entry of valuation {low}, outside K[[t]]")
    try:
        if not linalg.is_invertible(field, dec.h2.constant_matrix()):
            return VerificationResult(False, "h2(0) is not invertible")
    except PrecisionError as exc:
        return VerificationResult(False, f"constant terms not determined: {exc}")
    p = g @ dec.h2
    if p.trunc is not None and p.trunc < dec.precision:
        return VerificationResult(False, f"insufficient precision for the residual check: "
                                         f"g h2 known only to t^{p.trunc}, below t^{dec.precision}")
    try:
        for row in p.entries:
            for e, w in zip(row, dec.weights):
                if not e.is_zero_mod(w):
                    return VerificationResult(False, f"h1 has an entry of valuation {e.val - w}, outside K[[t]]")
        h1_0 = [[e.coefficient(w) for e, w in zip(row, dec.weights)] for row in p.entries]
    except PrecisionError as exc:
        return VerificationResult(False, f"insufficient precision for the residual check: {exc}")
    if not linalg.is_invertible(field, h1_0):
        return VerificationResult(False, "h1(0) is not invertible")
    return VerificationResult(True, h1_0=h1_0)


def cartan_factors(matrices, n: int = DEFAULT_TRUNCATION) -> list:
    """``(g, decomposition at precision n, verified, reason)`` per matrix, the passing verdict it was kept on."""
    factors = []
    for g in matrices:
        dec, verdict = cartan_decompose(g, n)
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
