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

from dataclasses import dataclass
from typing import Optional

from . import linalg
from .errors import PrecisionError, ShapeError, SingularError
from .series import DEFAULT_TRUNCATION, SeriesMatrix, certify_min_valuation


@dataclass(frozen=True)
class CartanDecomposition:
    """The verified triple ``g ≡ h1 · diag(t^weights) · h2^{-1} mod t^precision``.

    ``h1(0)`` and ``h2(0)`` are invertible constant matrices, and the
    weights are weakly increasing (the canonical form produced here; the
    decomposition itself is not unique).
    """

    h1: SeriesMatrix
    weights: tuple
    h2: SeriesMatrix
    precision: int

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a residual check; ``residual`` is kept on failure."""

    passed: bool
    reason: str = ""
    residual: Optional[SeriesMatrix] = None

    def __bool__(self) -> bool:
        return self.passed


def smith_form(m: SeriesMatrix, n: int):
    """Smith reduction of a square power-series matrix at precision ``n``.

    Returns ``(u, exponents, v)`` with ``m ≡ u · diag(t^e) · v mod t^n``,
    ``u(0), v(0)`` invertible and the exponents weakly increasing; their
    sum equals the valuation of ``det m``.

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
    u = [list(row) for row in SeriesMatrix.identity(field, size).entries]
    v = [list(row) for row in SeriesMatrix.identity(field, size).entries]
    exponents = []
    for k in range(size):
        cand = ((i, j) for i in range(k, size) for j in range(k, size))
        try:
            (pi, pj), pval = certify_min_valuation(((ij, a[ij[0]][ij[1]]) for ij in cand))
        except SingularError:
            raise SingularError("determinant is exactly zero") from None
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            for row in u:
                row[k], row[pi] = row[pi], row[k]
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            v[k], v[pj] = v[pj], v[k]
        pivot = a[k][k]
        pinv = pivot.inverse(n)
        for i in range(k + 1, size):
            if a[i][k].has_no_known_terms():
                continue
            f = a[i][k] * pinv
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
            for row in u:
                row[k] = row[k] + f * row[i]
        for j in range(k + 1, size):
            if a[k][j].has_no_known_terms():
                continue
            f = a[k][j] * pinv
            for row in a:
                row[j] = row[j] - f * row[k]
            v[k] = [x + f * y for x, y in zip(v[k], v[j])]
        # pull the unit factor of the pivot into u, leaving a pure t-power
        unit = pivot.shift(-pval)
        for row in u:
            row[k] = row[k] * unit
        exponents.append(pval)
    return SeriesMatrix(field, u), exponents, SeriesMatrix(field, v)


def cartan_decompose(g: SeriesMatrix, n: int = DEFAULT_TRUNCATION) -> CartanDecomposition:
    """Cartan decomposition of an invertible Laurent-series matrix.

    Clears denominators with a global shift ``t^a``, Smith-reduces the
    resulting power-series matrix at a padded working precision, and
    un-shifts the middle factor.  Deterministic for fixed input and
    precision.
    """
    if g.rows != g.cols:
        raise ShapeError("Cartan decomposition expects a square matrix")
    bound = g.min_valuation_lower_bound()
    if bound is None:
        raise SingularError("matrix is exactly zero")
    shift = max(0, -bound)
    # the factors lose precision proportional to the largest exponent, which
    # is only known after a first reduction; the exponents are intrinsic
    # (elementary divisors), so one corrected re-run suffices
    work = n + 2 * shift
    while True:
        u, exponents, v = smith_form(g.shift(shift), work)
        need = n + shift + max(exponents, default=0)
        if work >= need:
            break
        work = need
    weights = tuple(e - shift for e in exponents)
    h2 = v.inverse(work)
    return CartanDecomposition(h1=u, weights=weights, h2=h2, precision=n)


def verify_cartan(g: SeriesMatrix, dec: CartanDecomposition) -> VerificationResult:
    """Residual check of a claimed decomposition at its stated precision.

    Passes iff ``g - h1 · diag(t^w) · h2^{-1}`` vanishes mod ``t^precision``
    and both constant terms ``h1(0)``, ``h2(0)`` are invertible.  Accepts
    any valid triple, not only the canonical one.
    """
    if (g.rows, g.cols) != (dec.h1.rows, dec.h1.cols) or len(dec.weights) != g.rows:
        raise ShapeError("decomposition shape does not match the matrix")
    field = g.field
    try:
        for name, h in (("h1", dec.h1), ("h2", dec.h2)):
            if not linalg.is_invertible(field, h.constant_matrix()):
                return VerificationResult(False, f"{name}(0) is not invertible")
    except PrecisionError as exc:
        return VerificationResult(False, f"constant terms not determined: {exc}")
    try:
        h2inv = dec.h2.inverse(dec.h2.trunc if dec.h2.trunc is not None else dec.precision)
    except (PrecisionError, SingularError) as exc:
        return VerificationResult(False, f"h2 not invertible at precision: {exc}")
    product = dec.h1 @ SeriesMatrix.diag_powers(field, list(dec.weights)) @ h2inv
    residual = g - product
    try:
        if residual.is_zero_mod(dec.precision):
            return VerificationResult(True)
    except PrecisionError as exc:
        return VerificationResult(False, f"insufficient precision for the residual check: {exc}", residual)
    return VerificationResult(False, "nonzero residual", residual)

