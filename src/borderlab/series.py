"""Truncated Laurent series over an exact field, matrices of them, and the
coefficient context of exact Laurent polynomials that series tensors use.

A series is stored as a coefficient window starting at its valuation plus a
truncation order ``trunc``: coefficients of ``t^k`` for ``k < trunc`` are
known exactly, everything above is unknown.  ``trunc is None`` means the
series is an exact Laurent polynomial (no unknown tail).  Values are
immutable after construction and all operations are pure, so everything
here is safe for unrestricted concurrent use.

A product is computed by the field's :meth:`~borderlab.fields.FieldContext.convolve`
kernel, a sum by adding the aligned coefficient slices.

Truncation orders propagate through arithmetic automatically:
``add`` takes the minimum, ``mul`` uses ``min(Na + v(b), Nb + v(a))``, and
unit inversion is the only operation that turns exact input into truncated
output (except for monomials, which invert exactly).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import FieldMismatchError, PrecisionError, ShapeError, SingularError
from .fields import FieldContext

#: Default truncation order for decompositions when the caller gives none.
DEFAULT_TRUNCATION = 32


class LaurentSeries:
    """A truncated or exact Laurent series over a :class:`FieldContext`.

    Parameters
    ----------
    field : FieldContext
    val : int
        Exponent of the first stored coefficient.
    coeffs : sequence
        Coefficients of ``t^val, t^(val+1), ...``; normalized so that the
        first and last stored coefficients are nonzero.
    trunc : int | None
        Coefficients of ``t^k`` with ``k >= trunc`` are unknown; ``None``
        marks an exact series.
    """

    __slots__ = ("field", "val", "coeffs", "trunc")

    def __init__(self, field: FieldContext, val: int, coeffs: Sequence, trunc: Optional[int] = None):
        coeffs = list(coeffs)
        if trunc is not None:
            # defensive clip: drop stored coefficients at or above trunc
            keep = trunc - val
            if keep < len(coeffs):
                coeffs = coeffs[: max(keep, 0)]
        while coeffs and field.is_zero(coeffs[0]):
            coeffs.pop(0)
            val += 1
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        if not coeffs:
            val = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldContext) -> "LaurentSeries":
        return cls(field, 0, ())

    @classmethod
    def constant(cls, field: FieldContext, c) -> "LaurentSeries":
        return cls(field, 0, (c,))

    @classmethod
    def one(cls, field: FieldContext) -> "LaurentSeries":
        return cls.constant(field, field.one())

    @classmethod
    def monomial(cls, field: FieldContext, c, exponent: int) -> "LaurentSeries":
        return cls(field, exponent, (c,))

    @classmethod
    def t_power(cls, field: FieldContext, exponent: int) -> "LaurentSeries":
        return cls.monomial(field, field.one(), exponent)

    @classmethod
    def from_terms(cls, field: FieldContext, terms: dict) -> "LaurentSeries":
        """Exact series from an ``{exponent: coefficient}`` mapping."""
        if not terms:
            return cls.zero(field)
        lo = min(terms)
        hi = max(terms)
        coeffs = [terms.get(k, field.zero()) for k in range(lo, hi + 1)]
        return cls(field, lo, coeffs)

    # -- structure queries -------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.trunc is None

    def is_exactly_zero(self) -> bool:
        return self.is_exact and not self.coeffs

    def has_no_known_terms(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        """The t-adic valuation; raises if it cannot be certified."""
        if self.coeffs:
            return self.val
        if self.is_exact:
            raise SingularError("valuation of the exact zero series")
        raise PrecisionError(
            f"series is zero to precision t^{self.trunc}; valuation not certifiable"
        )

    def valuation_lower_bound(self) -> Optional[int]:
        """A certified lower bound on the valuation; ``None`` means +infinity."""
        if self.coeffs:
            return self.val
        if self.is_exact:
            return None
        return self.trunc

    def coefficient(self, k: int):
        """Coefficient of ``t^k``; raises PrecisionError if it is unknown."""
        if self.trunc is not None and k >= self.trunc:
            raise PrecisionError(f"coefficient of t^{k} unknown (truncated at t^{self.trunc})")
        if self.val <= k < self.val + len(self.coeffs):
            return self.coeffs[k - self.val]
        return self.field.zero()

    def known_through(self, n: int) -> bool:
        """Whether all coefficients below ``t^n`` are known."""
        return self.trunc is None or self.trunc >= n

    def support(self) -> Iterable[tuple[int, object]]:
        for i, c in enumerate(self.coeffs):
            yield self.val + i, c

    # -- arithmetic ---------------------------------------------------------

    def _common_field(self, other: "LaurentSeries") -> FieldContext:
        if not isinstance(other, LaurentSeries):
            raise TypeError(f"expected LaurentSeries, got {type(other).__name__}")
        self.field.ensure_same(other.field)
        return self.field

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        field = self._common_field(other)
        if self.trunc is None:
            trunc = other.trunc
        elif other.trunc is None:
            trunc = self.trunc
        else:
            trunc = min(self.trunc, other.trunc)
        if not self.coeffs or not other.coeffs:
            s = self if self.coeffs else other
            return LaurentSeries(field, s.val, s.coeffs, trunc)
        first, second = (self, other) if self.val <= other.val else (other, self)
        # the coefficients of ``first`` below ``second``'s start are copied,
        # the overlap is added slot by slot, and whichever tail is left over
        # is copied; the constructor cuts the sum at trunc
        xs, ys = first.coeffs, second.coeffs
        off = second.val - first.val
        if off >= len(xs):
            out = [*xs, *[field.zero()] * (off - len(xs)), *ys]
        else:
            both = min(len(xs) - off, len(ys))
            out = [*xs[:off], *map(field.add, xs[off : off + both], ys), *xs[off + both :], *ys[both:]]
        return LaurentSeries(field, first.val, out, trunc)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.field, self.val, [self.field.neg(c) for c in self.coeffs], self.trunc)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        field = self._common_field(other)
        if self.is_exactly_zero() or other.is_exactly_zero():
            return LaurentSeries.zero(field)
        va = self.valuation_lower_bound()
        vb = other.valuation_lower_bound()
        bounds = []
        if self.trunc is not None:
            bounds.append(self.trunc + vb)
        if other.trunc is not None:
            bounds.append(other.trunc + va)
        trunc = min(bounds) if bounds else None
        if not self.coeffs or not other.coeffs:
            return LaurentSeries(field, 0, (), trunc)
        lo = self.val + other.val
        hi = self.val + len(self.coeffs) + other.val + len(other.coeffs) - 1
        if trunc is not None:
            hi = min(hi, trunc)
        return LaurentSeries(field, lo, field.convolve(self.coeffs, other.coeffs, hi - lo), trunc)

    def scale(self, c) -> "LaurentSeries":
        if self.field.is_zero(c):
            return LaurentSeries.zero(self.field)
        return LaurentSeries(self.field, self.val, [self.field.mul(c, x) for x in self.coeffs], self.trunc)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by ``t^k``."""
        return LaurentSeries(
            self.field, self.val + k, self.coeffs, None if self.trunc is None else self.trunc + k
        )

    def truncate(self, n: int) -> "LaurentSeries":
        if self.trunc is not None and self.trunc <= n:
            return self
        return LaurentSeries(self.field, self.val, self.coeffs, n)

    def inverse(self, n: int) -> "LaurentSeries":
        """Multiplicative inverse ``s⁻¹`` with ``s · s⁻¹ ≡ 1 mod t^n``.

        The result has valuation ``-v(s)``.  It is exact only when ``s`` is
        a single monomial; otherwise it carries the truncation implied by
        ``n`` and by the precision of ``s``.
        """
        field = self.field
        if not self.coeffs:
            # exact zero violates the unit precondition; unknown valuation
            # is a precision failure
            self.valuation()
        v = self.val
        if len(self.coeffs) == 1 and self.is_exact:
            return LaurentSeries.monomial(field, field.inv(self.coeffs[0]), -v)
        avail = n if self.trunc is None else min(n, self.trunc - v)
        m = max(avail, 1)
        lead_inv = field.inv(self.coeffs[0])
        out = [lead_inv]
        # u = t^{-v} * s has unit constant term; solve u * x = 1 term by term
        for k in range(1, m):
            acc = field.zero()
            for i in range(1, min(k, len(self.coeffs) - 1) + 1):
                acc = field.add(acc, field.mul(self.coeffs[i], out[k - i]))
            out.append(field.neg(field.mul(lead_inv, acc)))
        return LaurentSeries(field, -v, out, m - v)

    # -- comparisons --------------------------------------------------------

    def is_zero_mod(self, n: int) -> bool:
        """True iff all coefficients below ``t^n`` are known and vanish."""
        for k, c in self.support():
            if k >= n:
                break
            if not self.field.is_zero(c):
                return False
        if not self.known_through(n):
            raise PrecisionError(f"zero test mod t^{n} needs precision {n}, have t^{self.trunc}")
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.val == other.val
            and self.coeffs == other.coeffs
            and self.trunc == other.trunc
        )

    def __hash__(self):
        return hash((self.val, self.coeffs, self.trunc))

    def __repr__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for k, c in self.support():
                if self.field.is_zero(c):
                    continue
                cs = self.field.format(c)
                if k == 0:
                    parts.append(cs)
                elif k == 1:
                    parts.append(f"{cs}*t" if cs != "1" else "t")
                else:
                    parts.append(f"{cs}*t^{k}" if cs != "1" else f"t^{k}")
            body = " + ".join(parts)
        tail = "" if self.is_exact else f" + O(t^{self.trunc})"
        return f"<{body}{tail}>"


class LaurentPolynomials:
    """Coefficient context of exact Laurent polynomials over ``field``.

    It gives a :class:`~borderlab.tensors.Tensor` series entries: an
    unstored position of such a tensor is exactly zero, so a series with an
    unknown tail has no place in one and :meth:`is_zero` rejects it.
    """

    __slots__ = ("field",)

    def __init__(self, field: FieldContext):
        self.field = field

    def zero(self) -> LaurentSeries:
        return LaurentSeries.zero(self.field)

    def add(self, a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
        return a + b

    def sub(self, a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
        return a - b

    def mul(self, a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
        return a * b

    def is_zero(self, a: LaurentSeries) -> bool:
        if not a.is_exact:
            raise PrecisionError(
                f"series known only to t^{a.trunc} where an exact Laurent polynomial is needed"
            )
        return not a.coeffs

    def ensure_same(self, other) -> None:
        if self != other:
            raise FieldMismatchError(f"mixed coefficient contexts: {self} vs {other}")

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPolynomials) and self.field == other.field

    def __hash__(self):
        return hash(("LaurentPolynomials", self.field))

    def __repr__(self) -> str:
        return f"LaurentPolynomials({self.field!r})"


# ---------------------------------------------------------------------------
# pivot certification shared by Smith reduction and matrix inversion
# ---------------------------------------------------------------------------

def certify_min_valuation(candidates):
    """Pick the entry of smallest certified valuation from ``candidates``.

    ``candidates`` is a scan-ordered iterable of ``(key, LaurentSeries)``;
    ties keep the earliest key, so row-major scan order gives the row-major
    tie-break.  Raises SingularError when every candidate is exactly zero
    and PrecisionError when a zero-to-precision candidate makes the choice
    ambiguous.
    """
    best_key = None
    best_val = None
    uncertain = []
    for key, s in candidates:
        if s.coeffs:
            if best_val is None or s.val < best_val:
                best_key, best_val = key, s.val
        elif not s.is_exact:
            uncertain.append((key, s.trunc))
    if best_key is None:
        if uncertain:
            raise PrecisionError(
                "all pivot candidates are zero to precision; valuations not certifiable"
            )
        raise SingularError("all pivot candidates are exactly zero")
    for key, tr in uncertain:
        if tr <= best_val:
            raise PrecisionError(
                f"pivot ambiguous: candidate at {key} is zero to precision t^{tr}, "
                f"below the best certified valuation {best_val}"
            )
    return best_key, best_val


class SeriesMatrix:
    """A rectangular matrix of Laurent series sharing one truncation order.

    The constructor re-truncates every entry to the weakest entry's order
    (``None`` when all entries are exact), so a matrix always has a single
    well-defined precision.
    """

    __slots__ = ("field", "rows", "cols", "entries", "trunc")

    def __init__(self, field: FieldContext, entries: Sequence[Sequence[LaurentSeries]]):
        entries = [list(row) for row in entries]
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(row) != cols for row in entries):
            raise ShapeError("ragged rows in series matrix")
        trunc = None
        for row in entries:
            for e in row:
                field.ensure_same(e.field)
                if e.trunc is not None and (trunc is None or e.trunc < trunc):
                    trunc = e.trunc
        if trunc is not None:
            entries = [[e.truncate(trunc) for e in row] for row in entries]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, field: FieldContext, n: int) -> "SeriesMatrix":
        one = LaurentSeries.one(field)
        zero = LaurentSeries.zero(field)
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diag_powers(cls, field: FieldContext, exponents: Sequence[int]) -> "SeriesMatrix":
        """Exact diagonal matrix ``diag(t^e1, ..., t^en)``."""
        zero = LaurentSeries.zero(field)
        n = len(exponents)
        return cls(
            field,
            [
                [LaurentSeries.t_power(field, exponents[i]) if i == j else zero for j in range(n)]
                for i in range(n)
            ],
        )

    @classmethod
    def from_scalar_matrix(cls, field: FieldContext, mat: Sequence[Sequence]) -> "SeriesMatrix":
        """Exact constant matrix lifted to series entries."""
        return cls(field, [[LaurentSeries.constant(field, c) for c in row] for row in mat])

    # -- basic operations ---------------------------------------------------

    def __matmul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        self.field.ensure_same(other.field)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = LaurentSeries.zero(self.field)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return SeriesMatrix(self.field, out)

    def __add__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_same_shape(other)
        return SeriesMatrix(
            self.field,
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def __sub__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        self._check_same_shape(other)
        return SeriesMatrix(
            self.field,
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def _check_same_shape(self, other: "SeriesMatrix") -> None:
        if not isinstance(other, SeriesMatrix):
            raise TypeError("expected SeriesMatrix")
        self.field.ensure_same(other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch")

    def shift(self, k: int) -> "SeriesMatrix":
        """Multiply every entry by ``t^k``."""
        return SeriesMatrix(self.field, [[e.shift(k) for e in row] for row in self.entries])

    def scale(self, c) -> "SeriesMatrix":
        return SeriesMatrix(self.field, [[e.scale(c) for e in row] for row in self.entries])

    def inverse(self, n: Optional[int] = None) -> "SeriesMatrix":
        """Gauss-Jordan inverse with minimal-valuation pivoting.

        ``n`` is the precision target fed to unit inversions; it defaults
        to the matrix truncation order (or :data:`DEFAULT_TRUNCATION` for
        exact input).  Raises SingularError if the matrix is exactly
        singular, PrecisionError if a pivot cannot be certified.
        """
        if self.rows != self.cols:
            raise ShapeError("inverse of a non-square matrix")
        size = self.rows
        if n is None:
            n = self.trunc if self.trunc is not None else DEFAULT_TRUNCATION
        a = [list(row) for row in self.entries]
        b = [list(row) for row in SeriesMatrix.identity(self.field, size).entries]
        for k in range(size):
            cand = [((i,), a[i][k]) for i in range(k, size)]
            try:
                (i,), _ = certify_min_valuation(cand)
            except SingularError:
                raise SingularError("matrix is singular (zero pivot column)") from None
            if i != k:
                a[k], a[i] = a[i], a[k]
                b[k], b[i] = b[i], b[k]
            pinv = a[k][k].inverse(n)
            a[k] = [e * pinv for e in a[k]]
            b[k] = [e * pinv for e in b[k]]
            for r in range(size):
                if r == k:
                    continue
                f = a[r][k]
                if f.is_exactly_zero():
                    continue
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
                b[r] = [x - f * y for x, y in zip(b[r], b[k])]
        return SeriesMatrix(self.field, b)

    def constant_matrix(self) -> list:
        """The matrix of constant terms (exact scalars)."""
        return [[e.coefficient(0) for e in row] for row in self.entries]

    def is_zero_mod(self, n: int) -> bool:
        return all(e.is_zero_mod(n) for row in self.entries for e in row)

    def min_valuation_lower_bound(self) -> Optional[int]:
        """Min of the entries' certified valuation lower bounds (None = +inf)."""
        best = None
        for row in self.entries:
            for e in row:
                v = e.valuation_lower_bound()
                if v is not None and (best is None or v < best):
                    best = v
        return best

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesMatrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self) -> str:
        rows = ";  ".join(", ".join(repr(e) for e in row) for row in self.entries)
        return f"SeriesMatrix({self.rows}x{self.cols}: {rows})"
