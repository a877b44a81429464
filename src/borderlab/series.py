"""Truncated Laurent series over an exact field, matrices of them, and the
coefficient context of exact Laurent polynomials that series tensors use.

A series is stored as a coefficient window starting at its valuation plus a
truncation order ``trunc``: coefficients of ``t^k`` for ``k < trunc`` are
known exactly, everything above is unknown.  ``trunc is None`` means the
series is an exact Laurent polynomial (no unknown tail).  Values are
immutable after construction and all operations are pure, so everything
here is safe for unrestricted concurrent use.

The coefficients are stored as one vector that the field owns
(:mod:`borderlab.fields`): integer numerators ``nums`` over one positive
denominator ``den`` for the rationals, residues over 1 for F_p, canonical
and with no zero at either end.  The field's ``vec_*`` kernels do the
coefficient work; this module keeps only the exponents and truncation
orders.  ``coeffs`` reads the vector back as scalars.

Truncation orders propagate through arithmetic automatically:
a sum takes the minimum, a product ``min(Na + v(b), Nb + v(a))``, and
unit inversion is the only operation that turns exact input into truncated
output (except for monomials, which invert exactly).

:func:`muladd` forms ``x ± Σ a·b`` as one series, with one reduction of
the field's vector.  It is the only way arithmetic reaches the field: the
operators ``+``, ``-``, ``*`` and unary ``-`` are one call each (a product
starts from the field's one shared exact zero), the Smith and Gauss-Jordan
updates and every entry of a matrix product call it directly, and it is the
arithmetic of the tensor ring :class:`LaurentPolynomials`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import PrecisionError, ShapeError, SingularError
from .fields import FieldContext

#: Default truncation order for decompositions when the caller gives none.
DEFAULT_TRUNCATION = 32


def _init(s, field, val, nums, den, trunc):
    """Store the vector ``nums / den`` from ``t^val`` in ``s``, cut at ``trunc``.

    The vector must be canonical up to zero ends and the slots at or above
    ``trunc``; zero ends are stripped, and the vector is renormalised only
    when the cut dropped slots, since only that can leave a factor common
    to the numerators and the denominator.
    """
    if trunc is not None and trunc - val < len(nums):
        nums, den = field.vec_reduce(nums[: max(trunc - val, 0)], den)
    if nums and not (nums[0] and nums[-1]):
        hi = len(nums)
        while hi and not nums[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not nums[lo]:
            lo += 1
        nums = nums[lo:hi]
        val += lo
    if not nums:
        val, den = 0, 1
    _set_field(s, field)
    _set_val(s, val)
    _set_nums(s, tuple(nums))
    _set_den(s, den)
    _set_trunc(s, trunc)


def _series(field, val, nums, den, trunc) -> "LaurentSeries":
    """The series of a kernel's output vector (see :func:`_init`)."""
    s = object.__new__(LaurentSeries)
    _init(s, field, val, nums, den, trunc)
    return s


def muladd(x: "LaurentSeries", terms, subtract: bool = False) -> "LaurentSeries":
    """``x + Σ a·b`` over the pairs ``(a, b)`` of ``terms``, or ``x - Σ a·b``
    with ``subtract``; a pair ``(a, None)`` stands for ``a`` alone.

    The result is the canonical series that the operators would build one
    term at a time, with the same ``val``, ``nums``, ``den`` and ``trunc``.
    The truncation order comes from the operands' orders and valuations
    alone.  A term with an operand known to no term only lowers it: it
    costs no product and builds no series, and when nothing else changes
    ``x`` itself is returned.  The remaining terms go to the field's
    :meth:`~borderlab.fields.FieldContext.vec_muladd` as one window of
    slots below the truncation order, which sums unreduced products and
    reduces once.
    """
    field = x.field
    trunc = x.trunc
    # the vectors of the terms with known terms, each from its valuation,
    # and the window of exponents that they and x span
    live = []
    lo, hi = (x.val, x.val + len(x.nums)) if x.nums else (None, None)
    lone = None  # the last live term ``(a, None)``: ``0 + a`` may be ``a`` itself
    for a, b in terms:
        if a.field is not field:
            field.ensure_same(a.field)
        if b is None:
            t = a.trunc
            v = a.val if a.nums else None
            if v is not None:
                end = v + len(a.nums)
                live.append((v, a.nums, a.den, None, 1))
                lone = a
        else:
            if b.field is not field:
                field.ensure_same(b.field)
            if (a.trunc is None and not a.nums) or (b.trunc is None and not b.nums):
                continue  # an exactly zero product
            # each factor's order shifted by the other's certified valuation bound
            t = None if a.trunc is None else a.trunc + (b.val if b.nums else b.trunc)
            if b.trunc is not None:
                bound = b.trunc + (a.val if a.nums else a.trunc)
                if t is None or bound < t:
                    t = bound
            v = a.val + b.val if a.nums and b.nums else None
            if v is not None:
                end = v + len(a.nums) + len(b.nums) - 1
                live.append((v, a.nums, a.den, b.nums, b.den))
        if t is not None and (trunc is None or t < trunc):
            trunc = t
        if v is not None:
            if lo is None or v < lo:
                lo = v
            if hi is None or end > hi:
                hi = end
    if not live:
        if trunc == x.trunc:
            return x
        return _series(field, x.val, x.nums, x.den, trunc)
    if len(live) == 1 and lone is not None and not x.nums and not subtract and lone.trunc == trunc:
        return lone
    if trunc is not None and trunc < hi:
        hi = trunc
    if hi <= lo:
        return _series(field, 0, (), 1, trunc)
    head = (x.val, x.nums, x.den) if x.nums else None
    return _series(field, lo, *field.vec_muladd(head, live, lo, hi - lo, subtract), trunc)


class LaurentSeries:
    """A truncated or exact Laurent series over a :class:`FieldContext`.

    Parameters
    ----------
    field : FieldContext
    val : int
        Exponent of the first stored coefficient.
    coeffs : sequence
        Canonical scalars, the coefficients of ``t^val, t^(val+1), ...``;
        stored as the field's vector ``nums / den``, normalized so that the
        first and last stored coefficients are nonzero.
    trunc : int | None
        Coefficients of ``t^k`` with ``k >= trunc`` are unknown; ``None``
        marks an exact series.
    """

    __slots__ = ("field", "val", "nums", "den", "trunc")

    def __init__(self, field: FieldContext, val: int, coeffs: Sequence, trunc: Optional[int] = None):
        _init(self, field, val, *field.vector(coeffs), trunc)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSeries is immutable")

    @property
    def coeffs(self) -> tuple:
        """The stored coefficients as canonical scalars (built on each read)."""
        return self.field.scalars(self.nums, self.den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldContext) -> "LaurentSeries":
        """The exact zero; series are immutable, so equal fields share one."""
        z = _ZEROS.get(field)
        if z is None:
            z = _ZEROS[field] = _series(field, 0, (), 1, None)
        return z

    @classmethod
    def from_terms(cls, field: FieldContext, terms: dict) -> "LaurentSeries":
        """Exact series from an ``{exponent: coefficient}`` mapping."""
        if not terms:
            return cls.zero(field)
        lo = min(terms)
        values, den = field.vector(terms.values())
        nums = [0] * (max(terms) - lo + 1)
        for k, v in zip(terms, values):
            nums[k - lo] = v
        return _series(field, lo, nums, den, None)

    @classmethod
    def from_vector(cls, field: FieldContext, val: int, nums, den: int, trunc: Optional[int] = None) -> "LaurentSeries":
        """The series of the field's canonical vector ``nums / den`` from ``t^val``, cut at ``trunc``."""
        return _series(field, val, nums, den, trunc)

    # -- structure queries -------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.trunc is None

    def is_exactly_zero(self) -> bool:
        return self.trunc is None and not self.nums

    def has_no_known_terms(self) -> bool:
        return not self.nums

    def valuation(self) -> int:
        """The t-adic valuation; raises if it cannot be certified."""
        if self.nums:
            return self.val
        if self.is_exact:
            raise SingularError("valuation of the exact zero series")
        raise PrecisionError(
            f"series is zero to precision t^{self.trunc}; valuation not certifiable"
        )

    def valuation_lower_bound(self) -> Optional[int]:
        """A certified lower bound on the valuation; ``None`` means +infinity."""
        if self.nums:
            return self.val
        if self.is_exact:
            return None
        return self.trunc

    def coefficient(self, k: int):
        """Coefficient of ``t^k``; raises PrecisionError if it is unknown."""
        if self.trunc is not None and k >= self.trunc:
            raise PrecisionError(f"coefficient of t^{k} unknown (truncated at t^{self.trunc})")
        if self.val <= k < self.val + len(self.nums):
            return self.field.scalar(self.nums[k - self.val], self.den)
        return self.field.zero()

    def known_through(self, n: int) -> bool:
        """Whether all coefficients below ``t^n`` are known."""
        return self.trunc is None or self.trunc >= n

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        """``self + other`` (one :func:`muladd`, which checks the fields)."""
        return muladd(self, ((other, None),))

    def __neg__(self) -> "LaurentSeries":
        """``0 - self`` (one :func:`muladd`)."""
        return muladd(LaurentSeries.zero(self.field), ((self, None),), True)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        """``self - other`` (one :func:`muladd`)."""
        return muladd(self, ((other, None),), True)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        """``0 + self · other`` (one :func:`muladd`)."""
        return muladd(LaurentSeries.zero(self.field), ((self, other),))

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by ``t^k``."""
        trunc = None if self.trunc is None else self.trunc + k
        return _series(self.field, self.val + k, self.nums, self.den, trunc)

    def truncate(self, n: int) -> "LaurentSeries":
        if self.trunc is not None and self.trunc <= n:
            return self
        return _series(self.field, self.val, self.nums, self.den, n)

    def inverse(self, n: int) -> "LaurentSeries":
        """Multiplicative inverse ``s⁻¹`` with ``s · s⁻¹ ≡ 1 mod t^n``.

        The result has valuation ``-v(s)``.  It is exact only when ``s`` is
        a single monomial; otherwise it carries the truncation implied by
        ``n`` and by the precision of ``s``.
        """
        field = self.field
        if not self.nums:
            # exact zero violates the unit precondition; unknown valuation
            # is a precision failure
            self.valuation()
        v = self.val
        if len(self.nums) == 1 and self.is_exact:
            return _series(field, -v, *field.vec_inverse(self.nums, self.den, 1), None)
        avail = n if self.trunc is None else min(n, self.trunc - v)
        m = max(avail, 1)
        # u = t^{-v} * s has unit constant term; the field solves u * x = 1
        return _series(field, -v, *field.vec_inverse(self.nums, self.den, m), m - v)

    # -- comparisons --------------------------------------------------------

    def is_zero_mod(self, n: int) -> bool:
        """True iff all coefficients below ``t^n`` are known and vanish."""
        # the first stored coefficient is nonzero
        if self.nums and self.val < n:
            return False
        if not self.known_through(n):
            raise PrecisionError(f"zero test mod t^{n} needs precision {n}, have t^{self.trunc}")
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentSeries)
            and self.field == other.field
            and self.val == other.val
            and self.nums == other.nums
            and self.den == other.den
            and self.trunc == other.trunc
        )

    def __hash__(self):
        return hash((self.val, self.nums, self.den, self.trunc))

    def __repr__(self) -> str:
        if not self.nums:
            body = "0"
        else:
            parts = []
            for k, c in enumerate(self.coeffs, self.val):
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


#: the exact zero of each field, handed out by :meth:`LaurentSeries.zero`
_ZEROS: dict = {}

# the slots' own setters, which the immutability guard does not intercept
_set_field, _set_val, _set_nums, _set_den, _set_trunc = (
    getattr(LaurentSeries, name).__set__ for name in LaurentSeries.__slots__
)


class LaurentPolynomials:
    """Coefficient context of exact Laurent polynomials over ``field``.

    It gives a :class:`~borderlab.tensors.Tensor` series entries: an
    unstored position of such a tensor is exactly zero, so a series with an
    unknown tail has no place in one and :meth:`is_zero` rejects it.  Its
    one arithmetic kernel, ``muladd``, is :func:`muladd` itself.
    """

    __slots__ = ("field",)

    muladd = staticmethod(muladd)

    def __init__(self, field: FieldContext):
        self.field = field

    def zero(self) -> LaurentSeries:
        return LaurentSeries.zero(self.field)

    def is_zero(self, a: LaurentSeries) -> bool:
        if not a.is_exact:
            raise PrecisionError(
                f"series known only to t^{a.trunc} where an exact Laurent polynomial is needed"
            )
        return not a.nums

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
        if s.nums:
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
                if e.field is not field:
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
        one = LaurentSeries(field, 0, (field.one(),))
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
                [LaurentSeries(field, exponents[i], (field.one(),)) if i == j else zero for j in range(n)]
                for i in range(n)
            ],
        )

    @classmethod
    def from_scalar_matrix(cls, field: FieldContext, mat: Sequence[Sequence]) -> "SeriesMatrix":
        """Exact constant matrix lifted to series entries."""
        return cls(field, [[LaurentSeries(field, 0, (c,)) for c in row] for row in mat])

    # -- basic operations ---------------------------------------------------

    def __matmul__(self, other: "SeriesMatrix") -> "SeriesMatrix":
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        self.field.ensure_same(other.field)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero = LaurentSeries.zero(self.field)
        cols = list(zip(*other.entries))
        return SeriesMatrix(self.field, [[muladd(zero, zip(row, col)) for col in cols] for row in self.entries])

    def shift(self, k: int) -> "SeriesMatrix":
        """Multiply every entry by ``t^k``."""
        return SeriesMatrix(self.field, [[e.shift(k) for e in row] for row in self.entries])

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
                a[r] = [muladd(x, ((f, y),), True) for x, y in zip(a[r], a[k])]
                b[r] = [muladd(x, ((f, y),), True) for x, y in zip(b[r], b[k])]
        return SeriesMatrix(self.field, b)

    def constant_matrix(self) -> list:
        """The matrix of constant terms (exact scalars)."""
        return [[e.coefficient(0) for e in row] for row in self.entries]

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
