"""Sparse order-d tensors over exact scalars or exact Laurent polynomials,
group actions, and one-parameter-subgroup limits.

A tensor stores only its nonzero entries, as a map from position to value
kept in row-major (lexicographic) order, so every operation costs time in
the number of nonzeros, never in the product of the dimensions.

Positions are 1-based index tuples ``(j1, ..., jd)`` throughout, matching
the combinatorial conventions of the weight and pyramid machinery; constant
matrices remain ordinary 0-based lists of lists.

Limits at ``t -> 0`` and ``t -> infinity`` are computed by sign analysis of
integer weight sums, never by series expansion, so weights may be
astronomically large.  The degeneration's doubling profile, with weights
``2^j`` for ``j`` up to the ambient dimension, is one such subgroup, but
the degeneration module reads its weights' signs in closed form and never
builds them.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence

from . import linalg
from .errors import NoLimitError, ShapeError, SingularError
from .fields import FieldContext

if TYPE_CHECKING:
    from .series import LaurentPolynomials, SeriesMatrix

_POSITION = operator.itemgetter(0)


def _check_dims(dims: Sequence[int]) -> tuple:
    dims = tuple(int(n) for n in dims)
    if len(dims) < 1 or any(n < 0 for n in dims):
        raise ShapeError(f"bad tensor dims {dims}")
    return dims


def _check_position(pos: tuple, dims: tuple) -> None:
    if len(pos) != len(dims):
        raise ShapeError(f"position {pos} has wrong arity for dims {dims}")
    for p, n in zip(pos, dims):
        if not 1 <= p <= n:
            raise ShapeError(f"position {pos} out of range for dims {dims}")


def _row_major(dims: tuple, entries: Mapping, keep) -> dict:
    """Check every position against ``dims``; keep the values ``keep`` accepts, sorted."""
    for pos in entries:
        _check_position(pos, dims)
    return dict(sorted(((pos, v) for pos, v in entries.items() if keep(v)), key=_POSITION))


class Tensor:
    """Sparse tensor with exact entries and 1-based positions.

    ``field`` is the coefficient context of the entries: a
    :class:`FieldContext` for scalars, or :class:`LaurentPolynomials` for
    exact series.  ``entries`` maps positions to values; zero values are
    dropped, so two tensors are equal exactly when their stored entries are.
    """

    __slots__ = ("field", "dims", "_entries")

    def __init__(
        self, field: FieldContext | LaurentPolynomials, dims: Sequence[int], entries: Mapping[tuple, object]
    ):
        dims = _check_dims(dims)
        is_zero = field.is_zero
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_entries", _row_major(dims, entries, lambda v: not is_zero(v)))

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def order(self) -> int:
        return len(self.dims)

    def support(self) -> Iterable[tuple]:
        """Yield ``(position, value)`` for the nonzero entries, in row-major order."""
        return iter(self._entries.items())

    def is_zero(self) -> bool:
        return not self._entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.field == other.field
            and self.dims == other.dims
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.dims, tuple(self._entries.items())))

    def __repr__(self) -> str:
        return f"Tensor(dims={self.dims}, nnz={len(self._entries)})"


# ---------------------------------------------------------------------------
# multilinear action
# ---------------------------------------------------------------------------

def _mode_product(dims: tuple, entries: Mapping, axis: int, mat, field):
    """Apply ``mat`` (m x dims[axis]) along ``axis`` (0-based) of a position map.

    Each product of a nonzero input and a nonzero entry of ``mat`` goes to
    its output position by one call of the context's ``muladd``.  Sums that
    cancel stay in the returned map; the tensor constructor drops them.
    """
    n = dims[axis]
    if any(len(row) != n for row in mat):
        raise ShapeError(f"matrix for axis {axis} must have {n} columns")
    muladd, is_zero, zero = field.muladd, field.is_zero, field.zero()
    # column b of ``mat`` as its nonzero (1-based row, value) pairs
    columns = [[(a, row[b]) for a, row in enumerate(mat, start=1) if not is_zero(row[b])] for b in range(n)]
    out: dict = {}
    for pos, v in entries.items():
        if is_zero(v):
            continue
        head, tail = pos[:axis], pos[axis + 1 :]
        for a, c in columns[pos[axis] - 1]:
            key = head + (a,) + tail
            out[key] = muladd(out.get(key, zero), ((c, v),))
    return dims[:axis] + (len(mat),) + dims[axis + 1 :], out


def act(mats: Sequence[Optional[Sequence[Sequence]]], t: Tensor) -> Tensor:
    """Apply constant matrices factor-by-factor: ``(M1 ⊗ ... ⊗ Md) · T``.

    Rectangular matrices are allowed, so this also expresses projections
    onto smaller spaces.  A ``None`` factor leaves its axis unchanged, and
    ``t`` itself is returned when every factor is ``None``.
    """
    if len(mats) != t.order:
        raise ShapeError(f"expected {t.order} matrices, got {len(mats)}")
    field = t.field
    dims, entries = t.dims, t._entries
    for axis, mat in enumerate(mats):
        if mat is not None:
            dims, entries = _mode_product(dims, entries, axis, mat, field)
    return t if entries is t._entries else Tensor(field, dims, entries)


def act_series(mats: Sequence[SeriesMatrix], t: Tensor) -> Tensor:
    """Apply series matrices factor-by-factor to a constant tensor.

    The result is a tensor over :class:`LaurentPolynomials`.  Every matrix
    entry must be exact; a truncated one raises PrecisionError.
    """
    from .series import LaurentPolynomials, LaurentSeries

    for mat in mats:
        t.field.ensure_same(mat.field)
    ring = LaurentPolynomials(t.field)
    lifted = Tensor(ring, t.dims, {pos: LaurentSeries(t.field, 0, (v,)) for pos, v in t._entries.items()})
    return act([mat.entries for mat in mats], lifted)


# ---------------------------------------------------------------------------
# one-parameter subgroups and limits
# ---------------------------------------------------------------------------

class SubgroupFactor(NamedTuple):
    """One tensor factor of a subgroup: optional basis matrix plus weights.

    ``basis is None`` means the standard basis; otherwise it is an
    invertible constant matrix ``h`` and the factor acts as
    ``h · diag(t^weights) · h^{-1}``.
    """

    weights: tuple
    basis: Optional[tuple] = None  # tuple of tuples of scalars

    @property
    def dim(self) -> int:
        return len(self.weights)


class SingularBasisError(ShapeError):
    """Raised when a subgroup basis matrix is not invertible."""


class OneParamSubgroup:
    """A conjugated-diagonal one-parameter subgroup per tensor factor.

    ``inverses`` holds each factor's ``h^{-1}``, inverted once here, or
    ``None`` for a standard-basis factor.
    """

    __slots__ = ("field", "factors", "inverses")

    def __init__(self, field: FieldContext, factors: Sequence[SubgroupFactor]):
        factors = tuple(factors)
        inverses = []
        for fac in factors:
            if fac.basis is None:
                inverses.append(None)
                continue
            if len(fac.basis) != fac.dim or any(len(r) != fac.dim for r in fac.basis):
                raise ShapeError("basis matrix shape does not match the weight count")
            try:
                inverses.append(linalg.mat_inv(field, fac.basis))
            except SingularError:
                raise SingularBasisError("subgroup basis matrix is singular") from None
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "inverses", tuple(inverses))

    def __setattr__(self, name, value):
        raise AttributeError("OneParamSubgroup is immutable")

    @property
    def dims(self) -> tuple:
        return tuple(fac.dim for fac in self.factors)

    def weight_of(self, pos: Sequence[int]) -> int:
        """Total weight of an eigenbasis position (1-based)."""
        return sum(f.weights[p - 1] for f, p in zip(self.factors, pos))

    def to_eigen(self, t: Tensor) -> Tensor:
        """Coordinates of ``t`` in the subgroup's eigenbasis."""
        return act(self.inverses, t)

    def from_eigen(self, t: Tensor) -> Tensor:
        """Map eigenbasis coordinates back to the ambient coordinates."""
        return act([f.basis for f in self.factors], t)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OneParamSubgroup)
            and self.field == other.field
            and self.factors == other.factors
        )

    def __repr__(self) -> str:
        return f"OneParamSubgroup(dims={self.dims})"


def _limit(subgroup: OneParamSubgroup, t: Tensor, sign: int) -> Tensor:
    """``lim lambda(t) · T`` at ``t -> 0`` (``sign = 1``) or ``t -> inf`` (``sign = -1``).

    Computed by weight-sign analysis over the eigen-support: the limit
    exists iff no component has a weight of sign ``-sign``, and its value
    is the weight-zero component mapped back through the bases.
    """
    if t.dims != subgroup.dims:
        raise ShapeError(f"tensor dims {t.dims} do not match subgroup dims {subgroup.dims}")
    kept: dict = {}
    for pos, v in subgroup.to_eigen(t).support():
        w = subgroup.weight_of(pos)
        if sign * w < 0:
            where, kind = ("0", "negative") if sign > 0 else ("inf", "positive")
            raise NoLimitError(
                f"no limit at t->{where}: eigen-position {pos} has {kind} weight {w}", position=pos, weight=w
            )
        if w == 0:
            kept[pos] = v
    return subgroup.from_eigen(Tensor(t.field, t.dims, kept))


def limit_at_zero(subgroup: OneParamSubgroup, t: Tensor) -> Tensor:
    """``lim_{t->0} lambda(t) · T``: exists iff no negative-weight component.

    Raises :class:`NoLimitError` with a witnessing position and its weight
    otherwise.
    """
    return _limit(subgroup, t, 1)


def limit_at_infinity(subgroup: OneParamSubgroup, t: Tensor) -> Tensor:
    """``lim_{t->inf} lambda(t) · T``: exists iff no positive-weight component."""
    return _limit(subgroup, t, -1)


# ---------------------------------------------------------------------------
# unit tensors
# ---------------------------------------------------------------------------

def recognize_unit_tensor(t: Tensor) -> Optional[int]:
    """Size ``r`` if the support is a diagonal-type witness, else ``None``.

    A tensor whose ``r`` nonzero entries have pairwise distinct
    coordinates in every factor maps to the size-``r`` unit tensor by
    coordinate injections and diagonal scaling, so it lies in the orbit of
    the unit tensor.  Tensors with any other support shape are rejected
    (general orbit membership is not decided here).
    """
    support = [pos for pos, _ in t.support()]
    r = len(support)
    for axis in range(t.order):
        coords = {pos[axis] for pos in support}
        if len(coords) != r:
            return None
    return r
