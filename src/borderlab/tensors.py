"""Sparse order-d tensors over exact scalars or series, group actions, and
one-parameter-subgroup limits.

A tensor stores only its nonzero entries, as a map from position to value
kept in row-major (lexicographic) order, so every operation costs time in
the number of nonzeros, never in the product of the dimensions.

Positions are 1-based index tuples ``(j1, ..., jd)`` throughout, matching
the combinatorial conventions of the weight and pyramid machinery; constant
matrices remain ordinary 0-based lists of lists.

Limits at ``t -> 0`` and ``t -> infinity`` are computed by sign analysis of
integer weight sums, never by series expansion, so weights may be
astronomically large (the degeneration construction uses weights ``2^j``
with ``j`` up to the ambient dimension).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from . import linalg
from .errors import NoLimitError, ShapeError
from .fields import FieldContext
from .series import LaurentSeries, SeriesMatrix

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
    """Sparse tensor with exact scalar entries and 1-based positions.

    ``entries`` maps positions to values; zero values are dropped, so two
    tensors are equal exactly when their stored entries are.
    """

    __slots__ = ("field", "dims", "_entries")

    def __init__(self, field: FieldContext, dims: Sequence[int], entries: Mapping[tuple, object]):
        dims = _check_dims(dims)
        is_zero = field.is_zero
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_entries", _row_major(dims, entries, lambda v: not is_zero(v)))

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @classmethod
    def zeros(cls, field: FieldContext, dims: Sequence[int]) -> "Tensor":
        return cls(field, dims, {})

    @classmethod
    def from_entries(cls, field: FieldContext, dims: Sequence[int], entries: Mapping[tuple, object]) -> "Tensor":
        return cls(field, dims, entries)

    @property
    def order(self) -> int:
        return len(self.dims)

    def get(self, pos: Sequence[int]):
        pos = tuple(pos)
        _check_position(pos, self.dims)
        return self._entries.get(pos, self.field.zero())

    def support(self) -> Iterable[tuple]:
        """Yield ``(position, value)`` for the nonzero entries, in row-major order."""
        return iter(self._entries.items())

    def is_zero(self) -> bool:
        return not self._entries

    def _combine(self, other: "Tensor", op) -> "Tensor":
        self._check_compatible(other)
        zero = self.field.zero()
        a, b = self._entries, other._entries
        entries = {pos: op(a.get(pos, zero), b.get(pos, zero)) for pos in a.keys() | b.keys()}
        return Tensor(self.field, self.dims, entries)

    def __add__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, self.field.add)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self._combine(other, self.field.sub)

    def scale(self, c) -> "Tensor":
        f = self.field
        return Tensor(f, self.dims, {pos: f.mul(c, v) for pos, v in self._entries.items()})

    def _check_compatible(self, other: "Tensor") -> None:
        if not isinstance(other, Tensor):
            raise TypeError("expected Tensor")
        self.field.ensure_same(other.field)
        if self.dims != other.dims:
            raise ShapeError(f"tensor dims differ: {self.dims} vs {other.dims}")

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


class SeriesTensor:
    """Sparse tensor of Laurent series, uniformly truncated at ``trunc``.

    Every entry is cut to the smallest truncation order among the entries
    it was built from (``None`` when all are exact).  Only entries with
    known nonzero terms are stored; any other position holds the zero
    series known to ``t^trunc``.
    """

    __slots__ = ("field", "dims", "trunc", "_entries")

    def __init__(self, field: FieldContext, dims: Sequence[int], entries: Mapping[tuple, LaurentSeries]):
        dims = _check_dims(dims)
        trunc = None
        for e in entries.values():
            field.ensure_same(e.field)
            if e.trunc is not None and (trunc is None or e.trunc < trunc):
                trunc = e.trunc
        if trunc is not None:
            entries = {pos: e.truncate(trunc) for pos, e in entries.items()}
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_entries", _row_major(dims, entries, lambda e: e.coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("SeriesTensor is immutable")

    @classmethod
    def from_tensor(cls, t: Tensor) -> "SeriesTensor":
        return cls(t.field, t.dims, {pos: LaurentSeries.constant(t.field, v) for pos, v in t.support()})

    def _unstored(self) -> LaurentSeries:
        """The value of every position that is not stored."""
        if self.trunc is None:
            return LaurentSeries.zero(self.field)
        return LaurentSeries.zero_mod(self.field, self.trunc)

    def get(self, pos: Sequence[int]) -> LaurentSeries:
        pos = tuple(pos)
        _check_position(pos, self.dims)
        got = self._entries.get(pos)
        return self._unstored() if got is None else got

    def support(self) -> Iterable[tuple]:
        """Yield ``(position, series)`` for the entries with known nonzero terms."""
        return iter(self._entries.items())

    def negative_valuation_entry(self) -> Optional[tuple]:
        """First entry (row-major) with certified negative valuation, or None.

        The valuation reported for an entry without known terms is its
        truncation order.
        """
        if not all(self.dims):
            return None
        if self.trunc is not None and self.trunc < 0:
            # every entry is known only below t^trunc, so the first position
            # already has a negative valuation bound
            first = (1,) * len(self.dims)
            got = self._entries.get(first)
            return first, self.trunc if got is None else got.val
        for pos, e in self._entries.items():
            if e.val < 0:
                return pos, e.val
        return None

    def constant_terms(self) -> Tensor:
        if all(self.dims):
            # raises PrecisionError when t^0 lies beyond the common truncation
            self._unstored().coefficient(0)
        return Tensor(self.field, self.dims, {pos: e.coefficient(0) for pos, e in self._entries.items()})

    def equals_mod(self, other: "SeriesTensor", n: int) -> bool:
        if self.dims != other.dims:
            raise ShapeError("tensor dims differ")
        if not all(self.dims):
            return True
        truncs = [s.trunc for s in (self, other) if s.trunc is not None]
        if truncs and min(truncs) < n:
            # no entry of the difference is known through t^n: the first
            # position either differs or raises PrecisionError
            first = (1,) * len(self.dims)
            return self.get(first).equals_mod(other.get(first), n)
        stored = self._entries.keys() | other._entries.keys()
        return all(self.get(pos).equals_mod(other.get(pos), n) for pos in stored)

    def __repr__(self) -> str:
        return f"SeriesTensor(dims={self.dims})"


# ---------------------------------------------------------------------------
# multilinear action
# ---------------------------------------------------------------------------

def _mode_product(dims: tuple, entries: Mapping, axis: int, mat, add, mul, is_zero):
    """Apply ``mat`` (m x dims[axis]) along ``axis`` (0-based) of a position map.

    Zero inputs and zero matrix entries are skipped.  Sums that cancel stay
    in the returned map; the tensor constructors drop them.
    """
    n = dims[axis]
    if any(len(row) != n for row in mat):
        raise ShapeError(f"matrix for axis {axis} must have {n} columns")
    # column b of ``mat`` as its nonzero (1-based row, value) pairs
    columns = [[(a, row[b]) for a, row in enumerate(mat, start=1) if not is_zero(row[b])] for b in range(n)]
    out: dict = {}
    for pos, v in entries.items():
        if is_zero(v):
            continue
        head, tail = pos[:axis], pos[axis + 1 :]
        for a, c in columns[pos[axis] - 1]:
            key = head + (a,) + tail
            prod = mul(c, v)
            prev = out.get(key)
            out[key] = prod if prev is None else add(prev, prod)
    return dims[:axis] + (len(mat),) + dims[axis + 1 :], out


def act(mats: Sequence[Sequence[Sequence]], t: Tensor) -> Tensor:
    """Apply constant matrices factor-by-factor: ``(M1 ⊗ ... ⊗ Md) · T``.

    Rectangular matrices are allowed, so this also expresses projections
    onto smaller spaces.
    """
    if len(mats) != t.order:
        raise ShapeError(f"expected {t.order} matrices, got {len(mats)}")
    field = t.field
    dims, entries = t.dims, t._entries
    for axis, mat in enumerate(mats):
        dims, entries = _mode_product(dims, entries, axis, mat, field.add, field.mul, field.is_zero)
    return Tensor(field, dims, entries)


def act_series(mats: Sequence[SeriesMatrix], t: Tensor) -> SeriesTensor:
    """Apply series matrices factor-by-factor to a constant tensor."""
    if len(mats) != t.order:
        raise ShapeError(f"expected {t.order} matrices, got {len(mats)}")
    field = t.field
    dims = t.dims
    entries = {pos: LaurentSeries.constant(field, v) for pos, v in t._entries.items()}
    for axis, mat in enumerate(mats):
        field.ensure_same(mat.field)
        dims, entries = _mode_product(
            dims, entries, axis, mat.entries, operator.add, operator.mul, LaurentSeries.is_exactly_zero
        )
    return SeriesTensor(field, dims, entries)


# ---------------------------------------------------------------------------
# one-parameter subgroups and limits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupFactor:
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


class OneParamSubgroup:
    """A conjugated-diagonal one-parameter subgroup per tensor factor."""

    __slots__ = ("field", "factors")

    def __init__(self, field: FieldContext, factors: Sequence[SubgroupFactor]):
        factors = tuple(factors)
        for fac in factors:
            if fac.basis is not None:
                if len(fac.basis) != fac.dim or any(len(r) != fac.dim for r in fac.basis):
                    raise ShapeError("basis matrix shape does not match the weight count")
                if not linalg.is_invertible(field, [list(r) for r in fac.basis]):
                    raise SingularBasisError("subgroup basis matrix is singular")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("OneParamSubgroup is immutable")

    @classmethod
    def from_weights(cls, field: FieldContext, weights_per_factor: Sequence[Sequence[int]]) -> "OneParamSubgroup":
        return cls(field, [SubgroupFactor(weights=tuple(int(w) for w in ws)) for ws in weights_per_factor])

    @classmethod
    def trivial(cls, field: FieldContext, dims: Sequence[int]) -> "OneParamSubgroup":
        return cls.from_weights(field, [[0] * n for n in dims])

    @property
    def dims(self) -> tuple:
        return tuple(fac.dim for fac in self.factors)

    @property
    def order(self) -> int:
        return len(self.factors)

    def inverted(self) -> "OneParamSubgroup":
        """The subgroup ``t -> lambda(t^{-1})`` (all weights negated)."""
        return OneParamSubgroup(
            self.field,
            [SubgroupFactor(weights=tuple(-w for w in f.weights), basis=f.basis) for f in self.factors],
        )

    def weight_of(self, pos: Sequence[int]) -> int:
        """Total weight of an eigenbasis position (1-based)."""
        return sum(f.weights[p - 1] for f, p in zip(self.factors, pos))

    def _basis_mats(self) -> list:
        return [None if f.basis is None else [list(r) for r in f.basis] for f in self.factors]

    def to_eigen(self, t: Tensor) -> Tensor:
        """Coordinates of ``t`` in the subgroup's eigenbasis."""
        mats = self._basis_mats()
        if all(m is None for m in mats):
            return t
        full = [
            linalg.identity(self.field, n) if m is None else linalg.mat_inv(self.field, m)
            for m, n in zip(mats, self.dims)
        ]
        return act(full, t)

    def from_eigen(self, t: Tensor) -> Tensor:
        """Map eigenbasis coordinates back to the ambient coordinates."""
        mats = self._basis_mats()
        if all(m is None for m in mats):
            return t
        full = [linalg.identity(self.field, n) if m is None else m for m, n in zip(mats, self.dims)]
        return act(full, t)

    def series_matrices(self, clamp: int = 64) -> tuple:
        """The factors as exact series matrices ``h · diag(t^w) · h^{-1}``.

        Only sensible for small weights (guarded by |w| <= clamp); limits
        of big-weight subgroups go through sign analysis instead.
        """
        out = []
        for fac in self.factors:
            if any(abs(w) > clamp for w in fac.weights):
                raise ValueError("weights too large to expand as series; use limit analysis")
            d = SeriesMatrix.diag_powers(self.field, list(fac.weights))
            if fac.basis is None:
                out.append(d)
            else:
                h = SeriesMatrix.from_scalar_matrix(self.field, [list(r) for r in fac.basis])
                hinv = SeriesMatrix.from_scalar_matrix(
                    self.field, linalg.mat_inv(self.field, [list(r) for r in fac.basis])
                )
                out.append(h @ d @ hinv)
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OneParamSubgroup)
            and self.field == other.field
            and self.factors == other.factors
        )

    def __repr__(self) -> str:
        return f"OneParamSubgroup(dims={self.dims})"


class SingularBasisError(ShapeError):
    """Raised when a subgroup basis matrix is not invertible."""


@dataclass(frozen=True)
class WeightDecomposition:
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
            return Tensor.zeros(self.base.field, self.dims)
        return got

    def reconstruct(self) -> Tensor:
        total = Tensor.zeros(self.base.field, self.dims)
        for comp in self.components.values():
            total = total + comp
        return self.base.from_eigen(total)


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
        w: Tensor.from_entries(t.field, t.dims, entries) for w, entries in buckets.items()
    }
    return WeightDecomposition(base=subgroup, components=components, dims=t.dims)


def limit_at_zero(subgroup: OneParamSubgroup, t: Tensor) -> Tensor:
    """``lim_{t->0} lambda(t) · T``: exists iff no negative-weight component.

    Computed by weight-sign analysis over the eigen-support; the value is
    the weight-zero component mapped back through the bases.  Raises
    :class:`NoLimitError` with a witnessing position and weight otherwise.
    """
    if t.dims != subgroup.dims:
        raise ShapeError(f"tensor dims {t.dims} do not match subgroup dims {subgroup.dims}")
    eigen = subgroup.to_eigen(t)
    kept: dict = {}
    for pos, v in eigen.support():
        w = subgroup.weight_of(pos)
        if w < 0:
            raise NoLimitError(
                f"no limit at t->0: eigen-position {pos} has negative weight {w}",
                position=pos,
                weight=w,
            )
        if w == 0:
            kept[pos] = v
    return subgroup.from_eigen(Tensor.from_entries(t.field, t.dims, kept))


def limit_at_infinity(subgroup: OneParamSubgroup, t: Tensor) -> Tensor:
    """``lim_{t->inf} lambda(t) · T`` as the ``t->0`` limit of the inverse."""
    return limit_at_zero(subgroup.inverted(), t)


# ---------------------------------------------------------------------------
# unit tensors
# ---------------------------------------------------------------------------

def unit_tensor(field: FieldContext, r: int, d: int) -> Tensor:
    """The size-``r`` unit tensor: ones on the full diagonal of ``(K^r)^{⊗d}``."""
    if r < 0 or d < 2:
        raise ValueError("unit tensor needs r >= 0 and d >= 2")
    return Tensor.from_entries(field, (r,) * d, {(i,) * d: field.one() for i in range(1, r + 1)})


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
