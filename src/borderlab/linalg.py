"""Dense exact linear algebra over a FieldContext, plus a sparse rank kernel.

Constant matrices are plain lists of lists of scalars (0-based, row-major).
The sparse rank routine consumes columns as ``{row: value}`` dicts (rows
are any ordered keys).  No certificate path calls it: the Jacobian rank is
proved by its unit-column cover, and elimination is the tests' oracle for
the true rank.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ShapeError, SingularError
from .fields import FieldContext


def identity(field: FieldContext, n: int) -> list:
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def mat_mul(field: FieldContext, a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ShapeError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    zero, cols = field.zero(), range(len(b[0]))
    # each row of ``a`` as its nonzero (column, value) pairs; one muladd per entry
    rows = [[(k, x) for k, x in enumerate(row) if not field.is_zero(x)] for row in a]
    return [[field.muladd(zero, [(x, b[k][j]) for k, x in row]) for j in cols] for row in rows]


def _gauss_jordan(field: FieldContext, a: Sequence[Sequence], out: list) -> bool:
    """Reduce a copy of the square matrix ``a`` to the identity, applying
    every row operation to the rows of ``out`` as well; False when ``a`` is
    singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError("inverse of a non-square matrix")
    work = [list(row) for row in a]
    muladd = field.muladd
    for k in range(n):
        piv = None
        for i in range(k, n):
            if not field.is_zero(work[i][k]):
                piv = i
                break
        if piv is None:
            return False
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            out[k], out[piv] = out[piv], out[k]
        inv = field.inv(work[k][k])
        # columns left of k are finished: row k is zero there, so no step changes them
        work[k][k:] = [field.mul(inv, x) for x in work[k][k:]]
        out[k] = [field.mul(inv, x) for x in out[k]]
        for i in range(n):
            if i == k:
                continue
            f = work[i][k]
            if field.is_zero(f):
                continue
            work[i][k:] = [muladd(x, ((f, y),), True) for x, y in zip(work[i][k:], work[k][k:])]
            out[i] = [muladd(x, ((f, y),), True) for x, y in zip(out[i], out[k])]
    return True


def mat_inv(field: FieldContext, a: Sequence[Sequence]) -> list:
    """Gauss-Jordan inverse; raises SingularError on singular input."""
    out = identity(field, len(a))
    if not _gauss_jordan(field, a, out):
        raise SingularError("matrix is singular")
    return out


def is_invertible(field: FieldContext, a: Sequence[Sequence]) -> bool:
    """Whether ``a`` is invertible, by :func:`mat_inv`'s elimination carried
    out on rows of no columns: no entry of the inverse is formed."""
    return _gauss_jordan(field, a, [[] for _ in a])


def sparse_rank(field: FieldContext, columns: Iterable[dict]) -> int:
    """Exact rank of the matrix whose columns are ``{row: value}`` dicts.

    Incremental left-looking elimination: each stored pivot column is
    normalized to 1 at its smallest row index, and pivot leading rows are
    pairwise distinct, so the count of pivots is the rank.
    """
    pivots: dict = {}
    rank = 0
    zero = field.zero()
    for col in columns:
        col = {r: v for r, v in col.items() if not field.is_zero(v)}
        while col:
            r = min(col)
            piv = pivots.get(r)
            if piv is None:
                inv = field.inv(col[r])
                pivots[r] = {rr: field.mul(inv, vv) for rr, vv in col.items()}
                rank += 1
                break
            f = col.pop(r)
            for rr, vv in piv.items():
                if rr == r:
                    continue
                new = field.muladd(col.get(rr, zero), ((f, vv),), True)
                if field.is_zero(new):
                    col.pop(rr, None)
                else:
                    col[rr] = new
    return rank

