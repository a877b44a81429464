"""Dense exact linear algebra over a FieldContext, plus a sparse rank kernel.

Constant matrices are plain lists of lists of scalars (0-based, row-major).
The sparse rank routine consumes columns as ``{row_index: value}`` dicts and
is the workhorse behind the Jacobian dominance check.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import ShapeError, SingularError
from .fields import FieldContext


def identity(field: FieldContext, n: int) -> list:
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def mat_mul(field: FieldContext, a: Sequence[Sequence], b: Sequence[Sequence]) -> list:
    if not a or not b:
        return []
    if len(a[0]) != len(b):
        raise ShapeError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    cols = len(b[0])
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = field.zero()
            for k, x in enumerate(row):
                if not field.is_zero(x):
                    acc = field.add(acc, field.mul(x, b[k][j]))
            new.append(acc)
        out.append(new)
    return out


def mat_inv(field: FieldContext, a: Sequence[Sequence]) -> list:
    """Gauss-Jordan inverse; raises SingularError on singular input."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ShapeError("inverse of a non-square matrix")
    work = [list(row) for row in a]
    out = identity(field, n)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if not field.is_zero(work[i][k]):
                piv = i
                break
        if piv is None:
            raise SingularError("matrix is singular")
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            out[k], out[piv] = out[piv], out[k]
        inv = field.inv(work[k][k])
        work[k] = [field.mul(inv, x) for x in work[k]]
        out[k] = [field.mul(inv, x) for x in out[k]]
        for i in range(n):
            if i == k:
                continue
            f = work[i][k]
            if field.is_zero(f):
                continue
            work[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(work[i], work[k])]
            out[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(out[i], out[k])]
    return out


def is_invertible(field: FieldContext, a: Sequence[Sequence]) -> bool:
    try:
        mat_inv(field, a)
        return True
    except SingularError:
        return False


def sparse_rank(
    field: FieldContext,
    columns: Iterable[dict],
    stop_at: Optional[int] = None,
) -> int:
    """Exact rank of the matrix whose columns are ``{row: value}`` dicts.

    Incremental left-looking elimination: each stored pivot column is
    normalized to 1 at its smallest row index, and pivot leading rows are
    pairwise distinct, so the count of pivots is the rank.  ``stop_at``
    allows an early exit once the rank provably reaches a cap (e.g. the
    row count).
    """
    pivots: dict = {}
    rank = 0
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
                new = field.sub(col.get(rr, field.zero()), field.mul(f, vv))
                if field.is_zero(new):
                    col.pop(rr, None)
                else:
                    col[rr] = new
        if stop_at is not None and rank >= stop_at:
            break
    return rank


def permutation_matrix(field: FieldContext, perm: Sequence[int]) -> list:
    """Matrix sending basis vector ``j`` to basis vector ``perm[j]`` (0-based)."""
    n = len(perm)
    out = [[field.zero()] * n for _ in range(n)]
    for j, i in enumerate(perm):
        out[i][j] = field.one()
    return out
