"""Seeded random instance generators with built-in ground truth.

Curves with existing specialization limits are built from known factors
``g = h1 · diag(t^w) · h2^{-1}`` (there is no way to sample arbitrary
curves and hope the limit exists); a final normalization multiplies the
first factor by a power of ``t`` so the moved tensor has minimal valuation
exactly zero.  Everything is driven by an explicit ``random.Random`` so
runs are reproducible from a single seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

from .fields import FieldContext
from .series import LaurentSeries, SeriesMatrix

if TYPE_CHECKING:
    from .tensors import Tensor


def random_laurent_polynomial(
    field: FieldContext,
    rng: random.Random,
    min_exp: int,
    max_exp: int,
    max_terms: int = 3,
    nonzero: bool = False,
) -> LaurentSeries:
    """Random exact Laurent polynomial with exponents in ``[min_exp, max_exp]``."""
    while True:
        terms = {}
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            terms[rng.randint(min_exp, max_exp)] = field.random_scalar(rng)
        s = LaurentSeries.from_terms(field, terms)
        if not nonzero or s.nums:
            return s


def random_series_unit_matrix(field: FieldContext, n: int, rng: random.Random) -> SeriesMatrix:
    """Random element of GL_n(K[[t]]) with exact polynomial entries.

    Built as a product of four draws of an elementary row addition (by a
    polynomial of degree at most 2), a permutation, and an invertible
    constant diagonal, so the determinant is a nonzero constant times a
    unit and the constant term is invertible by construction.
    """
    rows = [
        [LaurentSeries(field, 0, (field.one(),)) if i == j else LaurentSeries.zero(field) for j in range(n)]
        for i in range(n)
    ]
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        coeff = random_laurent_polynomial(field, rng, 0, 2, max_terms=2)
        rows[i] = [x + coeff * y for x, y in zip(rows[i], rows[j])]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [rows[p] for p in perm]
    for i in range(n):
        c = LaurentSeries(field, 0, (field.random_scalar(rng, nonzero=True),))
        rows[i] = [e * c for e in rows[i]]
    return SeriesMatrix(field, rows)


def random_invertible_laurent_matrix(
    field: FieldContext, n: int, rng: random.Random
) -> SeriesMatrix:
    """Random Laurent-polynomial matrix with a monomial-dominated diagonal.

    Row ``i`` gets a diagonal monomial ``c · t^{m_i}`` and off-diagonal
    polynomials of valuation ``> m_i``, so the identity permutation strictly
    dominates the determinant's valuation and the matrix is invertible.
    """
    entries = []
    for i in range(n):
        m = rng.randint(-2, 2)
        row = []
        for j in range(n):
            if i == j:
                row.append(LaurentSeries(field, m, (field.random_scalar(rng, nonzero=True),)))
            else:
                row.append(random_laurent_polynomial(field, rng, m + 1, m + 3, max_terms=2))
        entries.append(row)
    return SeriesMatrix(field, entries)


def random_tensor(field: FieldContext, dims: Sequence[int], rng: random.Random) -> Tensor:
    """Each position holds a random scalar with probability 0.6, else zero."""
    from .tensors import Tensor

    entries = {}
    def fill(prefix):
        if len(prefix) == len(dims):
            if rng.random() < 0.6:
                entries[tuple(prefix)] = field.random_scalar(rng)
            return
        for v in range(1, dims[len(prefix)] + 1):
            fill(prefix + [v])
    fill([])
    return Tensor(field, tuple(dims), entries)


def random_witness_instance(field: FieldContext, dims: Sequence[int], rng: random.Random):
    """A curve tuple and tensor with a guaranteed, nonzero specialization.

    Each factor is ``h1 · diag(t^w) · h2^{-1}`` with the inverse built as a
    product of exactly invertible elementary factors; the first factor is
    then scaled by a power of ``t`` making the moved tensor's minimal
    valuation exactly zero (so the limit exists and is nonzero).
    """
    from .tensors import act_series

    dims = tuple(dims)
    gs = []
    for n in dims:
        h1 = random_series_unit_matrix(field, n, rng)
        h2_inv = random_series_unit_matrix(field, n, rng)
        w = sorted(rng.randint(-2, 2) for _ in range(n))
        g = h1 @ SeriesMatrix.diag_powers(field, w) @ h2_inv
        gs.append(g)
    while True:
        p = random_tensor(field, dims, rng)
        if not p.is_zero():
            break
    # every g is invertible and p is nonzero, so the moved tensor is nonzero
    shift = -min(e.val for _, e in act_series(gs, p).support())
    if shift != 0:
        gs[0] = gs[0].shift(shift)
    return tuple(gs), p
