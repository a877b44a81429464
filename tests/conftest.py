import itertools
import random

import pytest

from borderlab import PrimeField, QQ
from borderlab.series import LaurentSeries


@pytest.fixture
def fp():
    return PrimeField(1000003)


@pytest.fixture
def fields(fp):
    return [QQ, fp]


@pytest.fixture
def rng():
    return random.Random(20240917)


def series(field, terms):
    """Exact Laurent polynomial from an {exponent: int} mapping."""
    return LaurentSeries.from_terms(field, {k: field.from_int(c) for k, c in terms.items()})


def tpow(field, k):
    return LaurentSeries.t_power(field, k)


def leibniz_determinant(m):
    """Determinant of a square series matrix by Leibniz expansion (test oracle)."""
    if m.rows != m.cols or m.rows > 6:
        raise ValueError("the Leibniz oracle takes square matrices up to size 6")
    acc = LaurentSeries.zero(m.field)
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        term = LaurentSeries.constant(m.field, m.field.from_int((-1) ** inversions))
        for i, j in enumerate(perm):
            term = term * m.entries[i][j]
        acc = acc + term
    return acc
