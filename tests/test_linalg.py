import random

import pytest

from borderlab import PrimeField, QQ, SingularError, linalg
from borderlab.fields import is_prime
from conftest import reduced

P62 = next(p for p in range(2**62 - 57, 2**62) if is_prime(p))


def random_square(field, rng, n):
    """A square matrix that is singular about half the time: one row is a
    combination of the others, or one column is zero."""
    m = [[field.random_scalar(rng) for _ in range(n)] for _ in range(n)]
    if n and rng.random() < 0.5:
        i = rng.randrange(n)
        if rng.random() < 0.5:
            for row in m:
                row[i] = field.zero()
        else:
            m[i] = [field.zero()] * n
            for r in range(n):
                if r != i:
                    c = field.random_scalar(rng)
                    m[i] = [reduced(field, x + c * y) for x, y in zip(m[i], m[r])]
    return m


@pytest.mark.parametrize("field", [QQ, PrimeField(P62), PrimeField(2)], ids=repr)
def test_is_invertible_agrees_with_mat_inv(field):
    rng = random.Random(f"invertible:{field!r}")
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        m = random_square(field, rng, rng.randint(0, 6))
        try:
            inv = linalg.mat_inv(field, m)
        except SingularError:
            inv = None
        else:
            assert linalg.mat_mul(field, m, inv) == linalg.identity(field, len(m))
        assert linalg.is_invertible(field, m) == (inv is not None)
        outcomes[inv is not None] += 1
    # not vacuous: both answers occur often
    assert min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize("field", [QQ, PrimeField(P62), PrimeField(2)], ids=repr)
def test_sparse_rank_is_full_exactly_when_the_matrix_is_invertible(field):
    # a row that combines the others makes entries cancel to zero during
    # the elimination, and those must leave the column
    rng = random.Random(f"sparse-rank:{field!r}")
    for _ in range(200):
        m = random_square(field, rng, rng.randint(0, 6))
        columns = [{i: row[j] for i, row in enumerate(m)} for j in range(len(m))]
        assert (linalg.sparse_rank(field, columns) == len(m)) == linalg.is_invertible(field, m)
