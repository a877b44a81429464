import itertools
import random

import pytest

from borderlab import PrimeField, QQ, linalg
from borderlab.series import LaurentSeries, SeriesMatrix
from borderlab.tensors import OneParamSubgroup, Tensor


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


# ---------------------------------------------------------------------------
# oracles over the library's records
# ---------------------------------------------------------------------------

def trivial_subgroup(field, dims):
    """The one-parameter subgroup with every weight 0."""
    return OneParamSubgroup.from_weights(field, [[0] * n for n in dims])


def series_matrices(subgroup):
    """The subgroup's factors as exact series matrices ``h · diag(t^w) · h^-1``."""
    out = []
    for fac in subgroup.factors:
        d = SeriesMatrix.diag_powers(subgroup.field, list(fac.weights))
        if fac.basis is None:
            out.append(d)
        else:
            basis = [list(r) for r in fac.basis]
            h = SeriesMatrix.from_scalar_matrix(subgroup.field, basis)
            hinv = SeriesMatrix.from_scalar_matrix(subgroup.field, linalg.mat_inv(subgroup.field, basis))
            out.append(h @ d @ hinv)
    return tuple(out)


def reconstruct(dec):
    """The tensor a weight decomposition splits: its components' sum, out of the eigenbasis."""
    total = Tensor.zeros(dec.base.field, dec.dims)
    for comp in dec.components.values():
        total = total + comp
    return dec.base.from_eigen(total)


def cartan_weights(witness):
    """The Cartan weights of each of a witness's decompositions."""
    return tuple(dec.weights for dec in witness.decompositions)


def cover_size(result):
    """The number of slices in a dichotomy's cover; 0 for a hypercube."""
    return 0 if result.cover is None else len(result.cover)


def elimination_rank(t_tilde, pattern, field):
    """The oracle: the restricted Jacobian built from its definition, ranked by elimination.

    Every upper-triangular matrix unit of factors 1 and 2 is a column; its
    entry at pyramid row ``(j, k, l)`` is ``T~[b, k, l]`` (factor 1,
    ``j = a``) or ``T~[j, b, l]`` (factor 2, ``k = a``).
    """
    n1, n2, _ = t_tilde.dims
    positions = pattern.positions
    entries = dict(t_tilde.support())
    columns = []
    for a in range(1, n1 + 1):
        for b in range(a, n1 + 1):
            columns.append({(a, k, l): v for (j, k, l), v in entries.items() if j == b and (a, k, l) in positions})
    for a in range(1, n2 + 1):
        for b in range(a, n2 + 1):
            columns.append({(j, a, l): v for (j, k, l), v in entries.items() if k == b and (j, a, l) in positions})
    return linalg.sparse_rank(field, columns)
