import random

import pytest

from borderlab import (
    PrecisionError,
    PrimeField,
    QQ,
    LaurentSeries,
    SeriesMatrix,
    SingularError,
)
from borderlab.instances import random_laurent_polynomial, random_series_unit_matrix

from conftest import leibniz_determinant, series, tpow


# ---------------------------------------------------------------------------
# arithmetic on the worked examples
# ---------------------------------------------------------------------------

def test_mul_cross_terms():
    # (t^-1 + 1)(t - t^2) = 1 - t^2
    a = series(QQ, {-1: 1, 0: 1})
    b = series(QQ, {1: 1, 2: -1})
    assert a * b == series(QQ, {0: 1, 2: -1})


def test_add_identity():
    s = series(QQ, {-2: 3, 1: 5})
    assert s + LaurentSeries.zero(QQ) == s


def test_exactness_preserved_by_mul():
    a = series(QQ, {0: 1, 1: 1})
    b = series(QQ, {0: 1, 1: -1})
    prod = a * b
    assert prod == series(QQ, {0: 1, 2: -1})
    assert prod.is_exact


def test_truncation_propagation():
    a = series(QQ, {0: 1}).truncate(5)
    b = series(QQ, {2: 1})
    assert (a * b).trunc == 7  # shifted by the valuation of b
    assert (a + b.truncate(3)).trunc == 3


def test_normalization_strips_zeros():
    s = LaurentSeries(QQ, -1, [QQ.zero(), QQ.one(), QQ.zero()])
    assert s.val == 0
    assert s.coeffs == (QQ.one(),)


def test_mixed_field_contexts_rejected():
    from borderlab import FieldMismatchError

    fp = PrimeField(13)
    a = series(QQ, {0: 1})
    b = LaurentSeries.constant(fp, fp.one())
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_zero_to_precision_is_distinct_from_exact_zero():
    exact = LaurentSeries.zero(QQ)
    fuzzy = LaurentSeries(QQ, 0, (), 8)
    assert exact.is_exactly_zero()
    assert not fuzzy.is_exactly_zero()
    assert fuzzy.has_no_known_terms()
    with pytest.raises(PrecisionError):
        fuzzy.valuation()


# ---------------------------------------------------------------------------
# unit inversion
# ---------------------------------------------------------------------------

def test_inverse_geometric():
    s = series(QQ, {0: 1, 1: -1})
    assert s.inverse(4) == LaurentSeries(QQ, 0, [QQ.one()] * 4, 4)


def test_inverse_monomial_exact():
    inv = tpow(QQ, 2).inverse(4)
    assert inv == tpow(QQ, -2)
    assert inv.is_exact


def test_inverse_rational():
    from fractions import Fraction

    s = series(QQ, {0: 2, 1: 1})
    inv = s.inverse(3)
    assert list(inv.coeffs) == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)]
    assert inv.trunc == 3


def test_inverse_zero_to_precision_raises():
    with pytest.raises(PrecisionError):
        LaurentSeries(QQ, 0, (), 4).inverse(4)
    with pytest.raises(SingularError):
        LaurentSeries.zero(QQ).inverse(4)


def test_inverse_round_trip_random():
    rng = random.Random(11)
    fp = PrimeField(1000003)
    for trial in range(500):
        field = QQ if trial % 2 else fp
        s = random_laurent_polynomial(field, rng, -3, 3, max_terms=4, nonzero=True)
        inv = s.inverse(16)
        assert (s * inv - LaurentSeries.one(field)).is_zero_mod(16)


# ---------------------------------------------------------------------------
# ring laws mod t^16
# ---------------------------------------------------------------------------

def test_ring_laws_mod_16():
    rng = random.Random(3)
    fp = PrimeField(997)
    for trial in range(60):
        field = QQ if trial % 2 else fp
        a = random_laurent_polynomial(field, rng, -2, 4).truncate(16)
        b = random_laurent_polynomial(field, rng, -2, 4).truncate(16)
        c = random_laurent_polynomial(field, rng, -2, 4).truncate(16)
        n = 8  # valuations can reach -2, keep a safe margin below 16
        assert ((a * b) * c - a * (b * c)).is_zero_mod(n)
        assert (a * (b + c) - (a * b + a * c)).is_zero_mod(n)


# ---------------------------------------------------------------------------
# series matrices
# ---------------------------------------------------------------------------

def test_matrix_identity_inverse():
    m = SeriesMatrix.identity(QQ, 3)
    assert m.inverse(8) == m


def test_matrix_upper_unipotent_inverse():
    # [[1, -t^3], [0, 1]]^{-1} = [[1, t^3], [0, 1]]
    m = SeriesMatrix(QQ, [[series(QQ, {0: 1}), series(QQ, {3: -1})],
                          [LaurentSeries.zero(QQ), series(QQ, {0: 1})]])
    inv = m.inverse(8)
    expected = SeriesMatrix(QQ, [[series(QQ, {0: 1}), series(QQ, {3: 1})],
                                 [LaurentSeries.zero(QQ), series(QQ, {0: 1})]])
    assert inv == expected


def test_worked_example_factor_product():
    # h1 * diag(t^-2, t^2) * h2^{-1} = [[t^-1, 0], [-t^-2, t]]
    h1 = SeriesMatrix(QQ, [[tpow(QQ, 1), series(QQ, {0: 1})],
                           [series(QQ, {0: -1}), LaurentSeries.zero(QQ)]])
    mid = SeriesMatrix.diag_powers(QQ, [-2, 2])
    h2_inv = SeriesMatrix(QQ, [[series(QQ, {0: 1}), series(QQ, {3: -1})],
                               [LaurentSeries.zero(QQ), series(QQ, {0: 1})]])
    product = h1 @ mid @ h2_inv
    expected = SeriesMatrix(QQ, [[tpow(QQ, -1), LaurentSeries.zero(QQ)],
                                 [series(QQ, {-2: -1}), tpow(QQ, 1)]])
    assert product == expected


def test_matrix_inverse_round_trip_random():
    rng = random.Random(23)
    fp = PrimeField(65537)
    for trial in range(30):
        field = QQ if trial % 2 else fp
        n = 2 + trial % 3
        m = random_series_unit_matrix(field, n, rng)
        inv = m.inverse(16)
        assert (m @ inv - SeriesMatrix.identity(field, n)).is_zero_mod(16)


def test_matrix_inverse_with_positive_valuation_pivot():
    # [[t, 1], [0, t]]^{-1} = [[t^-1, -t^-2], [0, t^-1]]
    m = SeriesMatrix(QQ, [[tpow(QQ, 1), series(QQ, {0: 1})],
                          [LaurentSeries.zero(QQ), tpow(QQ, 1)]])
    inv = m.inverse(8)
    expected = SeriesMatrix(QQ, [[tpow(QQ, -1), series(QQ, {-2: -1})],
                                 [LaurentSeries.zero(QQ), tpow(QQ, -1)]])
    assert (inv - expected).is_zero_mod(4)
    assert (m @ inv - SeriesMatrix.identity(QQ, 2)).is_zero_mod(4)


def test_matrix_singular_raises():
    m = SeriesMatrix(QQ, [[series(QQ, {0: 1}), series(QQ, {0: 1})],
                          [series(QQ, {0: 1}), series(QQ, {0: 1})]])
    with pytest.raises(SingularError):
        m.inverse(8)


def test_constant_terms_exact():
    m = SeriesMatrix(QQ, [[series(QQ, {0: 1, 1: 7}), series(QQ, {3: -1})],
                          [LaurentSeries.zero(QQ), series(QQ, {0: 1})]])
    inv = m.inverse(6)
    assert inv.constant_matrix() == [[QQ.one(), QQ.zero()], [QQ.zero(), QQ.one()]]


def test_determinant_oracle():
    m = SeriesMatrix(QQ, [[tpow(QQ, 1), LaurentSeries.zero(QQ)],
                          [series(QQ, {0: -1}), tpow(QQ, 3)]])
    det = leibniz_determinant(m)
    assert det == tpow(QQ, 4)
