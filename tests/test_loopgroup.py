import dataclasses
import random

import pytest

from borderlab import (
    PrecisionError,
    PrimeField,
    QQ,
    LaurentSeries,
    SeriesMatrix,
    SingularError,
    cartan_decompose,
    smith_form,
    verify_cartan,
)
from borderlab.instances import (
    random_invertible_laurent_matrix,
    random_series_unit_matrix,
)

from conftest import leibniz_determinant, series, tpow


def sl2_example_matrix(field=QQ):
    return SeriesMatrix(field, [
        [tpow(field, -1), LaurentSeries.zero(field)],
        [LaurentSeries.monomial(field, field.from_int(-1), -2), tpow(field, 1)],
    ])


# ---------------------------------------------------------------------------
# Smith reduction
# ---------------------------------------------------------------------------

def test_smith_already_diagonal():
    m = SeriesMatrix.diag_powers(QQ, [1, 3])
    u, exps, v = smith_form(m, 16)
    assert exps == [1, 3]
    assert u == SeriesMatrix.identity(QQ, 2)
    assert v == SeriesMatrix.identity(QQ, 2)


def test_smith_antidiagonal_swap():
    m = SeriesMatrix(QQ, [[LaurentSeries.zero(QQ), tpow(QQ, 1)],
                          [tpow(QQ, 2), LaurentSeries.zero(QQ)]])
    u, exps, v = smith_form(m, 16)
    assert exps == [1, 2]
    # permutation-type transforms: every entry is 0 or a constant
    for mat in (u, v):
        for row in mat.entries:
            for e in row:
                assert len(e.coeffs) <= 1 and (not e.coeffs or e.val == 0)
    assert (u @ SeriesMatrix.diag_powers(QQ, exps) @ v - m).is_zero_mod(16)


def test_smith_unit_pivot():
    m = SeriesMatrix(QQ, [[tpow(QQ, 1), LaurentSeries.zero(QQ)],
                          [series(QQ, {0: -1}), tpow(QQ, 3)]])
    u, exps, v = smith_form(m, 16)
    assert exps == [0, 4]
    assert (u @ SeriesMatrix.diag_powers(QQ, exps) @ v - m).is_zero_mod(16)
    # exponent sum equals the determinant valuation (Leibniz oracle)
    assert sum(exps) == leibniz_determinant(m).valuation()


def test_smith_rejects_negative_valuations():
    m = SeriesMatrix(QQ, [[tpow(QQ, -1)]])
    with pytest.raises(ValueError):
        smith_form(m, 8)


def test_smith_singular():
    one = series(QQ, {0: 1})
    m = SeriesMatrix(QQ, [[one, one], [one, one]])
    with pytest.raises(SingularError):
        smith_form(m, 8)


def test_smith_ambiguous_pivot_precision():
    fuzzy = LaurentSeries(QQ, 0, (), 0)  # nothing known at all
    m = SeriesMatrix(QQ, [[fuzzy, tpow(QQ, 1)], [tpow(QQ, 2), LaurentSeries.zero(QQ)]])
    with pytest.raises(PrecisionError):
        smith_form(m, 8)


# ---------------------------------------------------------------------------
# Cartan decomposition
# ---------------------------------------------------------------------------

def test_cartan_sl2_example():
    g = sl2_example_matrix()
    dec = cartan_decompose(g, 16)
    assert dec.weights == (-2, 2)
    assert verify_cartan(g, dec).passed
    # this instance reproduces the classical factor choice exactly
    assert dec.h1 == SeriesMatrix(QQ, [[tpow(QQ, 1), series(QQ, {0: 1})],
                                       [series(QQ, {0: -1}), LaurentSeries.zero(QQ)]])
    assert dec.h2 == SeriesMatrix(QQ, [[series(QQ, {0: 1}), series(QQ, {3: 1})],
                                       [LaurentSeries.zero(QQ), series(QQ, {0: 1})]])


def test_cartan_identity():
    g = SeriesMatrix.identity(QQ, 2)
    dec = cartan_decompose(g, 8)
    assert dec.weights == (0, 0)
    assert dec.h1 == SeriesMatrix.identity(QQ, 2)
    assert dec.h2 == SeriesMatrix.identity(QQ, 2)


def test_cartan_diagonal_unshift():
    g = SeriesMatrix.diag_powers(QQ, [3, -1])
    dec = cartan_decompose(g, 8)
    assert dec.weights == (-1, 3)
    assert verify_cartan(g, dec).passed


@pytest.mark.parametrize("n", [0, -3])
def test_cartan_refuses_a_precision_below_one(n):
    with pytest.raises(ValueError):
        cartan_decompose(sl2_example_matrix(), n)


def test_cartan_refuses_a_precision_beyond_its_input():
    # known to t^5: decomposed and verified at precision 4, refused at 6 and 32
    def known_to_t5(*coeffs):
        return LaurentSeries(QQ, 0, [QQ.from_int(c) for c in coeffs], 5)

    g = SeriesMatrix(QQ, [[known_to_t5(1, 2), known_to_t5(0, 1)], [known_to_t5(3, 0, 1), known_to_t5(1, 1)]])
    assert verify_cartan(g, cartan_decompose(g, 4)).passed
    for n in (6, 32):
        with pytest.raises(PrecisionError, match="known only to t\\^5"):
            cartan_decompose(g, n)


def test_verify_accepts_the_classical_factor_triple():
    # the textbook factor triple of the example curve, assembled by hand
    from borderlab import CartanDecomposition

    g = sl2_example_matrix()
    h1 = SeriesMatrix(QQ, [[tpow(QQ, 1), series(QQ, {0: 1})],
                           [series(QQ, {0: -1}), LaurentSeries.zero(QQ)]])
    h2 = SeriesMatrix(QQ, [[series(QQ, {0: 1}), series(QQ, {3: 1})],
                           [LaurentSeries.zero(QQ), series(QQ, {0: 1})]])
    dec = CartanDecomposition(h1=h1, weights=(-2, 2), h2=h2, precision=12)
    assert verify_cartan(g, dec).passed


def test_verify_accepts_alternative_valid_triples():
    # rescaling h1 and h2 by the same constant diagonal keeps the identity
    from borderlab import CartanDecomposition

    g = sl2_example_matrix()
    dec = cartan_decompose(g, 16)
    scale = SeriesMatrix(QQ, [[series(QQ, {0: 5}), LaurentSeries.zero(QQ)],
                              [LaurentSeries.zero(QQ), series(QQ, {0: 7})]])
    alt = CartanDecomposition(
        h1=dec.h1 @ scale, weights=dec.weights, h2=dec.h2 @ scale, precision=dec.precision
    )
    assert verify_cartan(g, alt).passed


def test_verify_rejects_permuted_weights():
    g = sl2_example_matrix()
    dec = cartan_decompose(g, 16)
    tampered = dataclasses.replace(dec, weights=(2, -2))
    verdict = verify_cartan(g, tampered)
    assert not verdict.passed
    assert verdict.residual is not None


def test_verify_stable_under_doubled_precision():
    g = sl2_example_matrix()
    dec = cartan_decompose(g, 32)
    assert verify_cartan(g, dec).passed


def test_weight_sum_equals_det_valuation():
    rng = random.Random(41)
    for trial in range(25):
        field = QQ if trial % 2 else PrimeField(65537)
        n = rng.randint(1, 4)
        g = random_invertible_laurent_matrix(field, n, rng)
        dec = cartan_decompose(g, 16)
        assert sum(dec.weights) == leibniz_determinant(g).valuation()
        assert list(dec.weights) == sorted(dec.weights)


def test_weights_invariant_under_unit_translations():
    rng = random.Random(42)
    fp = PrimeField(1000003)
    for trial in range(10):
        field = QQ if trial % 2 else fp
        n = rng.randint(2, 4)
        g = random_invertible_laurent_matrix(field, n, rng)
        u = random_series_unit_matrix(field, n, rng)
        v = random_series_unit_matrix(field, n, rng)
        base = cartan_decompose(g, 16)
        moved = cartan_decompose(u @ g @ v, 16)
        assert sorted(base.weights) == sorted(moved.weights)


def test_round_trip_random():
    rng = random.Random(43)
    fp = PrimeField(1000003)
    for trial in range(60):
        field = QQ if trial % 2 else fp
        n = rng.randint(1, 4)
        g = random_invertible_laurent_matrix(field, n, rng)
        dec = cartan_decompose(g, 16)
        assert verify_cartan(g, dec).passed


def test_determinism():
    from borderlab.jsonio import cartan_to_obj

    g = sl2_example_matrix()
    a = cartan_to_obj(cartan_decompose(g, 16))
    b = cartan_to_obj(cartan_decompose(g, 16))
    assert a == b
