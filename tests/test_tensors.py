import itertools
import random

import pytest

from borderlab import (
    NoLimitError,
    PrimeField,
    QQ,
    LaurentPolynomials,
    LaurentSeries,
    OneParamSubgroup,
    SeriesMatrix,
    ShapeError,
    SubgroupFactor,
    Tensor,
    act,
    act_series,
    limit_at_infinity,
    limit_at_zero,
    recognize_unit_tensor,
    specialize,
)
from borderlab import linalg
from borderlab.instances import random_tensor

from conftest import (
    reconstruct,
    series_matrices,
    subgroup_from_weights,
    tpow,
    trivial_subgroup,
    unit_tensor,
    weight_decompose,
)


def _perm_matrix(field, perm):
    """Matrix sending basis vector ``j`` to basis vector ``perm[j]`` (0-based)."""
    n = len(perm)
    out = [[field.zero()] * n for _ in range(n)]
    for j, i in enumerate(perm):
        out[i][j] = field.one()
    return out


# ---------------------------------------------------------------------------
# multilinear action
# ---------------------------------------------------------------------------

def test_act_simultaneous_permutation_fixes_unit():
    t = unit_tensor(QQ, 3, 3)
    p = _perm_matrix(QQ, [2, 0, 1])
    assert act((p, p, p), t) == t


def test_act_diagonal_scaling():
    t = unit_tensor(QQ, 3, 3)
    diag = [[QQ.from_int(c) if i == j else QQ.zero() for j in range(3)] for i, c in enumerate([2, 3, 5])]
    ident = linalg.identity(QQ, 3)
    out = act((diag, ident, ident), t)
    assert out == Tensor(QQ, (3, 3, 3), {(i, i, i): QQ.from_int(c) for i, c in zip((1, 2, 3), (2, 3, 5))})


def test_act_projection_recovers_unit():
    # unit tensor padded into larger dims, then projected back
    big = Tensor(QQ, (4, 5, 4), {(i, i, i): QQ.one() for i in (1, 2, 3)})
    proj = lambda m: [[QQ.one() if i == j else QQ.zero() for j in range(m)] for i in range(3)]
    out = act((proj(4), proj(5), proj(4)), big)
    assert out == unit_tensor(QQ, 3, 3)


def test_act_multiplicative():
    rng = random.Random(9)
    for _ in range(5):
        dims = (2, 3)
        t = random_tensor(QQ, dims, rng)
        g = [[[QQ.random_scalar(rng) for _ in range(n)] for _ in range(n)] for n in dims]
        h = [[[QQ.random_scalar(rng) for _ in range(n)] for _ in range(n)] for n in dims]
        gh = [linalg.mat_mul(QQ, a, b) for a, b in zip(g, h)]
        assert act(g, act(h, t)) == act(gh, t)


def test_act_series_identity():
    t = unit_tensor(QQ, 2, 3)
    mats = [SeriesMatrix.identity(QQ, 2)] * 3
    lifted = {pos: LaurentSeries(QQ, 0, [v]) for pos, v in t.support()}
    assert act_series(mats, t) == Tensor(LaurentPolynomials(QQ), t.dims, lifted)
    assert specialize(mats, t) == t


def test_act_series_trivial_subgroup_on_unit():
    lam = trivial_subgroup(QQ, (2, 2, 2))
    mats = series_matrices(lam)
    assert specialize(mats, unit_tensor(QQ, 2, 3)) == unit_tensor(QQ, 2, 3)


# ---------------------------------------------------------------------------
# weight decompositions
# ---------------------------------------------------------------------------

def test_weight_decompose_trivial():
    t = Tensor(QQ, (2, 2), {(1, 2): QQ.one(), (2, 1): QQ.from_int(3)})
    lam = trivial_subgroup(QQ, (2, 2))
    dec = weight_decompose(t, lam)
    assert dec.weights() == [0]
    assert dec.component(0) == t
    assert reconstruct(dec) == t


def test_weight_decompose_all_ones_cube():
    lam = subgroup_from_weights(QQ, [[1, 2], [1, 2], [-2, -2]])
    t = Tensor(QQ, (2, 2, 2), {pos: QQ.one() for pos in itertools.product((1, 2), repeat=3)})
    dec = weight_decompose(t, lam)
    assert dec.weights() == [0, 1, 2]
    comp0 = {pos for pos, _ in dec.component(0).support()}
    assert comp0 == {(1, 1, 1), (1, 1, 2)}
    comp1 = {pos for pos, _ in dec.component(1).support()}
    assert comp1 == {(1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2)}
    comp2 = {pos for pos, _ in dec.component(2).support()}
    assert comp2 == {(2, 2, 1), (2, 2, 2)}


def test_weight_decompose_doubling_profile_corner():
    from conftest import pyramid_weight_profile

    profile = pyramid_weight_profile(9, 3)
    lam = profile.subgroup(QQ)
    t = Tensor(QQ, (9, 9, 9), {(1, 1, 1): QQ.one()})
    dec = weight_decompose(t, lam)
    assert dec.weights() == [-12]  # 2 + 2 - 16


def test_weight_decompose_reconstruction_random_basis():
    rng = random.Random(77)
    fld = PrimeField(101)
    for _ in range(5):
        dims = (2, 3)
        t = random_tensor(fld, dims, rng)
        factors = []
        for n in dims:
            while True:
                basis = [[fld.random_scalar(rng) for _ in range(n)] for _ in range(n)]
                if linalg.is_invertible(fld, basis):
                    break
            weights = sorted(rng.randint(-3, 3) for _ in range(n))
            factors.append(SubgroupFactor(weights=tuple(weights), basis=tuple(tuple(r) for r in basis)))
        lam = OneParamSubgroup(fld, factors)
        dec = weight_decompose(t, lam)
        assert reconstruct(dec) == t


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def _cubics_diag_subgroup():
    # weights of diag(t^-2, t^2) on (x^3, x^2 y, x y^2, y^3)
    return subgroup_from_weights(QQ, [[6, 2, -2, -6]])


def test_limit_cubics_to_zero():
    lam = _cubics_diag_subgroup()
    p = Tensor(QQ, (4,), {(2,): QQ.one()})  # x^2 y, weight 2
    assert limit_at_zero(lam, p).is_zero()


def test_limit_cubics_to_infinity():
    lam = _cubics_diag_subgroup()
    q = Tensor(QQ, (4,), {(4,): QQ.one()})  # y^3, weight -6
    assert limit_at_infinity(lam, q).is_zero()


def test_limit_trivial_subgroup():
    t = Tensor(QQ, (2, 2), {(1, 2): QQ.from_int(4)})
    lam = trivial_subgroup(QQ, (2, 2))
    assert limit_at_zero(lam, t) == t
    assert limit_at_infinity(lam, t) == t


def test_limit_failure_reports_witness():
    lam = subgroup_from_weights(QQ, [[-5, 1]])
    t = Tensor(QQ, (2,), {(1,): QQ.one()})
    with pytest.raises(NoLimitError) as err:
        limit_at_zero(lam, t)
    assert err.value.position == (1,)
    assert err.value.weight == -5


def test_limit_at_infinity_failure_reports_the_positive_weight():
    # the weight is lambda's own, not that of t -> lambda(1/t)
    lam = subgroup_from_weights(QQ, [[-5, 1]])
    t = Tensor(QQ, (2,), {(1,): QQ.one(), (2,): QQ.one()})
    with pytest.raises(NoLimitError) as err:
        limit_at_infinity(lam, t)
    assert (err.value.position, err.value.weight) == ((2,), 1)
    assert str(err.value) == "no limit at t->inf: eigen-position (2,) has positive weight 1"


def test_limit_consistency_with_decomposition():
    rng = random.Random(13)
    for _ in range(20):
        dims = (2, 2, 2)
        t = random_tensor(QQ, dims, rng)
        lam = subgroup_from_weights(
            QQ, [sorted(rng.randint(-2, 2) for _ in range(n)) for n in dims]
        )
        dec = weight_decompose(t, lam)
        has_negative = any(w < 0 for w in dec.weights())
        try:
            value = limit_at_zero(lam, t)
            assert not has_negative
            assert value == lam.from_eigen(dec.component(0))
        except NoLimitError:
            assert has_negative


def test_limit_huge_weights_by_sign_analysis():
    lam = subgroup_from_weights(QQ, [[2**200, 2**201], [-(2**200), 0]])
    t = Tensor(QQ, (2, 2), {(1, 1): QQ.one(), (2, 2): QQ.from_int(5)})
    out = limit_at_zero(lam, t)  # weights: 0 and 2^201 -> keep only (1,1)
    assert out == Tensor(QQ, (2, 2), {(1, 1): QQ.one()})


def test_conjugation_covariance_on_equal_weights():
    # replacing the basis h by h·P for a permutation P of equal-weight
    # columns does not change the limit
    fld = QQ
    basis = [
        [QQ.one(), QQ.from_int(2), QQ.from_int(1)],
        [QQ.zero(), QQ.one(), QQ.from_int(3)],
        [QQ.from_int(1), QQ.one(), QQ.one()],
    ]
    perm = _perm_matrix(fld, [1, 0, 2])  # swap the two weight-0 columns
    swapped = linalg.mat_mul(fld, basis, perm)
    freeze = lambda m: tuple(tuple(r) for r in m)
    lam = OneParamSubgroup(fld, [SubgroupFactor(weights=(0, 0, 2), basis=freeze(basis))])
    lam_p = OneParamSubgroup(fld, [SubgroupFactor(weights=(0, 0, 2), basis=freeze(swapped))])
    t = Tensor(fld, (3,), {(1,): QQ.from_int(7), (2,): QQ.from_int(-2), (3,): QQ.one()})
    out = limit_at_zero(lam, t)
    assert out == limit_at_zero(lam_p, t)
    assert not out.is_zero()
    with pytest.raises(NoLimitError):
        limit_at_infinity(lam, t)


def test_limit_matches_series_expansion_oracle():
    # dual route: sign analysis vs literal series expansion, random bases
    rng = random.Random(99)
    fld = PrimeField(65537)
    trials = 0
    while trials < 15:
        dims = (2, 2)
        factors = []
        for n in dims:
            while True:
                basis = [[fld.random_scalar(rng) for _ in range(n)] for _ in range(n)]
                if linalg.is_invertible(fld, basis):
                    break
            weights = sorted(rng.randint(0, 3) for _ in range(n))  # no negatives
            factors.append(SubgroupFactor(weights=tuple(weights), basis=tuple(tuple(r) for r in basis)))
        lam = OneParamSubgroup(fld, factors)
        t = random_tensor(fld, dims, rng)
        expansion = specialize(series_matrices(lam), t)
        assert limit_at_zero(lam, t) == expansion
        trials += 1


def test_eigen_action_matches_series_action():
    # for a standard-basis subgroup, acting by lambda(t) scales each
    # position by t^weight; checked symbolically at small weights
    rng = random.Random(55)
    lam = subgroup_from_weights(QQ, [[-1, 2], [0, 1]])
    t = random_tensor(QQ, (2, 2), rng)
    st = act_series(list(series_matrices(lam)), t)
    moved = dict(st.support())
    for pos, value in t.support():
        w = lam.weight_of(pos)
        assert moved.get(pos, LaurentSeries.zero(QQ)) == LaurentSeries(QQ, w, [value])


# ---------------------------------------------------------------------------
# unit tensors and the recognizer
# ---------------------------------------------------------------------------

def test_unit_tensor_empty():
    t = unit_tensor(QQ, 0, 3)
    assert t.dims == (0, 0, 0)
    assert recognize_unit_tensor(t) == 0


def test_unit_tensor_small():
    t = unit_tensor(QQ, 2, 3)
    assert sorted(pos for pos, _ in t.support()) == [(1, 1, 1), (2, 2, 2)]


def test_unit_tensor_matrix_case():
    t = unit_tensor(QQ, 3, 2)
    assert t.dims == (3, 3)
    entries = dict(t.support())
    assert all(
        entries.get((i, j), QQ.zero()) == (QQ.one() if i == j else QQ.zero()) for i in (1, 2, 3) for j in (1, 2, 3)
    )
    assert recognize_unit_tensor(t) == 3


def test_recognizer_accepts_unit_tensors():
    for r in (1, 2, 5):
        assert recognize_unit_tensor(unit_tensor(QQ, r, 3)) == r


def test_recognizer_accepts_antidiagonal_layers():
    r = 4
    entries = {(r - l + 1, r - l + 1, l): QQ.one() for l in range(1, r + 1)}
    t = Tensor(QQ, (6, 6, 6), entries)
    assert recognize_unit_tensor(t) == r


def test_recognizer_rejects_repeated_coordinate():
    t = Tensor(QQ, (2, 2, 2), {(1, 1, 1): QQ.one(), (1, 2, 2): QQ.one()})
    assert recognize_unit_tensor(t) is None


def test_shape_errors():
    with pytest.raises(ShapeError):
        act((linalg.identity(QQ, 2),), unit_tensor(QQ, 2, 3))
    t = Tensor(QQ, (2, 2), {})
    lam = trivial_subgroup(QQ, (3, 3))
    with pytest.raises(ShapeError):
        limit_at_zero(lam, t)
