import random

import pytest

from borderlab import (
    NoLimitError,
    PrimeField,
    QQ,
    LaurentSeries,
    SeriesMatrix,
    Tensor,
    act,
    build_witness,
    limit_at_infinity,
    limit_at_zero,
    specialize,
    sym3_lift,
    sym3_lift_constant,
)
from borderlab import linalg
from borderlab.instances import random_witness_instance

from conftest import cartan_weights, series, tpow, unit_tensor, weight_decompose

X3, X2Y, XY2, Y3 = (1,), (2,), (3,), (4,)


def sl2_matrix():
    return SeriesMatrix(QQ, [
        [tpow(QQ, -1), LaurentSeries.zero(QQ)],
        [LaurentSeries(QQ, -2, [QQ.from_int(-1)]), tpow(QQ, 1)],
    ])


def cubic(*positions):
    return Tensor(QQ, (4,), {pos: QQ.one() for pos in positions})


# ---------------------------------------------------------------------------
# the cubic lift
# ---------------------------------------------------------------------------

def test_sym3_identity():
    lifted = sym3_lift(SeriesMatrix.identity(QQ, 2))
    assert lifted == SeriesMatrix.identity(QQ, 4)


def test_sym3_diagonal():
    d = SeriesMatrix.diag_powers(QQ, [-2, 2])
    lifted = sym3_lift(d)
    assert lifted == SeriesMatrix.diag_powers(QQ, [6, 2, -2, -6])


def test_sym3_rotation_order_four():
    rot = [[QQ.zero(), QQ.one()], [QQ.from_int(-1), QQ.zero()]]
    lifted = sym3_lift_constant(QQ, rot)
    power = linalg.identity(QQ, 4)
    for _ in range(4):
        power = linalg.mat_mul(QQ, power, lifted)
    assert power == linalg.identity(QQ, 4)
    # multiplicativity against the direct lift of rot^4 = identity
    rot4 = linalg.identity(QQ, 2)
    assert sym3_lift_constant(QQ, rot4) == linalg.identity(QQ, 4)


def test_sym3_multiplicative_random():
    rng = random.Random(31)
    for _ in range(10):
        g = [[QQ.random_scalar(rng) for _ in range(2)] for _ in range(2)]
        h = [[QQ.random_scalar(rng) for _ in range(2)] for _ in range(2)]
        lhs = sym3_lift_constant(QQ, linalg.mat_mul(QQ, g, h))
        rhs = linalg.mat_mul(QQ, sym3_lift_constant(QQ, g), sym3_lift_constant(QQ, h))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------

def test_specialize_identity():
    p = cubic(X2Y)
    assert specialize([SeriesMatrix.identity(QQ, 4)], p) == p


def test_lifted_curve_moves_x2y():
    from borderlab import act_series

    moved = act_series([sym3_lift(sl2_matrix())], cubic(X2Y))
    entries, zero = dict(moved.support()), LaurentSeries.zero(QQ)
    assert entries.get(X3, zero) == LaurentSeries(QQ, 0, [1])
    assert entries.get(X2Y, zero) == tpow(QQ, 1)
    assert entries.get(XY2, zero).is_exactly_zero()
    assert entries.get(Y3, zero).is_exactly_zero()


def test_specialize_cubics_curve():
    # the lifted curve carries x^2 y to x^3 + t x^2 y, hence to x^3 at t=0
    q = specialize([sym3_lift(sl2_matrix())], cubic(X2Y))
    assert q == cubic(X3)


def test_specialize_uniformly_vanishing_curve():
    t_scale = SeriesMatrix.diag_powers(QQ, [1, 1])
    ident = SeriesMatrix.identity(QQ, 2)
    p = unit_tensor(QQ, 2, 3)
    out = specialize([t_scale, ident, ident], p)
    assert out.is_zero()


def test_specialize_no_limit():
    bad = SeriesMatrix.diag_powers(QQ, [-1, 0])
    p = Tensor(QQ, (2,), {(1,): QQ.one()})
    with pytest.raises(NoLimitError) as err:
        specialize([bad], p)
    assert err.value.weight == -1


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------

def test_sl2_cubics_witness_end_to_end():
    w = build_witness([sl2_matrix()], cubic(X2Y), 16, lift="sym3")
    assert cartan_weights(w) == ((-2, 2),)
    assert w.q == cubic(X3)
    assert w.q_tilde == cubic(Y3)
    assert w.shared_limit.is_zero()
    assert w.subgroup.factors[0].weights == (6, 2, -2, -6)
    # the degenerate-orbit point: the shared limit is 0, yet q is not
    assert not w.q.is_zero()
    # both limits recomputed from scratch
    assert limit_at_zero(w.subgroup, cubic(X2Y)).is_zero()
    assert limit_at_infinity(w.subgroup, w.q_tilde).is_zero()


def test_witness_for_standard_subgroup_curve():
    # g already diagonal with p in the nonnegative part: the witness
    # degenerates to the weight-zero component
    g = SeriesMatrix.diag_powers(QQ, [0, 1])
    p = Tensor(QQ, (2, 2), {(1, 1): QQ.from_int(3), (2, 2): QQ.one()})
    w = build_witness([g, g], p, 16)
    expected = Tensor(QQ, (2, 2), {(1, 1): QQ.from_int(3)})
    assert w.q == expected
    assert w.q_tilde == expected
    assert w.shared_limit == expected


def test_witness_orbit_consistency_and_concentration():
    rng = random.Random(71)
    for trial in range(25):
        field = QQ if trial % 2 else PrimeField(1000003)
        d = rng.choice([2, 3])
        dims = tuple(rng.randint(1, 4) for _ in range(d))
        gs, p = random_witness_instance(field, dims, rng)
        w = build_witness(gs, p, 16)
        # q~ is the image of q under the recorded invertible tuple
        mats = [[list(r) for r in m] for m in w.translations]
        for m in mats:
            assert linalg.is_invertible(field, m)
        assert act(mats, w.q) == w.q_tilde
        # the shared limit is concentrated in weight zero
        dec = weight_decompose(w.shared_limit, w.subgroup)
        assert dec.weights() in ([], [0])


def test_witness_classical_criterion_shadow():
    # a constant curve has trivial weights; q~ is fixed by the subgroup and
    # the t->0 limit of p lands exactly on it
    rng = random.Random(72)
    const = [[QQ.random_scalar(rng) for _ in range(3)] for _ in range(3)]
    while not linalg.is_invertible(QQ, const):
        const = [[QQ.random_scalar(rng) for _ in range(3)] for _ in range(3)]
    g = SeriesMatrix.from_scalar_matrix(QQ, const)
    p = Tensor(QQ, (3, 3), {(1, 2): QQ.one(), (3, 3): QQ.from_int(2)})
    w = build_witness([g, SeriesMatrix.identity(QQ, 3)], p, 16)
    assert limit_at_infinity(w.subgroup, w.q_tilde) == w.q_tilde
    assert limit_at_zero(w.subgroup, p) == w.q_tilde
    assert w.shared_limit == w.q_tilde


def test_witness_rejects_wrong_lift_shape():
    from borderlab.errors import ShapeError

    with pytest.raises(ShapeError):
        build_witness([SeriesMatrix.identity(QQ, 3)], cubic(X3), 8, lift="sym3")
