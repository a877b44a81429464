"""Sparse tensor storage against a dense reference implementation.

The reference below stores every slot of a tensor in a row-major list,
zeros included, and applies matrices one mode at a time over that list.
Every sparse operation must agree with it entry for entry, in support
order, in truncation orders and in the errors it raises.
"""

import itertools
import math
import random
import re

import pytest

from borderlab import (
    NoLimitError,
    PrecisionError,
    PrimeField,
    QQ,
    LaurentSeries,
    OneParamSubgroup,
    SeriesMatrix,
    SeriesTensor,
    ShapeError,
    SubgroupFactor,
    Tensor,
    act,
    act_series,
    build_planted_tensor,
    limit_at_infinity,
    limit_at_zero,
    pyramid_weight_profile,
    recognize_unit_tensor,
    weight_decompose,
)
from borderlab import linalg

FIELDS = [QQ, PrimeField(7), PrimeField(1000003)]
SHAPES = [(1,), (4,), (2, 3), (4, 1), (3, 3, 3), (4, 4, 4), (2, 3, 4), (3, 3, 3, 3), (2, 1, 3, 2)]


# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------

def positions(dims):
    return list(itertools.product(*(range(1, n + 1) for n in dims)))


def flat(pos, dims):
    out = 0
    for p, n in zip(pos, dims):
        out = out * n + (p - 1)
    return out


def dense(dims, entries, zero):
    data = [zero] * math.prod(dims)
    for pos, v in entries.items():
        data[flat(pos, dims)] = v
    return data


def dense_support(dims, data, nonzero):
    return [(pos, v) for pos, v in zip(positions(dims), data) if nonzero(v)]


def dense_mode_apply(dims, data, axis, mat, zero, add, mul, is_zero):
    """``mat`` (m x dims[axis]) along ``axis``, over every slot."""
    n, m = dims[axis], len(mat)
    inner = math.prod(dims[axis + 1 :])
    new_dims = dims[:axis] + (m,) + dims[axis + 1 :]
    out = [zero] * math.prod(new_dims)
    for i, v in enumerate(data):
        if is_zero(v):
            continue
        outer, rem = divmod(i, n * inner)
        b, off = divmod(rem, inner)
        for a in range(m):
            c = mat[a][b]
            if is_zero(c):
                continue
            idx = outer * m * inner + a * inner + off
            out[idx] = add(out[idx], mul(c, v))
    return new_dims, out


def dense_act(field, mats, dims, data):
    for axis, mat in enumerate(mats):
        dims, data = dense_mode_apply(dims, data, axis, mat, field.zero(), field.add, field.mul, field.is_zero)
    return dims, data


def dense_uniform_trunc(data):
    truncs = [e.trunc for e in data if e.trunc is not None]
    if not truncs:
        return data
    return [e.truncate(min(truncs)) for e in data]


def dense_act_series(field, mats, dims, data):
    data = [LaurentSeries.constant(field, v) for v in data]
    for axis, mat in enumerate(mats):
        dims, data = dense_mode_apply(
            dims,
            data,
            axis,
            mat.entries,
            LaurentSeries.zero(field),
            lambda a, b: a + b,
            lambda a, b: a * b,
            lambda e: e.is_exactly_zero(),
        )
    return dims, dense_uniform_trunc(data)


def dense_negative_valuation_entry(dims, data):
    for pos, e in zip(positions(dims), data):
        v = e.valuation_lower_bound()
        if v is not None and v < 0:
            return pos, (e.val if e.coeffs else v)
    return None


def dense_limit_at_zero(field, subgroup, dims, data):
    """Weight-sign analysis over the dense eigen-coordinates."""
    bases = [None if f.basis is None else [list(r) for r in f.basis] for f in subgroup.factors]
    if any(b is not None for b in bases):
        to_eigen = [linalg.identity(field, n) if b is None else linalg.mat_inv(field, b) for b, n in zip(bases, dims)]
        _, data = dense_act(field, to_eigen, dims, data)
    kept = [field.zero()] * len(data)
    for i, pos in enumerate(positions(dims)):
        if field.is_zero(data[i]):
            continue
        w = subgroup.weight_of(pos)
        if w < 0:
            raise NoLimitError("no limit", position=pos, weight=w)
        if w == 0:
            kept[i] = data[i]
    if any(b is not None for b in bases):
        back = [linalg.identity(field, n) if b is None else b for b, n in zip(bases, dims)]
        _, kept = dense_act(field, back, dims, kept)
    return kept


def assert_matches(field, t, dims, data):
    """The sparse tensor ``t`` holds exactly the dense slots ``data``."""
    assert t.dims == tuple(dims)
    assert list(t.support()) == dense_support(dims, data, lambda v: not field.is_zero(v))
    for pos, v in zip(positions(dims), data):
        assert t.get(pos) == v


def assert_series_matches(st, dims, data):
    assert st.dims == tuple(dims)
    assert list(st.support()) == dense_support(dims, data, lambda e: bool(e.coeffs))
    for pos, e in zip(positions(dims), data):
        assert st.get(pos) == e


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def random_entries(field, dims, rng):
    """Random entries, some explicitly zero, in shuffled insertion order."""
    density = rng.choice([0.0, 0.2, 0.6, 1.0])
    entries = []
    for pos in positions(dims):
        roll = rng.random()
        if roll < density:
            entries.append((pos, field.random_scalar(rng)))
        elif roll < density + 0.1:
            entries.append((pos, field.zero()))
    rng.shuffle(entries)
    return dict(entries)


def random_matrix(field, rows, cols, rng):
    return [
        [field.zero() if rng.random() < 0.4 else field.random_scalar(rng) for _ in range(cols)]
        for _ in range(rows)
    ]


def random_invertible(field, n, rng):
    while True:
        m = random_matrix(field, n, n, rng)
        if linalg.is_invertible(field, m):
            return m


def random_subgroup(field, dims, rng, with_bases):
    factors = []
    for n in dims:
        weights = tuple(rng.randint(-2, 2) for _ in range(n))
        basis = None
        if with_bases and rng.random() < 0.7:
            basis = tuple(tuple(r) for r in random_invertible(field, n, rng))
        factors.append(SubgroupFactor(weights=weights, basis=basis))
    return OneParamSubgroup(field, factors)


def random_series(field, rng):
    if rng.random() < 0.3:
        return LaurentSeries.zero(field)
    val = rng.randint(-2, 2)
    coeffs = [field.random_scalar(rng) for _ in range(rng.randint(1, 3))]
    return LaurentSeries(field, val, coeffs)


def random_series_matrix(field, rows, cols, rng):
    entries = [[random_series(field, rng) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        # one truncated entry cuts the whole matrix, zeros included
        entries[0][0] = entries[0][0].truncate(rng.randint(-1, 3))
    return SeriesMatrix(field, entries)


def cases(seed, rounds):
    """Every field with every shape, ``rounds`` times, sharing one seeded stream."""
    rng = random.Random(seed)
    for _ in range(rounds):
        for field, dims in itertools.product(FIELDS, SHAPES):
            yield field, dims, rng


# ---------------------------------------------------------------------------
# storage and arithmetic
# ---------------------------------------------------------------------------

def test_storage_matches_dense():
    for field, dims, rng in cases(1, 2):
        entries = random_entries(field, dims, rng)
        t = Tensor.from_entries(field, dims, entries)
        data = dense(dims, entries, field.zero())
        assert_matches(field, t, dims, data)
        assert t.is_zero() == all(field.is_zero(v) for v in data)


def test_equality_and_hash_match_dense():
    for field, dims, rng in cases(2, 2):
        entries = random_entries(field, dims, rng)
        t = Tensor.from_entries(field, dims, entries)
        shuffled = list(entries.items())
        rng.shuffle(shuffled)
        same = Tensor.from_entries(field, dims, dict(shuffled))
        assert t == same and hash(t) == hash(same)
        other_entries = dict(entries)
        pos = rng.choice(positions(dims))
        other_entries[pos] = field.random_scalar(rng)
        other = Tensor.from_entries(field, dims, other_entries)
        zero = field.zero()
        assert (t == other) == (dense(dims, entries, zero) == dense(dims, other_entries, zero))
        if t == other:
            assert hash(t) == hash(other)


def test_add_sub_scale_match_dense():
    for field, dims, rng in cases(3, 2):
        a_entries, b_entries = random_entries(field, dims, rng), random_entries(field, dims, rng)
        # overlap b with -a on some positions so that sums cancel
        for pos in list(a_entries)[:2]:
            b_entries[pos] = field.neg(a_entries[pos])
        a, b = Tensor.from_entries(field, dims, a_entries), Tensor.from_entries(field, dims, b_entries)
        da, db = dense(dims, a_entries, field.zero()), dense(dims, b_entries, field.zero())
        assert_matches(field, a + b, dims, [field.add(x, y) for x, y in zip(da, db)])
        assert_matches(field, a - b, dims, [field.sub(x, y) for x, y in zip(da, db)])
        c = rng.choice([field.zero(), field.one(), field.random_scalar(rng)])
        assert_matches(field, a.scale(c), dims, [field.mul(c, x) for x in da])


def test_position_checks():
    t = Tensor.from_entries(QQ, (2, 3), {(1, 2): QQ.one()})
    for bad in [(1,), (1, 2, 1), (0, 1), (3, 1), (1, 4)]:
        with pytest.raises(ShapeError):
            t.get(bad)
        with pytest.raises(ShapeError):
            Tensor.from_entries(QQ, (2, 3), {bad: QQ.zero()})
    with pytest.raises(ShapeError):
        SeriesTensor(QQ, (2, 3), {(3, 3): LaurentSeries.one(QQ)})


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

def test_act_rectangular_matches_dense():
    for field, dims, rng in cases(4, 2):
        entries = random_entries(field, dims, rng)
        t = Tensor.from_entries(field, dims, entries)
        mats = [random_matrix(field, rng.randint(1, 4), n, rng) for n in dims]
        new_dims, data = dense_act(field, mats, dims, dense(dims, entries, field.zero()))
        assert_matches(field, act(mats, t), new_dims, data)


def test_act_series_matches_dense():
    for field, dims, rng in cases(5, 3):
        entries = random_entries(field, dims, rng)
        t = Tensor.from_entries(field, dims, entries)
        mats = [random_series_matrix(field, rng.randint(1, 3), n, rng) for n in dims]
        new_dims, data = dense_act_series(field, mats, dims, dense(dims, entries, field.zero()))
        st = act_series(mats, t)
        assert_series_matches(st, new_dims, data)
        assert st.negative_valuation_entry() == dense_negative_valuation_entry(new_dims, data)


# ---------------------------------------------------------------------------
# limits and weight decompositions
# ---------------------------------------------------------------------------

def _limit_or_error(fn):
    try:
        return fn()
    except NoLimitError as exc:
        return ("no limit", exc.position, exc.weight)


def test_limits_match_dense():
    for field, dims, rng in cases(6, 2):
        with_bases = rng.random() < 0.5
        entries = random_entries(field, dims, rng)
        t = Tensor.from_entries(field, dims, entries)
        lam = random_subgroup(field, dims, rng, with_bases)
        data = dense(dims, entries, field.zero())
        for sub, limit in ((lam, limit_at_zero), (lam.inverted(), limit_at_infinity)):
            expected = _limit_or_error(lambda: dense_limit_at_zero(field, sub, dims, data))
            got = _limit_or_error(lambda: limit(lam, t))
            if isinstance(expected, tuple):
                assert got == expected
            else:
                assert_matches(field, got, dims, expected)


def test_weight_decompose_reconstructs():
    for field, dims, rng in cases(7, 2):
        entries = random_entries(field, dims, rng)
        t = Tensor.from_entries(field, dims, entries)
        lam = random_subgroup(field, dims, rng, with_bases=rng.random() < 0.5)
        dec = weight_decompose(t, lam)
        assert dec.reconstruct() == t
        eigen = lam.to_eigen(t)
        for w in dec.weights():
            assert list(dec.component(w).support()) == [
                (pos, v) for pos, v in eigen.support() if lam.weight_of(pos) == w
            ]


# ---------------------------------------------------------------------------
# truncated series tensors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("trunc", [None, -2, 0, 1, 3])
def test_truncated_partly_zero_series_tensor(trunc):
    rng = random.Random(8 if trunc is None else 100 + trunc)
    for field in (QQ, PrimeField(7)):
        for dims in [(2, 3), (3, 3, 3), (2, 2, 2, 2), (3, 0)]:
            entries = {}
            for pos in positions(dims):
                roll = rng.random()
                if roll < 0.3:
                    entries[pos] = random_series(field, rng)
                elif roll < 0.4:
                    entries[pos] = LaurentSeries.zero_mod(field, rng.randint(0, 4))
            if trunc is not None and entries:
                pos = rng.choice(sorted(entries))
                entries[pos] = entries[pos].truncate(trunc)
            data = dense_uniform_trunc(dense(dims, entries, LaurentSeries.zero(field)))
            st = SeriesTensor(field, dims, entries)
            assert_series_matches(st, dims, data)
            assert st.negative_valuation_entry() == dense_negative_valuation_entry(dims, data)
            try:
                expected = [e.coefficient(0) for e in data]
            except PrecisionError as exc:
                with pytest.raises(PrecisionError, match=re.escape(str(exc))):
                    st.constant_terms()
            else:
                assert_matches(field, st.constant_terms(), dims, expected)
            other_entries = dict(entries)
            if other_entries:
                pos = rng.choice(sorted(other_entries))
                other_entries[pos] = other_entries[pos] + LaurentSeries.monomial(field, field.one(), 1)
            other = SeriesTensor(field, dims, other_entries)
            other_data = dense_uniform_trunc(dense(dims, other_entries, LaurentSeries.zero(field)))
            for n in (0, 1, 2, 5):
                try:
                    expected = all(a.equals_mod(b, n) for a, b in zip(data, other_data))
                except PrecisionError:
                    with pytest.raises(PrecisionError):
                        st.equals_mod(other, n)
                else:
                    assert st.equals_mod(other, n) == expected


# ---------------------------------------------------------------------------
# size
# ---------------------------------------------------------------------------

def test_planted_tensor_at_n_1024():
    # 1024^3 slots would be 10^9 dense entries; the sparse tensors hold ~2k
    field = PrimeField(1000003)
    t_tilde, s_tensor, _ = build_planted_tensor(field, 1024, 61)
    subgroup = pyramid_weight_profile(1024, 61).subgroup(field)
    assert limit_at_zero(subgroup, t_tilde) == s_tensor
    assert recognize_unit_tensor(s_tensor) == 61
