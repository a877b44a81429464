import math
import random
from fractions import Fraction

import pytest

from borderlab import (
    PrecisionError,
    PrimeField,
    QQ,
    LaurentPolynomials,
    LaurentSeries,
    SeriesMatrix,
    SingularError,
)
from borderlab.fields import Rationals, is_prime
from borderlab.series import muladd
from borderlab.instances import random_laurent_polynomial, random_series_unit_matrix

from conftest import difference, leibniz_determinant, reduced, schoolbook_mul, series, tpow, with_terms, zero_mod


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
    b = LaurentSeries(fp, 0, [fp.one()])
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
# the product and sum kernels against a schoolbook oracle
# ---------------------------------------------------------------------------

def schoolbook_add(a, b):
    """``a + b`` exponent by exponent (test oracle)."""
    field = a.field
    truncs = [s.trunc for s in (a, b) if s.trunc is not None]
    trunc = min(truncs) if truncs else None
    terms = {}
    for s in (a, b):
        for k, c in enumerate(s.coeffs, s.val):
            if trunc is None or k < trunc:
                terms[k] = terms.get(k, 0) + c
    return with_terms(field, terms, trunc)


def canonical(field, c):
    if field == QQ:
        return type(c) is Fraction
    return type(c) is int and 0 <= c < field.p


P62 = next(p for p in range(2**62 - 57, 2**62) if is_prime(p))
KERNEL_FIELDS = [QQ, PrimeField(P62), PrimeField(2), PrimeField(3)]


def kernel_scalar(field, rng, style):
    """A coefficient: small, of large height, or of the largest size the field has."""
    if field == QQ:
        sign = rng.choice((-1, 1))
        if style == "small":
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if style == "extreme":  # one sign and one denominator: numerators add up
            return Fraction(2**150 - 1, 3)
        return Fraction(sign * rng.getrandbits(rng.randint(1, 200)), rng.getrandbits(rng.randint(1, 120)) | 1)
    if style == "extreme":
        return field.p - 1
    return rng.randrange(field.p)


def kernel_operand(field, rng):
    """An exact or truncated series with a negative, zero or positive valuation."""
    style = rng.choice(("small", "large", "extreme"))
    length = rng.choice((0, 1, 1, 2, rng.randint(3, 8), rng.randint(9, 40)))
    val = rng.randint(-6, 6)
    coeffs = [kernel_scalar(field, rng, style) for _ in range(length)]
    if style == "extreme" and rng.random() < 0.5:
        coeffs = [reduced(field, -c) for c in coeffs]
    elif length > 2 and rng.random() < 0.3:
        coeffs[rng.randrange(1, length - 1)] = field.zero()
    trunc = None
    if rng.random() < 0.5:
        # at, inside or beyond the stored window; a cut inside drops terms
        trunc = val + rng.randint(-2, length + 4)
    return LaurentSeries(field, val, coeffs, trunc)


def one_term_operand(field, rng):
    """A single stored term, exact or cut at or above the next exponent."""
    val = rng.randint(-6, 6)
    c = kernel_scalar(field, rng, rng.choice(("small", "large", "extreme")))
    return LaurentSeries(field, val, [c], rng.choice((None, val + 1, val + rng.randint(2, 9))))


def cut_operand(field, rng):
    """An exact series and the length of its head.

    Over Q the head's denominators divide 4 and the tail's are odd, so once
    a cut drops the tail the head's numerators share the tail's factors
    with the common denominator and must be renormalised.
    """
    head = rng.randint(1, 6)
    if field == QQ:
        coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 4))) for _ in range(head)]
        coeffs += [Fraction(rng.choice((-1, 1)), rng.choice((3, 5, 9))) for _ in range(rng.randint(1, 4))]
    else:
        coeffs = [kernel_scalar(field, rng, "large") for _ in range(head + rng.randint(1, 4))]
        coeffs[0] = coeffs[0] or field.one()
    return LaurentSeries(field, rng.randint(-3, 3), coeffs), head


def negated(a):
    field = a.field
    return LaurentSeries(field, a.val, [reduced(field, -c) for c in a.coeffs], a.trunc)


def scaled(a, c):
    return LaurentSeries(a.field, a.val, [a.field.mul(c, x) for x in a.coeffs], a.trunc)


def shifted(a, k):
    return LaurentSeries(a.field, a.val + k, a.coeffs, None if a.trunc is None else a.trunc + k)


def truncated(a, n):
    """``a.truncate(n)`` from the terms below ``t^n``, so that nothing is cut on construction."""
    if a.trunc is not None and a.trunc <= n:
        return a
    return with_terms(a.field, {k: c for k, c in enumerate(a.coeffs, a.val) if k < n}, n)


def assert_stored_canonically(s):
    """The stored vector: gcd(den, *nums) == 1 with den > 0, no zero ends."""
    nums, den = s.nums, s.den
    if not nums:
        assert (s.val, den) == (0, 1)
        return
    assert nums[0] and nums[-1] and den > 0
    if s.field == QQ:
        assert math.gcd(den, *nums) == 1
    else:
        assert den == 1 and all(0 <= n < s.field.p for n in nums)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_mul_and_add_match_the_schoolbook_oracle(field):
    rng = random.Random(f"kernel:{field!r}")
    ones = random.Random(f"one-term:{field!r}")
    more = random.Random(f"canonical:{field!r}")
    for _ in range(400):
        a, b = kernel_operand(field, rng), kernel_operand(field, rng)
        one = one_term_operand(field, ones)
        # a one-term operand, on either side, is multiplied in without packing
        cases = [(a * b, schoolbook_mul(a, b)), (a + b, schoolbook_add(a, b)),
                 (one * a, schoolbook_mul(one, a)), (a * one, schoolbook_mul(a, one))]
        c = kernel_scalar(field, more, more.choice(("small", "large"))) or field.one()
        k, n = more.randint(-4, 4), more.randint(-8, 12)
        cases += [(-a, negated(a)), (a - b, schoolbook_add(a, negated(b))),
                  (a * LaurentSeries(field, 0, [c]), scaled(a, c)),
                  (a.shift(k), shifted(a, k)), (a.truncate(n), truncated(a, n))]
        # cuts that drop a tail: by truncate, by a product known to fewer
        # terms, and by a sum with a series known to no term
        s, head = cut_operand(field, more)
        cut = s.val + head
        known = LaurentSeries(field, 0, [field.one()], head)
        nothing = LaurentSeries(field, 0, (), cut)
        cases += [(s.truncate(cut), truncated(s, cut)), (s * known, schoolbook_mul(s, known)),
                  (known * s, schoolbook_mul(known, s)), (s + nothing, schoolbook_add(s, nothing))]
        # the exact zeros: a product with the constant 0 even of a truncated
        # series, and with an exactly zero factor; and the negated unknown tail
        zero = LaurentSeries.zero(field)
        cases += [(a * LaurentSeries(field, 0, [field.zero()]), zero), (a * zero, schoolbook_mul(a, zero)),
                  (zero * a, schoolbook_mul(zero, a)), (-nothing, negated(nothing))]
        for got, want in cases:
            assert got == want
            assert hash(got) == hash(want)
            assert all(canonical(field, c) for c in got.coeffs)
            assert_stored_canonically(got)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_sums_that_cancel(field):
    rng = random.Random(f"cancel:{field!r}")
    for _ in range(200):
        a = kernel_operand(field, rng)
        c = kernel_operand(field, rng)
        # a + (-a) cancels everywhere; a + (c - a) cancels down to c
        for got, want in ((a + (-a), schoolbook_add(a, -a)), (a + (c - a), schoolbook_add(a, c - a))):
            assert got == want
        assert (a + (-a)).has_no_known_terms()
        assert (a + (-a)).trunc == a.trunc


def convolve(field, xs, ys, length):
    """The first ``length`` scalars of the product of two scalar lists, by a
    series product with the first factor known to ``t^length``, zero-padded."""
    product = LaurentSeries(field, 0, xs, length) * LaurentSeries(field, 0, ys)
    return [product.coefficient(k) for k in range(length)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_convolve_fills_every_slot_width(field):
    # m equal coefficients of the largest size and one sign: the middle
    # product coefficient m·x·y reaches the top of its slot for some m at
    # every slot width, and its sign is that of x·y
    if field == QQ:
        cases = [(Fraction(2**b - 1, 3), sign * Fraction(2**b - 1, 3), 41) for b in range(1, 41) for sign in (1, -1)]
    else:
        cases = [(field.p - 1, field.p - 1, 300 if field.p < 4 else 80)]
    for x, y, top in cases:
        for m in range(1, top):
            want = [
                field.mul(field.from_int(min(k, m - 1) - max(0, k - m + 1) + 1), field.mul(x, y))
                for k in range(2 * m - 1)
            ]
            assert convolve(field, [x] * m, [y] * m, 2 * m + 1) == want + [field.zero()] * 2


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_convolve_pads_and_cuts(field):
    rng = random.Random(f"convolve:{field!r}")
    for _ in range(200):
        xs = [kernel_scalar(field, rng, "large") for _ in range(rng.randint(0, 6))]
        ys = [kernel_scalar(field, rng, "extreme") for _ in range(rng.randint(0, 6))]
        length = rng.randint(0, 13)
        full = [0] * 13
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                full[i + j] += x * y
        assert convolve(field, xs, ys, length) == [reduced(field, v) for v in full[:length]]


# ---------------------------------------------------------------------------
# the fused multiply-accumulate kernel against the operators
# ---------------------------------------------------------------------------

def muladd_operand(field, rng):
    """A kernel operand, the exact zero, or a series known to no term."""
    kind = rng.random()
    if kind < 0.1:
        return LaurentSeries.zero(field)
    if kind < 0.25:
        return LaurentSeries(field, 0, (), rng.randint(-6, 14))
    return kernel_operand(field, rng)


def operator_muladd(x, terms, subtract):
    """``x ± Σ a·b`` one operator at a time (``b`` None: ``a`` alone)."""
    for a, b in terms:
        p = a if b is None else a * b
        x = x - p if subtract else x + p
    return x


def schoolbook_muladd(x, terms, subtract):
    """``x ± Σ a·b`` from the schoolbook oracles."""
    for a, b in terms:
        p = a if b is None else schoolbook_mul(a, b)
        x = schoolbook_add(x, negated(p) if subtract else p)
    return x


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_muladd_matches_the_operators(field):
    rng = random.Random(f"muladd:{field!r}")
    for trial in range(400):
        x = muladd_operand(field, rng)
        count = (0, 1, 2, 16)[trial % 4]
        terms = []
        for _ in range(count):
            a = muladd_operand(field, rng)
            terms.append((a, None if rng.random() < 0.2 else muladd_operand(field, rng)))
        subtract = rng.random() < 0.5
        got = muladd(x, terms, subtract)
        want = operator_muladd(x, terms, subtract)
        assert got == want and hash(got) == hash(want)
        assert_stored_canonically(got)
        if count <= 2:
            assert got == schoolbook_muladd(x, terms, subtract)
        # sums that cancel: x ∓ (the same terms) gives x back at the lower
        # truncation order, and a product taken off itself leaves nothing
        undone = muladd(got, terms, not subtract)
        assert undone == operator_muladd(got, terms, not subtract)
        assert undone == (x if undone.trunc is None else x.truncate(undone.trunc))
        if terms and terms[0][1] is not None:
            a, b = terms[0]
            gone = muladd(a * b, [(a, b)], True)
            assert gone.has_no_known_terms() and gone == (a * b) - (a * b)


@pytest.mark.parametrize("field", KERNEL_FIELDS[:3], ids=repr)
def test_the_tensor_ring_kernel_is_the_series_kernel(field):
    ring = LaurentPolynomials(field)
    assert ring.muladd is muladd
    rng = random.Random(f"ring-muladd:{field!r}")

    def polynomial():  # an entry of a series tensor: exact, possibly zero
        style = rng.choice(("small", "large", "extreme"))
        coeffs = [kernel_scalar(field, rng, style) for _ in range(rng.randint(0, 6))]
        return LaurentSeries(field, rng.randint(-4, 4), coeffs)

    for trial in range(160):
        x = polynomial()
        terms = [(polynomial(), polynomial()) for _ in range((0, 1, 2, rng.randint(3, 12))[trial % 4])]
        subtract = trial % 8 >= 4  # every term count both ways
        got = ring.muladd(x, terms, subtract)
        assert got == operator_muladd(x, terms, subtract) == schoolbook_muladd(x, terms, subtract)
        assert ring.is_zero(got) == (not got.nums)


def test_equal_fields_share_one_exact_zero():
    for a, b in ((QQ, Rationals()), (PrimeField(7), PrimeField(7)), (PrimeField(P62), PrimeField(P62))):
        zero = LaurentSeries.zero(a)
        assert zero is LaurentSeries.zero(b) is LaurentPolynomials(b).zero()
        assert zero.is_exactly_zero() and zero.field == b
    assert LaurentSeries.zero(PrimeField(7)) is not LaurentSeries.zero(PrimeField(11))
    # products, negations and products by a constant start from it and leave it the zero
    fp = PrimeField(7)
    a = LaurentSeries(fp, -1, [3, 0, 5])
    assert a * a == schoolbook_mul(a, a) and -a == negated(a) and a * LaurentSeries(fp, 0, [4]) == scaled(a, 4)
    assert LaurentSeries.zero(fp) == LaurentSeries(fp, 0, [])


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_muladd_returns_x_when_no_term_changes_it(field):
    rng = random.Random(f"muladd-x:{field!r}")
    zero = LaurentSeries.zero(field)
    for _ in range(50):
        x = kernel_operand(field, rng)
        y = kernel_operand(field, rng)
        # known to no term below t^1000, beyond every operand's order
        far = LaurentSeries(field, 0, (), 1000)
        assert muladd(x, []) is x
        assert muladd(x, [(zero, y), (y, zero)], True) is x
        if x.trunc is None:
            assert muladd(x, [(far, LaurentSeries(field, 0, [1]))]) == x.truncate(1000)
        else:
            assert muladd(x, [(far, LaurentSeries(field, 0, [1]))]) is x
            assert muladd(x, [(far, None)]) is x


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
        assert (s * inv - LaurentSeries(field, 0, [1])).is_zero_mod(16)


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
        assert zero_mod(difference(m @ inv, SeriesMatrix.identity(field, n)), 16)


def test_matrix_inverse_with_positive_valuation_pivot():
    # [[t, 1], [0, t]]^{-1} = [[t^-1, -t^-2], [0, t^-1]]
    m = SeriesMatrix(QQ, [[tpow(QQ, 1), series(QQ, {0: 1})],
                          [LaurentSeries.zero(QQ), tpow(QQ, 1)]])
    inv = m.inverse(8)
    expected = SeriesMatrix(QQ, [[tpow(QQ, -1), series(QQ, {-2: -1})],
                                 [LaurentSeries.zero(QQ), tpow(QQ, -1)]])
    assert zero_mod(difference(inv, expected), 4)
    assert zero_mod(difference(m @ inv, SeriesMatrix.identity(QQ, 2)), 4)


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
