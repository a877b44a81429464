import random
from fractions import Fraction

import pytest

from borderlab import FieldMismatchError, PrimeField, QQ, SchemaError, is_prime, random_prime

P62 = next(p for p in range(2**62 - 57, 2**62) if is_prime(p))


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 1000003}
    for n in range(-3, 100):
        assert is_prime(n) == (n in primes or n in {17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89})
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)


def test_random_prime_bits():
    rng = random.Random(5)
    for _ in range(5):
        p = random_prime(62, rng)
        assert p.bit_length() == 62
        assert is_prime(p)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(91)


@pytest.mark.parametrize("field", [QQ, PrimeField(P62), PrimeField(2)], ids=repr)
def test_muladd_matches_plain_arithmetic(field):
    # x ± Σ a·b by Fraction + and -, or on residues with one % p at the end
    rng = random.Random(f"scalar-muladd:{field!r}")

    def scalar():
        if field == QQ:
            num = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 90))
            return Fraction(num, rng.getrandbits(rng.randint(1, 60)) | 1)
        return rng.randrange(field.p)

    for trial in range(400):
        x = scalar()
        terms = [(scalar(), scalar()) for _ in range((0, 1, 2, rng.randint(3, 24))[trial % 4])]
        subtract = trial % 8 >= 4  # every term count both ways
        want = x
        for a, b in terms:
            want = want - a * b if subtract else want + a * b
        if field != QQ:
            want %= field.p
        got = field.muladd(x, terms, subtract)
        assert got == want and type(got) is type(want)
        assert field == QQ or 0 <= got < field.p


def test_rational_canonical_format():
    assert QQ.format(Fraction(4, 8)) == "1/2"
    assert QQ.format(Fraction(-3, 1)) == "-3"
    assert QQ.parse("7/21") == Fraction(1, 3)
    assert QQ.parse("-5") == Fraction(-5)


def test_prime_field_arithmetic():
    f = PrimeField(13)
    assert f.muladd(7, ((9, 1),)) == 3
    assert f.muladd(7, ((3, 3),), True) == 11
    assert f.mul(7, 2) == 1
    assert f.inv(7) == 2
    assert f.parse("27") == 1
    with pytest.raises(SchemaError):
        f.parse("1/2")


@pytest.mark.parametrize("bad", [" 1_0 ", " 1", "1 ", "\u0663", "\uff13", "1/2", "", "1,2", "+-1", "1\n"])
def test_prime_field_reads_signed_digits_only(bad):
    f = PrimeField(7)
    assert f.parse("+3") == 3 and f.parse("-10") == 4 and f.parse("007") == 0
    assert f.parse_vector(["+3", "-10", "007"]) == ([3, 4, 0], 1)
    assert f.parse_vector([]) == ([], 1)
    with pytest.raises(SchemaError):
        f.parse(bad)
    # the vector check matches the whole list at once, wherever the bad string sits
    for vector in ([bad], ["1", bad], [bad, "2"], ["1", bad, "2"]):
        with pytest.raises(SchemaError):
            f.parse_vector(vector)


def test_context_mismatch():
    with pytest.raises(FieldMismatchError):
        QQ.ensure_same(PrimeField(13))
    assert PrimeField(13) == PrimeField(13)
    assert PrimeField(13) != PrimeField(17)


def test_json_round_trip():
    from borderlab.fields import FieldContext

    for field in (QQ, PrimeField(101)):
        assert FieldContext.from_obj(field.to_obj()) == field
