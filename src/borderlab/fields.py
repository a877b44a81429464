"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are kept in canonical primitive form -- :class:`fractions.Fraction`
for the rationals (always lowest terms, positive denominator) and ``int``
residues in ``[0, p)`` for a prime field -- and all arithmetic goes through
a :class:`FieldContext`, whose ``muladd`` (``x ± Σ a·b``, over F_p reduced
once) is the only way scalars are summed.  One context is shared by every
scalar of a computation; combining values from different contexts raises
:class:`~borderlab.errors.FieldMismatchError`.

A context also owns the coefficient vectors that Laurent series store: a
vector is a pair ``(nums, den)`` of integers standing for the scalars
``num / den``.  Over the rationals ``den`` is positive and
``gcd(den, *nums) == 1``, as FLINT's ``fmpq_poly`` keeps it; over F_p the
numerators are residues in ``[0, p)`` and ``den`` is 1.  The ``vec_*``
kernels take vectors in that form and return one in that form.

:meth:`FieldContext.vec_muladd` is the one arithmetic kernel for vectors:
it forms ``x ± Σ y·z`` from unreduced integer products over one common
denominator and reduces the sum once (delayed reduction, as FFLAS-FFPACK
does for dot products), ``% p`` over F_p and one gcd over ℚ.  Every term
is a product: a sum, difference or negation of series reaches it as a
product by the exact one, through :func:`borderlab.series.muladd`, as do
every scaling and product; only unit inversion has a kernel of its own.
"""

from __future__ import annotations

import functools
import math
import random
import re
from fractions import Fraction
from operator import add, mul, sub

from .errors import FieldMismatchError, SchemaError

# Deterministic Miller-Rabin witness set, valid for all n below this bound
# (Sorenson & Webster).  Covers every 64-bit integer with room to spare.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for ``n < 3.3e24`` (all 64-bit ints)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"primality test is deterministic only below {_MR_LIMIT}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """Random prime with exactly ``bits`` bits (top bit set)."""
    if bits < 2:
        raise ValueError("need at least 2 bits")
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(cand):
            return cand


#: a rational scalar as JSON writes it: an integer or a quotient of integers
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
#: a prime-field scalar, and the characters a vector of them may hold
_INTEGER = re.compile(r"[+-]?[0-9]+")
_SIGNS_AND_DIGITS = re.compile(r"[0-9+-]*")


def _rational_parts(s: str) -> tuple:
    """``(num, den)`` of a rational scalar string, ``den > 0`` (not reduced).

    Only ``[+-]digits`` and ``[+-]digits/digits`` are accepted; anything
    else, a zero denominator included, raises SchemaError.
    """
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise SchemaError(f"rational scalar must be [+-]digits or [+-]digits/digits, got {s[:40]!r}")
    num, den = m.groups()
    if den is None:
        return int(num), 1
    den = int(den)
    if not den:
        raise SchemaError(f"rational scalar {s[:40]!r} has a zero denominator")
    return int(num), den


def _int_convolve(xs, ys, length: int, bound: int, signed: bool) -> list:
    """The first ``length`` coefficients of the product of two integer vectors.

    Kronecker substitution: both vectors are packed into one integer each,
    with slots wide enough that no product coefficient overflows its slot,
    the two integers are multiplied once, and the low ``length`` slots are
    read back.  Every product coefficient must be below ``2^bound`` in
    absolute value; with ``signed`` the slots are read as balanced residues.
    """
    width = (bound + signed + 7) // 8  # bytes per slot
    # balanced slots: a slot stores v + half, which lies in [0, 256^width)
    # when |v| < half, so slots never carry into each other; spread(n) is
    # half in each of n slots and is taken off again as a whole
    half = 1 << (8 * width - 1) if signed else 0
    half_slot = half.to_bytes(width, "little")

    def spread(n):
        return int.from_bytes(half_slot * n, "little")

    def pack(vs):
        slots = b"".join([(v + half).to_bytes(width, "little") for v in vs])
        return int.from_bytes(slots, "little") - spread(len(vs))

    size = width * length
    product = pack(xs) * pack(ys) + spread(length)
    data = (product & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return [int.from_bytes(data[i : i + width], "little") - half for i in range(0, size, width)]


class FieldContext:
    """Common interface of the two coefficient fields.

    Concrete instances are :data:`QQ` (the rationals) and
    :class:`PrimeField` objects.
    """

    kind = "?"

    # -- arithmetic -------------------------------------------------------
    def muladd(self, x, terms, subtract: bool = False):
        """``x + Σ a·b`` over the pairs ``(a, b)`` of ``terms``, or ``x - Σ a·b``
        with ``subtract``: the one kernel that sums scalars."""
        for a, b in terms:
            x = x - a * b if subtract else x + a * b
        return x

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    # -- coefficient vectors ----------------------------------------------
    def vector(self, coeffs):
        """The vector ``(nums, den)`` of the canonical scalars ``coeffs``."""
        raise NotImplementedError

    def scalars(self, nums, den) -> tuple:
        """The canonical scalars of a vector."""
        raise NotImplementedError

    def scalar(self, num: int, den: int):
        """The canonical scalar ``num / den`` of one slot of a vector."""
        raise NotImplementedError

    def format_vector(self, nums, den) -> list:
        """:meth:`format` of every scalar of a vector."""
        raise NotImplementedError

    def vec_reduce(self, nums, den):
        """Canonical form of unreduced integer numerators over ``den``."""
        raise NotImplementedError

    def vec_muladd(self, head, terms, lo: int, length: int, subtract: bool):
        """Exponents ``lo .. lo + length - 1`` of ``x ± Σ y·z`` as one canonical vector.

        ``head`` is ``(v, xs, dx)`` or None for ``x = 0``; each term is the
        product ``(v, ys, dy, zs, dz)``; a vector starts at exponent
        ``v >= lo``.  The products are added, or subtracted with
        ``subtract``, over the lcm of their denominators as unreduced
        numerators (:meth:`_raw_product`), and the sum is reduced once.
        """
        den = 1 if head is None else head[2]
        for _, _, dy, _, dz in terms:
            d = dy * dz
            if den % d:
                den = math.lcm(den, d)
        out = [0] * length
        if head is not None and head[0] - lo < length:
            v, xs, dx = head
            off = v - lo
            xs = xs[: length - off]
            out[off : off + len(xs)] = xs if dx == den else [x * (den // dx) for x in xs]
        step = sub if subtract else add
        for v, ys, dy, zs, dz in terms:
            off = v - lo
            n = length - off
            if n <= 0:
                continue
            ys = self._raw_product(ys, zs, n, den // (dy * dz))
            k = len(ys)
            out[off : off + k] = map(step, out[off : off + k], ys)
        return self.vec_reduce(out, den)

    def _raw_product(self, xs, ys, length: int, scale: int = 1) -> list:
        """The first ``length`` unreduced numerators of ``scale · xs · ys``.

        The scale goes into the shorter factor.  A length-1 factor is
        multiplied in directly, since packing would cost more; longer ones
        go to :func:`_int_convolve`.
        """
        xs, ys = xs[:length], ys[:length]
        if len(ys) < len(xs):
            xs, ys = ys, xs
        if scale != 1:
            xs = [x * scale for x in xs]
        if len(xs) == 1:
            c = xs[0]
            return [c * y for y in ys]
        return _int_convolve(xs, ys, length, *self._product_bound(xs, ys))

    def _product_bound(self, xs, ys):
        """``(bound, signed)`` for :func:`_int_convolve`, ``len(xs) <= len(ys)``."""
        raise NotImplementedError

    def vec_inverse(self, nums, den, m: int):
        """The first ``m`` slots of the inverse of a unit vector (``nums[0] != 0``)."""
        raise NotImplementedError

    # -- constants and conversions ---------------------------------------
    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, k: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == 0

    # -- string codec (JSON scalar encoding) ------------------------------
    def parse(self, s: str):
        raise NotImplementedError

    def parse_vector(self, strings):
        """The vector ``(nums, den)`` of a list of scalar strings."""
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    # -- misc --------------------------------------------------------------
    def random_scalar(self, rng: random.Random, nonzero: bool = False):
        raise NotImplementedError

    def ensure_same(self, other: "FieldContext") -> None:
        if self != other:
            raise FieldMismatchError(f"mixed field contexts: {self} vs {other}")

    def to_obj(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_obj(obj: dict) -> "FieldContext":
        kind = obj.get("kind")
        if kind == "Q":
            return QQ
        if kind == "Fp":
            return _prime_field(int(obj["p"]))
        raise ValueError(f"unknown field kind {kind!r}")


class Rationals(FieldContext):
    """The field of arbitrary-precision rationals."""

    kind = "Q"

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def vector(self, coeffs):
        # lowest-terms scalars over the lcm of their denominators have no
        # common factor left with it
        coeffs = list(coeffs)
        dens = [c.denominator for c in coeffs]
        den = math.lcm(*dens)
        if den == 1:
            return [c.numerator for c in coeffs], 1
        return [c.numerator * (den // d) for c, d in zip(coeffs, dens)], den

    def scalars(self, nums, den):
        if den == 1:
            return tuple(map(Fraction, nums))
        return tuple([Fraction(n, den) for n in nums])

    def scalar(self, num, den):
        return Fraction(num, den)

    def format_vector(self, nums, den):
        if den == 1:
            return [str(n) for n in nums]
        out = []
        for n in nums:
            g = math.gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return out

    def vec_reduce(self, nums, den):
        g = math.gcd(den, *nums) if den != 1 else 1
        if g == 1:
            return nums, den
        return [n // g for n in nums], den // g

    def _product_bound(self, xs, ys):
        # one signed Kronecker product of the numerators
        return (
            max(map(abs, xs)).bit_length() + max(map(abs, ys)).bit_length() + len(xs).bit_length(),
            True,
        )

    def vec_inverse(self, nums, den, m):
        # with A = sum a_i t^i the unit is A / den, so its inverse is
        # den / A.  The coefficients y_k of 1/A have denominator a0^(k+1):
        # y_k = z_k / a0^(k+1) with z_0 = 1 and
        # z_k = -sum_{i>=1} a_i a0^(i-1) z_(k-i), a recurrence over the
        # integers; the result is put over a0^m and reduced once
        a0 = nums[0]
        b, power = [], 1
        for a in nums[1:m]:
            b.append(a * power)
            power *= a0
        z, stop = [1], -len(b) - 1
        for _ in range(1, m):
            z.append(-sum(map(mul, b, z[:stop:-1])))
        out, power = [0] * m, den
        for k in range(m - 1, -1, -1):
            out[k] = z[k] * power
            power *= a0
        d = power // den
        if d < 0:
            out, d = [-n for n in out], -d
        return self.vec_reduce(out, d)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def parse(self, s):
        num, den = _rational_parts(s)
        return Fraction(num, den)

    def parse_vector(self, strings):
        # the numerators over the lcm of the written denominators, reduced
        # once: no Fraction per coefficient
        parts = [_rational_parts(s) for s in strings]
        den = math.lcm(*[d for _, d in parts])
        if den == 1:
            return [n for n, _ in parts], 1
        return self.vec_reduce([n * (den // d) for n, d in parts], den)

    def format(self, a):
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def random_scalar(self, rng, nonzero=False):
        while True:
            v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if not nonzero or v != 0:
                return v

    def to_obj(self):
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField(FieldContext):
    """The prime field F_p; ``p`` is validated at construction."""

    kind = "Fp"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def muladd(self, x, terms, subtract=False):
        # the products are summed unreduced and the sum reduced once
        return super().muladd(x, terms, subtract) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def vector(self, coeffs):
        p = self.p
        return [c % p for c in coeffs], 1

    def scalars(self, nums, den):
        return tuple(nums)

    def scalar(self, num, den):
        return num

    def format_vector(self, nums, den):
        return [str(n) for n in nums]

    def _product_bound(self, xs, ys):
        # residues are nonnegative, so the slots need no sign
        return 2 * (self.p - 1).bit_length() + len(xs).bit_length(), False

    def vec_reduce(self, nums, den):
        p = self.p
        return [n % p for n in nums], 1

    def vec_inverse(self, nums, den, m):
        # u * x = 1 solved term by term, one reduction per term
        p = self.p
        lead_inv = pow(nums[0], -1, p)
        b = nums[1:m]
        out, stop = [lead_inv], -len(b) - 1
        for _ in range(1, m):
            out.append(-lead_inv * sum(map(mul, b, out[:stop:-1])) % p)
        return out, 1

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k):
        return k % self.p

    def parse(self, s):
        if _INTEGER.fullmatch(s) is None:
            raise SchemaError(f"prime-field scalar must be [+-]digits, got {s[:40]!r}")
        return int(s) % self.p

    def parse_vector(self, strings):
        # one match checks every character of the vector; on signs and
        # digits alone int() accepts exactly [+-]digits and raises otherwise
        if _SIGNS_AND_DIGITS.fullmatch("".join(strings)):
            p = self.p
            try:
                return [int(s) % p for s in strings], 1
            except ValueError:
                pass
        # one string at a time, to name the first one outside the grammar
        return [self.parse(s) for s in strings], 1

    def format(self, a):
        return str(a % self.p)

    def random_scalar(self, rng, nonzero=False):
        lo = 1 if nonzero else 0
        return rng.randint(lo, self.p - 1)

    def to_obj(self):
        return {"kind": "Fp", "p": str(self.p)}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


#: Shared context for the rationals.
QQ = Rationals()


@functools.cache
def _prime_field(p: int) -> PrimeField:
    """The one ``PrimeField(p)`` that every document over ``p`` decodes to, so
    that its values meet one field object and no field comparison runs; a
    number that is not prime raises, and is not remembered."""
    return PrimeField(p)
