"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Scalars are kept in canonical primitive form -- :class:`fractions.Fraction`
for the rationals (always lowest terms, positive denominator) and ``int``
residues in ``[0, p)`` for a prime field -- and all arithmetic goes through
a :class:`FieldContext`.  One context is shared by every scalar of a
computation; combining values from different contexts raises
:class:`~borderlab.errors.FieldMismatchError`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import FieldMismatchError

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
    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def convolve(self, xs, ys, length: int) -> list:
        """The first ``length`` coefficients of the product of two coefficient vectors.

        ``xs`` and ``ys`` hold the coefficients of ``t^0, t^1, ...`` of two
        polynomials; the result is in canonical form, zero-padded when
        ``length`` exceeds the product's length.  A length-1 operand is
        multiplied into the other directly, since packing would cost more
        than the products; longer ones go to :meth:`_kronecker`.
        """
        xs, ys = xs[:length], ys[:length]
        if not xs or not ys:
            return [self.zero()] * max(length, 0)
        if len(ys) == 1:
            xs, ys = ys, xs
        if len(xs) == 1:
            c = xs[0]
            return [self.mul(c, y) for y in ys] + [self.zero()] * (length - len(ys))
        return self._kronecker(xs, ys, length)

    def _kronecker(self, xs, ys, length: int) -> list:
        """:meth:`convolve` of two nonempty vectors cut to ``length``, by :func:`_int_convolve`."""
        raise NotImplementedError

    # -- constants and conversions ---------------------------------------
    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, k: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero()

    # -- string codec (JSON scalar encoding) ------------------------------
    def parse(self, s: str):
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
            return PrimeField(int(obj["p"]))
        raise ValueError(f"unknown field kind {kind!r}")


class Rationals(FieldContext):
    """The field of arbitrary-precision rationals."""

    kind = "Q"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def _kronecker(self, xs, ys, length):
        # integer numerators over each operand's common denominator, one
        # signed Kronecker product, one Fraction per output coefficient
        dx = math.lcm(*(x.denominator for x in xs))
        dy = math.lcm(*(y.denominator for y in ys))
        nx = [x.numerator * (dx // x.denominator) for x in xs]
        ny = [y.numerator * (dy // y.denominator) for y in ys]
        bound = (
            max(map(abs, nx)).bit_length()
            + max(map(abs, ny)).bit_length()
            + min(len(nx), len(ny)).bit_length()
        )
        d = dx * dy
        return [Fraction(c, d) for c in _int_convolve(nx, ny, length, bound, True)]

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def is_zero(self, a):
        return a == 0

    def parse(self, s):
        return Fraction(s)

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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def _kronecker(self, xs, ys, length):
        # residues are nonnegative, so the slots need no sign
        p = self.p
        bound = 2 * (p - 1).bit_length() + min(len(xs), len(ys)).bit_length()
        return [c % p for c in _int_convolve(xs, ys, length, bound, False)]

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k):
        return k % self.p

    def is_zero(self, a):
        return a == 0

    def parse(self, s):
        if "/" in s:
            raise ValueError(f"prime-field scalar must be an integer string, got {s!r}")
        return int(s) % self.p

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
