"""Exact scalar fields: the rationals and prime fields GF(p) with p odd.

Scalars are plain values: an ``int`` or a ``fractions.Fraction`` for the
rationals (``parse`` and ``div`` give an ``int`` whenever the value is
integral), ``int`` residues in ``[0, p)`` for GF(p). All arithmetic goes
through a field object so mixed-field data is detectable. Floating point is
never used: every rank computation downstream depends on exact zero tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

# `|`, not typing.Union: typing memoizes Union[...] for the life of the
# process, which would keep these classes alive after the module is dropped
Scalar = Fraction | int


# Strong probable prime tests to these bases decide primality exactly for
# every n < 3.18e23 (Sorenson and Webster), far past the order cap 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_ORDER = 2 ** 64


def _is_odd_prime(p: int) -> bool:
    """Miller-Rabin on the fixed bases _WITNESSES: exact, not probabilistic, for p < 3.18e23."""
    if p < 3 or p % 2 == 0:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # p - 1 = d 2^s with d odd: a prime p has a^d = 1 or a^(d 2^r) = -1 for some r < s
    return p in _WITNESSES or all(
        pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s))
        for a in _WITNESSES)


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers, characteristic 0.

    ``parse`` and ``div`` return an ``int`` whenever the value is integral:
    ``int`` arithmetic is dozens of times cheaper than ``Fraction``. An ``int``
    and a ``Fraction`` of equal value compare, hash and print alike, so no
    subspace or report depends on which of the two a scalar is.
    """

    characteristic = 0
    zero = 0
    one = 1

    def is_element(self, a: object) -> bool:
        return isinstance(a, Fraction) or (isinstance(a, int) and not isinstance(a, bool))

    def from_int(self, n: int) -> int:
        return n

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b

    def neg(self, a: Scalar) -> Scalar:
        return -a

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def parse(self, text: str | int) -> Scalar:
        # Fraction("2/3"), Fraction("-7") and plain ints are all exact.
        if isinstance(text, bool) or not isinstance(text, (str, int)):
            raise ValueError(f"expected exact rational literal, got {text!r}")
        try:
            q = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rational literal {text!r}") from None
        return q.numerator if q.denominator == 1 else q

    def format(self, a: Scalar) -> str:
        return str(a)

    def random(self, rng: Random, span: int = 3) -> Fraction:
        return Fraction(rng.randint(-span, span), rng.randint(1, span))

    def __repr__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for an odd prime p < 2^64; elements are int residues in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        if self.p >= MAX_ORDER:
            raise ValueError(f"field order must be below 2^64, got {self.p}")
        if not _is_odd_prime(self.p):
            raise ValueError(f"field order must be an odd prime >= 3, got {self.p}")

    characteristic = property(lambda self: self.p)
    zero = 0
    one = 1

    def is_element(self, a: object) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def div(self, a: int, b: int) -> int:
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return (a * pow(b, -1, self.p)) % self.p

    def parse(self, text: str | int) -> int:
        if isinstance(text, bool):
            raise ValueError(f"expected exact GF({self.p}) literal, got {text!r}")
        if isinstance(text, int):
            return text % self.p
        if not isinstance(text, str):
            raise ValueError(f"expected exact GF({self.p}) literal, got {text!r}")
        if "/" in text:
            num, _, den = text.partition("/")
            d = int(den) % self.p
            if d == 0:
                raise ValueError(f"denominator of {text!r} is zero in GF({self.p})")
            return self.div(int(num) % self.p, d)
        return int(text) % self.p

    def format(self, a: int) -> str:
        return str(a)

    def random(self, rng: Random, span: int = 3) -> int:
        return rng.randrange(self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"


Field = RationalField | PrimeField

QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_from_descriptor(desc: dict) -> Field:
    """Build a field from {"type": "Q"} or {"type": "Fp", "p": <odd prime>}."""
    if not isinstance(desc, dict) or "type" not in desc:
        raise ValueError(f"bad field descriptor: {desc!r}")
    if desc["type"] == "Q":
        return QQ
    if desc["type"] == "Fp":
        if "p" not in desc or isinstance(desc["p"], bool) or not isinstance(desc["p"], int):
            raise ValueError(f"GF(p) descriptor needs an integer p: {desc!r}")
        return PrimeField(desc["p"])
    raise ValueError(f"unknown field type {desc['type']!r}")


def field_descriptor(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"type": "Fp", "p": field.p}
    return {"type": "Q"}
