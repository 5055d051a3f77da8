"""Exact scalar fields: the rationals and prime fields GF(p) with p odd.

Scalars are plain values (``fractions.Fraction`` for the rationals, ``int``
residues in ``[0, p)`` for GF(p)); all arithmetic goes through a field object
so mixed-field data is detectable. Floating point is never used: every rank
computation downstream depends on exact zero tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

# `|`, not typing.Union: typing memoizes Union[...] for the life of the
# process, which would keep these classes alive after the module is dropped
Scalar = Fraction | int


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers, characteristic 0."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b

    def parse(self, text: str | int) -> Fraction:
        # Fraction("2/3"), Fraction("-7") and plain ints are all exact.
        if isinstance(text, bool) or not isinstance(text, (str, int)):
            raise ValueError(f"expected exact rational literal, got {text!r}")
        return Fraction(text)

    def format(self, a: Fraction) -> str:
        return str(a)

    def random(self, rng: Random, span: int = 3) -> Fraction:
        return Fraction(rng.randint(-span, span), rng.randint(1, span))

    def __repr__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for an odd prime p; elements are int residues in [0, p)."""

    p: int

    def __post_init__(self) -> None:
        if not _is_odd_prime(self.p):
            raise ValueError(f"field order must be an odd prime >= 3, got {self.p}")

    characteristic = property(lambda self: self.p)
    zero = 0
    one = 1

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
            return self.div(int(num) % self.p, int(den) % self.p)
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
