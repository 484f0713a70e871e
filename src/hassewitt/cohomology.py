"""Concrete model of mod-2 Galois cohomology of Q in degrees <= 2.

Degree 1 classes are square classes of rationals, held as canonical
squarefree integers.  Degree 2 classes are 2-torsion Brauer classes; over Q
such a class is pinned down by the finite set of places where it is locally
nontrivial, and that support set always has even cardinality.  We therefore
store degree 2 classes as even place sets, with addition as symmetric
difference and cup products of square classes computed place by place
through Hilbert symbols.

Conventions: a place is either a finite prime or the real place ``inf``;
the Hilbert symbol (a, b)_v is +1 exactly when z**2 = a x**2 + b y**2 has a
nontrivial solution over the completion at v.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from . import arith
from .errors import DomainError, InternalError

Rat = Union[int, Fraction]


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: Finite(p) for a prime p, or the infinite (real) place.

    Ordering sorts finite places by the prime and puts ``inf`` last, which
    is also the serialization order.
    """

    _key: tuple[int, int]

    def __post_init__(self):
        kind, p = self._key
        if kind == 0 and not arith.is_prime(p):
            raise DomainError(f"{p} is not prime")

    @staticmethod
    def finite(p: int) -> "Place":
        return Place((0, p))

    @staticmethod
    def infinite() -> "Place":
        return Place((1, 0))

    @staticmethod
    def parse(token: "str | int") -> "Place":
        if isinstance(token, int):
            return Place.finite(token)
        text = token.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return Place.infinite()
        try:
            return Place.finite(int(text))
        except ValueError:
            raise DomainError(f"cannot parse place {token!r}")

    @property
    def is_infinite(self) -> bool:
        return self._key[0] == 1

    @property
    def prime(self) -> int:
        if self.is_infinite:
            raise DomainError("the infinite place has no residue prime")
        return self._key[1]

    def to_json(self) -> "str | int":
        return "inf" if self.is_infinite else self.prime

    def __repr__(self) -> str:
        return "inf" if self.is_infinite else str(self.prime)


INF = Place.infinite()
TWO = Place.finite(2)


@dataclass(frozen=True)
class SquareClass:
    """An element of Q^x / (Q^x)^2, stored as its squarefree integer."""

    rep: int

    def __init__(self, value: "Rat | SquareClass"):
        if isinstance(value, SquareClass):
            rep = value.rep
        else:
            rep = arith.squarefree_part(Fraction(value))
        object.__setattr__(self, "rep", rep)

    @staticmethod
    def from_squarefree(rep: int) -> "SquareClass":
        """The class of rep, which the caller guarantees is squarefree."""
        out = object.__new__(SquareClass)
        object.__setattr__(out, "rep", rep)
        return out

    @property
    def is_trivial(self) -> bool:
        return self.rep == 1

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        # a*b = (a/g)*(b/g)*g**2, and (a/g)*(b/g) is squarefree
        g = gcd(self.rep, other.rep)
        return SquareClass.from_squarefree((self.rep // g) * (other.rep // g))

    def to_json(self) -> int:
        return self.rep

    def __repr__(self) -> str:
        return f"({self.rep})"


ONE = SquareClass(1)
MINUS_ONE = SquareClass(-1)


@dataclass(frozen=True)
class CohClass2:
    """A 2-torsion degree-2 class, stored by its even set of ramified places."""

    support: frozenset[Place]

    def __init__(self, support: Iterable[Place] = ()):
        sup = frozenset(support)
        if len(sup) % 2:
            raise InternalError(f"odd local support {sorted(sup)}: product formula violated")
        object.__setattr__(self, "support", sup)

    @staticmethod
    def zero() -> "CohClass2":
        return CohClass2()

    @property
    def is_zero(self) -> bool:
        return not self.support

    def __add__(self, other: "CohClass2") -> "CohClass2":
        return CohClass2(self.support ^ other.support)

    def __contains__(self, place: Place) -> bool:
        return place in self.support

    def places(self) -> list[Place]:
        return sorted(self.support)

    def to_json(self) -> list:
        return [v.to_json() for v in self.places()]

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in self.places())
        return "{" + inner + "}"


def _as_fraction(x: "Rat | SquareClass") -> Fraction:
    if isinstance(x, SquareClass):
        return Fraction(x.rep)
    return Fraction(x)


def hilbert_symbol(a: "Rat | SquareClass", b: "Rat | SquareClass", v: Place) -> int:
    """Local Hilbert symbol (a, b)_v in {-1, +1} for nonzero rationals."""
    a = _as_fraction(a)
    b = _as_fraction(b)
    if a == 0 or b == 0:
        raise DomainError("Hilbert symbol needs nonzero entries")
    if v.is_infinite:
        return -1 if (a < 0 and b < 0) else 1
    p = v.prime
    alpha, u = arith.padic_split(a, p)
    beta, w = arith.padic_split(b, p)
    if p == 2:
        e = _eps2(u) * _eps2(w) + alpha * _omega2(w) + beta * _omega2(u)
        return -1 if e % 2 else 1
    sym = 1
    if (alpha * beta) % 2 and (p - 1) // 2 % 2:
        sym = -sym
    if beta % 2:
        sym *= arith.legendre_fraction(u, p)
    if alpha % 2:
        sym *= arith.legendre_fraction(w, p)
    return sym


def _unit_mod8(u: Fraction) -> int:
    num, den = u.numerator, u.denominator
    return num * pow(den, -1, 8) % 8


def _eps2(u: Fraction) -> int:
    """(u - 1)/2 mod 2 for a 2-adic unit: 0 for u = 1 mod 4, 1 for u = 3."""
    return 0 if _unit_mod8(u) % 4 == 1 else 1


def _omega2(u: Fraction) -> int:
    """(u**2 - 1)/8 mod 2 for a 2-adic unit: 0 for u = +-1 mod 8."""
    return 0 if _unit_mod8(u) in (1, 7) else 1


def relevant_places(*values: "Rat | SquareClass") -> list[Place]:
    """{inf, 2} plus the odd primes dividing numerator or denominator."""
    places = {INF, TWO}
    for x in values:
        q = _as_fraction(x)
        if q == 0:
            raise DomainError("0 has no relevant places")
        for p, _ in arith.factor(q.numerator * q.denominator).factors:
            if p != 2:
                places.add(Place.finite(p))
    return sorted(places)


def cup(x: "Rat | SquareClass", y: "Rat | SquareClass") -> CohClass2:
    """Cup product of two square classes as an even place set.

    The symbol is +1 outside {inf, 2, primes dividing either
    representative}, so scanning that candidate set is exhaustive.
    """
    return cup_sum((x, y))


def add2(x: CohClass2, y: CohClass2) -> CohClass2:
    """Group law in degree 2: symmetric difference of supports."""
    return x + y


def pairwise_symbol(values: Sequence["Rat | SquareClass"], v: Place) -> int:
    """prod over i < j of (a_i, a_j)_v, as prod over j of (a_1 ... a_(j-1), a_j)_v.

    The two products agree by bilinearity of the Hilbert symbol; the second
    takes len(values) - 1 symbols instead of a quadratic number.
    """
    sym = 1
    prefix = values[0] if values else 1
    for a in values[1:]:
        sym *= hilbert_symbol(prefix, a, v)
        prefix = prefix * a
    return sym


def cup_sum(values: Iterable["Rat | SquareClass"]) -> CohClass2:
    """Sum of cup(a_i, a_j) over all unordered pairs i < j."""
    classes = [SquareClass(v) for v in values]
    return CohClass2(v for v in relevant_places(*classes) if pairwise_symbol(classes, v) == -1)


def localize(x: "SquareClass | CohClass2", v: Place) -> int:
    """Restriction to the completion at v, as an element of Z/2.

    Degree 1: nontrivial iff the representative is a local nonsquare.
    Degree 2: nontrivial iff v lies in the support.
    """
    if isinstance(x, CohClass2):
        return 1 if v in x else 0
    rep = Fraction(SquareClass(x).rep)
    if v.is_infinite:
        return 1 if rep < 0 else 0
    p = v.prime
    val, u = arith.padic_split(rep, p)
    if val % 2:
        return 1
    if p == 2:
        return 0 if _unit_mod8(u) == 1 else 1
    return 0 if arith.legendre_fraction(u, p) == 1 else 1


@dataclass(frozen=True)
class TotalWittClass:
    """A unit 1 + w1 + w2 of the truncated mod-2 cohomology ring.

    Multiplication truncates in degree 3, so the degree-2 component of a
    product picks up the cup of the degree-1 components.
    """

    w1: SquareClass
    w2: CohClass2

    @property
    def w0(self) -> int:
        return 1

    @staticmethod
    def identity() -> "TotalWittClass":
        return TotalWittClass(ONE, CohClass2.zero())

    def __mul__(self, other: "TotalWittClass") -> "TotalWittClass":
        return TotalWittClass(
            self.w1 * other.w1,
            self.w2 + other.w2 + cup(self.w1, other.w1),
        )

    def inverse(self) -> "TotalWittClass":
        return TotalWittClass(self.w1, self.w2 + cup(self.w1, self.w1))


def witt_mul(x: TotalWittClass, y: TotalWittClass) -> TotalWittClass:
    """Degree-truncated product of total classes."""
    return x * y
