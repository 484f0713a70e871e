"""Concrete model of mod-2 Galois cohomology of Q in degrees <= 2.

Degree 1 classes are square classes of rationals, held as canonical
squarefree integers.  Degree 2 classes are 2-torsion Brauer classes; over Q
such a class is pinned down by the finite set of places where it is locally
nontrivial, and that support set always has even cardinality.  We therefore
store degree 2 classes as even place sets, with addition as symmetric
difference and cup products of square classes computed place by place
through Hilbert symbols.

There is one local-symbol kernel, in integers, shared with ``forms``: a
rational is replaced by num * den, and :func:`_hasse_exponent` reads the
integers themselves, splits each at p into its valuation parity and its
unit mod p (mod 8 at 2), and gives the product of the symbols over all
pairs of a diagonal form in closed form, with at most one residue symbol.

Conventions: a place is either a finite prime or the real place ``inf``;
the Hilbert symbol (a, b)_v is +1 exactly when z**2 = a x**2 + b y**2 has a
nontrivial solution over the completion at v.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import Iterable, Sequence, Union

from . import arith
from .arith import _jacobi
from .errors import DomainError, InternalError
from .values import Value, setfield

Rat = Union[int, Fraction]


@total_ordering
class Place(Value):
    """A place of Q: Finite(p) for a prime p, or the infinite (real) place.

    Ordering sorts finite places by the prime and puts ``inf`` last, which
    is also the serialization order.  ``<=``, ``>`` and ``>=`` are derived
    from ``<`` and ``==``.
    """

    _fields = ("_key",)

    def __init__(self, _key: tuple[int, int]):
        setfield(self, "_key", _key)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._key,))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented

    @staticmethod
    def finite(p: int) -> "Place":
        if not arith.is_prime(p):
            raise DomainError(f"{p} is not prime")
        return Place((0, p))

    @staticmethod
    def from_prime(p: int) -> "Place":
        """The place of p, which the caller has already proved prime."""
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
            p = int(text)
        except ValueError:
            raise DomainError(f"cannot parse place {token!r}")
        return Place.finite(p)

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


class SquareClass(Value):
    """An element of Q^x / (Q^x)^2, stored as its squarefree integer."""

    _fields = ("rep",)

    def __init__(self, value: "Rat | SquareClass"):
        if isinstance(value, SquareClass):
            rep = value.rep
        else:
            rep = arith.squarefree_part(Fraction(value))
        setfield(self, "rep", rep)

    @staticmethod
    def from_squarefree(rep: int) -> "SquareClass":
        """The class of rep, which the caller guarantees is squarefree."""
        out = object.__new__(SquareClass)
        setfield(out, "rep", rep)
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


class CohClass2(Value):
    """A 2-torsion degree-2 class, stored by its even set of ramified places."""

    _fields = ("support",)

    def __init__(self, support: Iterable[Place] = ()):
        sup = frozenset(support)
        if len(sup) % 2:
            raise InternalError(f"odd local support {sorted(sup)}: product formula violated")
        setfield(self, "support", sup)

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


def _integer_rep(x: "Rat | SquareClass") -> int:
    """An integer in the square class of x (num * den for a rational), 0 for 0."""
    if isinstance(x, SquareClass):
        return x.rep
    q = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return q.numerator * q.denominator


def _hasse_exponent(xs: Sequence[int], p: int) -> tuple[int, int]:
    """(e, k) for the nonzero integers xs: prod over i < j of
    (x_i, x_j)_p = (-1)**e, and k of the x_i have odd valuation at p.

    Each x_i = p**v_i * u_i is split at p in the loop: v_i mod 2 and u_i mod
    p, or mod 8 at 2.  Serre's formula (A Course in Arithmetic, Ch. III,
    Thm. 1) summed over the pairs: the unit of x_i is paired with the
    k - v_i odd-valuation entries other than x_i, so only U counts, the
    product of the units of the odd-valuation entries when k is even and
    of the even-valuation ones when k is odd.  At odd p,
    e = eps(p) C(k, 2) + [U is a non-residue]; at p = 2, e = C(E, 2) + omega(U)
    with E the number of units = 3 mod 4.
    """
    k = 0
    units = [1, 1]  # the unit products of the even- and the odd-valuation entries
    if p == 2:
        threes = 0
        for x in xs:
            v = (x & -x).bit_length() - 1
            u = (x >> v) & 7
            k += v & 1
            units[v & 1] = units[v & 1] * u & 7
            threes += u & 3 == 3
        unit = units[1 - (k & 1)]
        return (threes * (threes - 1) // 2 + (unit in (3, 5))) & 1, k
    for x in xs:
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        k += v & 1
        units[v & 1] = units[v & 1] * x % p
    unit = units[1 - (k & 1)]
    return (k * (k - 1) // 2 * (p >> 1) + (unit != 1 and _jacobi(unit, p) == -1)) & 1, k


def hilbert_symbol(a: "Rat | SquareClass", b: "Rat | SquareClass", v: Place) -> int:
    """Local Hilbert symbol (a, b)_v in {-1, +1} for nonzero rationals."""
    x, y = _integer_rep(a), _integer_rep(b)
    if x == 0 or y == 0:
        raise DomainError("Hilbert symbol needs nonzero entries")
    if v.is_infinite:
        return -1 if (x < 0 and y < 0) else 1
    p = v.prime
    return -1 if _hasse_exponent((x, y), p)[0] else 1


def _places_of(reps: Sequence[int]) -> list[Place]:
    """2 and the odd primes dividing some of the nonzero integers reps, each
    factored once; their places skip the primality test factor() passed."""
    primes = set()
    for x in reps:
        primes.update(p for p, _ in arith.factor(x).factors)
    return [TWO] + [Place.from_prime(p) for p in sorted(primes - {2})]


def relevant_places(*values: "Rat | SquareClass") -> list[Place]:
    """{inf, 2} plus the odd primes dividing numerator or denominator."""
    reps = [_integer_rep(x) for x in values]
    if 0 in reps:
        raise DomainError("0 has no relevant places")
    return _places_of(reps) + [INF]


def cup(x: "Rat | SquareClass", y: "Rat | SquareClass") -> CohClass2:
    """Cup product of two square classes as an even place set.

    The symbol is +1 outside {inf, 2, primes dividing either
    representative}, so scanning that candidate set is exhaustive.
    """
    return cup_sum((x, y))


def add2(x: CohClass2, y: CohClass2) -> CohClass2:
    """Group law in degree 2: symmetric difference of supports."""
    return x + y


def cup_sum(values: Iterable["Rat | SquareClass"]) -> CohClass2:
    """Sum of cup(a_i, a_j) over all unordered pairs i < j.

    At a finite place that is :func:`_hasse_exponent` of the entries; at
    inf, (-1)**C(neg, 2).
    """
    reps = [_integer_rep(x) for x in values]
    if 0 in reps:
        raise DomainError("0 has no squarefree part")
    support = [v for v in _places_of(reps) if _hasse_exponent(reps, v.prime)[0]]
    neg = sum(1 for x in reps if x < 0)
    if neg * (neg - 1) // 2 % 2:
        support.append(INF)
    return CohClass2(support)


def localize(x: "SquareClass | CohClass2", v: Place) -> int:
    """Restriction to the completion at v, as an element of Z/2.

    Degree 1: nontrivial iff the representative is a local nonsquare.
    Degree 2: nontrivial iff v lies in the support.
    """
    if isinstance(x, CohClass2):
        return 1 if v in x else 0
    rep = SquareClass(x).rep
    if v.is_infinite:
        return 1 if rep < 0 else 0
    p = v.prime
    # rep is squarefree: p divides it once, or it is a unit at p
    if rep % p == 0:
        return 1
    return 1 if (rep % 8 != 1 if p == 2 else _jacobi(rep % p, p) == -1) else 0


class TotalWittClass(Value):
    """A unit 1 + w1 + w2 of the truncated mod-2 cohomology ring.

    Multiplication truncates in degree 3, so the degree-2 component of a
    product picks up the cup of the degree-1 components.
    """

    _fields = ("w1", "w2")

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
