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
:func:`_cup_sum_at` is the one per-place cup loop: :func:`cup_sum` factors
its places out, and a holder of ``FormInvariants.hasse_local`` passes its keys.
:func:`_places_of` is the one place list; ``forms.invariants`` reads it too.

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
from .arith import _jacobi, _strip_powers
from .errors import DomainError, InternalError
from .values import Value, setfield

Rat = Union[int, Fraction]
_PLAIN_STEPS = range(1, 16)  # _hasse_exponent's divisions by p one at a time: below v = 16 cheaper than a call


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
        """The place of p, which the caller has already proved prime (only p < 2 is checked)."""
        if p < 2:
            raise DomainError(f"{p} is not prime")
        return Place((0, p))

    @staticmethod
    def parse(token: "str | int") -> "Place":
        if isinstance(token, int):
            return Place.finite(token)
        text = token.strip().lower()
        if text in ("inf", "infinity", "oo"):
            return INF
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
        infinite, p = self._key
        if infinite:
            raise DomainError("the infinite place has no residue prime")
        return p

    def to_json(self) -> "str | int":
        return "inf" if self.is_infinite else self.prime

    def __repr__(self) -> str:
        return "inf" if self.is_infinite else str(self.prime)


INF = Place((1, 0))
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
    p, or mod 8 at 2; at odd p, v_i > 15 takes O(log v_i) divisions
    (:func:`_strip_powers`).  Serre's formula (A Course in Arithmetic,
    Ch. III, Thm. 1) summed over the pairs: the unit of x_i is paired with
    the k - v_i odd-valuation entries other than x_i, so only U counts, the
    product of the units of the odd-valuation entries when k is even and
    of the even-valuation ones when k is odd.  At odd p,
    e = eps(p) C(k, 2) + [U is a non-residue]; at p = 2, e = C(E, 2) + omega(U)
    with E the number of units = 3 mod 4.
    """
    k = 0
    if p == 2:
        threes = 0
        units = [1, 1]  # the unit products of the even- and the odd-valuation entries
        for x in xs:
            v = (x & -x).bit_length() - 1
            u = (x >> v) & 7
            k += v & 1
            units[v & 1] = units[v & 1] * u & 7
            threes += u & 3 == 3
        unit = units[1 - (k & 1)]
        return (threes * (threes - 1) // 2 + (unit in (3, 5))) & 1, k
    even = odd = 1  # the same unit products, mod p
    for x in xs:
        if x % p == 0:
            x //= p
            for v in _PLAIN_STEPS:  # v divisions so far
                if x % p:
                    break
                x //= p
            else:
                x, w = _strip_powers(x, p)
                v = _PLAIN_STEPS.stop + w
            if v & 1:
                k += 1
                odd = odd * x % p
                continue
        even = even * x % p
    unit = even if k & 1 else odd
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
    primes = {p for x in reps for p, _ in arith.factor(x)} - {2}
    return [TWO, *map(Place.from_prime, sorted(primes))]


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


def cup_sum(values: Iterable["Rat | SquareClass"]) -> CohClass2:
    """Sum of cup(a_i, a_j) over all unordered pairs i < j."""
    reps = [_integer_rep(x) for x in values]
    if 0 in reps:
        raise DomainError("0 has no squarefree part")
    return _cup_sum_at(reps, _places_of(reps))


def _cup_sum_at(reps: Sequence[int], places: Iterable[Place]) -> CohClass2:
    """cup_sum of the nonzero integers reps: :func:`_hasse_exponent` at each
    finite place given, which must include 2 and every odd prime of odd
    valuation in some rep, and (-1)**C(neg, 2) at inf."""
    support = [v for v in places if _hasse_exponent(reps, v.prime)[0]]
    neg = sum(1 for x in reps if x < 0)
    if neg * (neg - 1) // 2 % 2:
        support.append(INF)
    return CohClass2(support)


def localize(x: "SquareClass | CohClass2", v: Place) -> int:
    """Restriction to the completion at v, as an element of Z/2.

    Degree 1: nontrivial iff x is a local nonsquare: the sign of num * den
    at inf, else its valuation parity and unit at p; nothing is factored.
    Degree 2: nontrivial iff v lies in the support.
    """
    if isinstance(x, CohClass2):
        return 1 if v in x else 0
    n = _integer_rep(x)
    if n == 0:
        raise DomainError("0 has no squarefree part")
    if v.is_infinite:
        return 1 if n < 0 else 0
    p = v.prime
    unit, w = _strip_powers(n, p)
    if w & 1:
        return 1
    return 1 if (unit % 8 != 1 if p == 2 else _jacobi(unit, p) == -1) else 0

