"""Property tests of the integer Hilbert-symbol kernel against the Fraction
oracle naive_hilbert_symbol.

Entries carry a forced power p**k of the place's prime (2, small odd
primes, 101, 10007 and the 61-bit prime 2**61 - 1) times a random
rational, and are passed as Fractions, ints or SquareClasses.  The kernel
_hasse_exponent itself is checked on lists of integers built as
+-p**k * u with u prime to p, so their valuations are known, and on
valuations up to 5,000, against a split one division at a time.
"""

import random
import time
from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from hassewitt.cohomology import (
    _PLAIN_STEPS,
    INF,
    CohClass2,
    Place,
    SquareClass,
    _hasse_exponent,
    cup_sum,
    hilbert_symbol,
    localize,
)
from hassewitt.errors import DomainError

from oracles import naive_factor, naive_hilbert_symbol, naive_valuation

P61 = 2**61 - 1
PRIMES = (2, 3, 5, 7, 11, 13, 101, 10007, P61)
SETTINGS = settings(max_examples=600, deadline=None, derandomize=True, database=None)


@st.composite
def entries(draw, p: int):
    """(value, places): a nonzero rational with a forced power of p, in one
    of its accepted spellings, and the primes that may divide it.  Powers
    of the 61-bit prime stay within +-2: no representative carries its
    cube, which p - 1 and the ECM ladder are not sized to split."""
    bound = 2 if p == P61 else 3
    k = draw(st.integers(-bound, bound))
    num = draw(st.integers(1, 10**6))
    den = draw(st.integers(1, 10**4))
    x = draw(st.sampled_from((1, -1))) * Fraction(num, den) * Fraction(p) ** k
    places = {p, *naive_factor(num), *naive_factor(den)}
    kind = draw(st.sampled_from(("fraction", "int", "class")))
    if kind == "class":
        return SquareClass(x), places
    if kind == "int" and x.denominator == 1:
        return int(x), places
    return x, places


def outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return "DomainError", str(exc)


@SETTINGS
@given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(st.just(p), entries(p), entries(p))),
       st.sampled_from(("finite", "inf", "zero a", "zero b")))
def test_hilbert_symbol_matches_fraction_oracle(case, variant):
    p, (a, _), (b, _) = case
    v = INF if variant == "inf" else Place.finite(p)
    if variant == "zero a":
        a = 0
    elif variant == "zero b":
        b = Fraction(0)
    assert outcome(hilbert_symbol, a, b, v) == outcome(naive_hilbert_symbol, a, b, v)


def local_class_reps(v: Place) -> list[int]:
    """Representatives of Q_v^x / (Q_v^x)^2."""
    if v.is_infinite:
        return [1, -1]
    p = v.prime
    if p == 2:
        return [s * u * t for s in (1, -1) for u in (1, 5) for t in (1, 2)]
    nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return [u * t for u in (1, nonresidue) for t in (1, p)]


@SETTINGS
@given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(st.just(p), entries(p))), st.booleans())
def test_localize_matches_fraction_oracle(case, at_inf):
    p, (x, _) = case
    v = INF if at_inf else Place.finite(p)
    # x is a local nonsquare iff the symbol (x, .)_v is nontrivial
    want = 1 if any(naive_hilbert_symbol(x, y, v) == -1 for y in local_class_reps(v)) else 0
    assert localize(SquareClass(x), v) == want
    assert localize(x, v) == want


@SETTINGS
@given(st.lists(st.sampled_from(PRIMES).flatmap(entries), max_size=5), st.booleans())
def test_cup_sum_matches_fraction_oracle(drawn, with_zero):
    values = [x for x, _ in drawn]
    if with_zero:
        assert outcome(cup_sum, values + [0]) == ("DomainError", "0 has no squarefree part")
        return
    candidates = [INF, Place.finite(2)] + [Place.finite(q) for q in set().union(*(s for _, s in drawn)) if q != 2]
    want = CohClass2(
        v for v in candidates
        if prod(naive_hilbert_symbol(values[i], values[j], v)
                for i in range(len(values)) for j in range(i + 1, len(values))) == -1
    )
    assert cup_sum(values) == want


@st.composite
def kernel_case(draw):
    """(p, xs, vs): 1-8 nonzero integers xs = +-p**v * u with p not dividing
    u, and their valuations vs at p."""
    p = draw(st.sampled_from((2, 3, 5, 7, 101, P61)))
    xs, vs = [], []
    for _ in range(draw(st.integers(1, 8))):
        v = draw(st.integers(0, 2 if p == P61 else 5))
        # u = t*p + r with 0 < r < p runs over every unit residue mod p (mod 8 at 2)
        u = draw(st.integers(0, 10**6)) * p + draw(st.integers(1, min(p - 1, 10**6)))
        xs.append(draw(st.sampled_from((1, -1))) * p**v * u)
        vs.append(v)
    return p, xs, vs


@SETTINGS
@given(kernel_case())
def test_hasse_exponent_matches_pairwise_oracle(case):
    p, xs, vs = case
    place = Place.finite(p)
    minus = sum(naive_hilbert_symbol(xs[i], xs[j], place) == -1 for i in range(len(xs)) for j in range(i + 1, len(xs)))
    assert _hasse_exponent(xs, p) == (minus % 2, sum(v % 2 for v in vs))


def test_localize_and_cup_sum_refuse_zero_as_before():
    assert outcome(localize, 0, Place.finite(3)) == ("DomainError", "0 has no squarefree part")
    assert outcome(cup_sum, [3, Fraction(0)]) == ("DomainError", "0 has no squarefree part")
    assert cup_sum([]) == CohClass2() == cup_sum([-7])


# every valuation below 40, both sides of each power of two up to 4096, and 5000
VALUATIONS = sorted(set(range(40)) | {2**j + s for j in range(5, 13) for s in (-1, 0, 1)} | {4999, 5000})


def test_hasse_exponent_at_large_valuations_matches_a_naive_split():
    rng = random.Random(5000)
    for p in (3, 5, P61):
        place = Place.finite(p)
        for v in VALUATIONS:
            u = rng.choice((1, -1)) * (rng.randrange(10**6) * p + rng.randrange(1, min(p, 10**6)))
            x = p**v * u
            assert naive_valuation(x, p) == (v, u)
            # y of odd valuation pairs with the unit of x, a unit y with its valuation
            for y in (u + p * rng.randrange(1, 10**3) if u % p else 1, p * (rng.randrange(10**3) * p + 1)):
                want = naive_hilbert_symbol(p ** (v % 2) * u, y, place) == -1
                assert _hasse_exponent([x, y], p) == (want, v % 2 + naive_valuation(y, p)[0] % 2), (p, v)


class CountedInt(int):
    """An int that counts the divisions made on it and on its quotients."""

    divisions = 0

    def __mod__(self, m):
        CountedInt.divisions += 1
        return int(self) % m

    def __floordiv__(self, m):
        CountedInt.divisions += 1
        return CountedInt(int(self) // m)

    def __divmod__(self, m):
        CountedInt.divisions += 1
        y, r = divmod(int(self), m)
        return CountedInt(y), r


def test_hasse_exponent_strips_a_large_valuation_in_logarithmic_time():
    # 400 pivots of ~8,000 bits, each 5**v with v ~ 1,600 times a unit: one
    # division per unit of valuation took ~2 s on a 2-core x86-64 VM, the
    # O(log v) strip ~0.07 s
    rng = random.Random(1600)
    xs, vs = [], []
    for _ in range(400):
        v = rng.randint(1500, 1700)
        u = rng.getrandbits(8000 - 2322 * v // 1000) | 1
        xs.append(rng.choice((1, -1)) * 5**v * (u if u % 5 else u + 2))
        vs.append(v)
    start = time.perf_counter()
    e, k = _hasse_exponent(xs, 5)
    assert time.perf_counter() - start < 1.0
    assert k == sum(v % 2 for v in vs)
    # the work bound: two divisions per plain step, two per level of the
    # strip, bit_length(v) + 1 levels; one at a time made 2v per pivot
    CountedInt.divisions = 0
    assert _hasse_exponent([CountedInt(x) for x in xs], 5) == (e, k)
    assert CountedInt.divisions <= sum(2 * (len(_PLAIN_STEPS) + v.bit_length() + 2) for v in vs)
