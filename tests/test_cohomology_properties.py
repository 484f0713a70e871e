"""Property tests of the integer Hilbert-symbol kernel against the Fraction
oracle naive_hilbert_symbol.

Entries carry a forced power p**k of the place's prime (2, small odd
primes, 101, 10007 and the 61-bit prime 2**61 - 1) times a random
rational, and are passed as Fractions, ints or SquareClasses.  The kernel
_hasse_exponent itself is checked on lists of integers built as
+-p**k * u with u prime to p, so their valuations are known.
"""

from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from hassewitt.cohomology import INF, CohClass2, Place, SquareClass, _hasse_exponent, cup_sum, hilbert_symbol, localize
from hassewitt.errors import DomainError

from oracles import naive_factor, naive_hilbert_symbol

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
