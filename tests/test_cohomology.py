import random
from fractions import Fraction

import pytest

from hassewitt import arith, cohomology
from hassewitt.arith import _jacobi, squarefree_part
from hassewitt.cohomology import (
    INF,
    CohClass2,
    Place,
    SquareClass,
    cup,
    cup_sum,
    hilbert_symbol,
    localize,
    relevant_places,
)
from hassewitt.errors import DomainError, InternalError

from oracles import squares_mod


def places(*tokens):
    return CohClass2([Place.parse(t) for t in tokens])


def test_place_parsing_and_order():
    assert Place.parse("inf") is Place.parse(" OO ") is INF
    assert Place.parse(7) == Place.finite(7)
    assert sorted([INF, Place.finite(283), Place.finite(2)]) == [
        Place.finite(2),
        Place.finite(283),
        INF,
    ]
    with pytest.raises(DomainError):
        Place.finite(6)
    with pytest.raises(DomainError):
        Place.parse("x")


def test_place_finite_still_proves_primality():
    psi12 = 318665857834031151167461  # 399165290221 * 798330580441, a strong pseudoprime to 2..37
    for n in (psi12, 1, 0, -7, 6):
        with pytest.raises(DomainError):
            Place.finite(n)
        with pytest.raises(DomainError):
            Place.parse(str(n))
    assert Place.from_prime(283) == Place.finite(283) == Place.parse("283")


def test_place_from_prime_rejects_integers_below_two():
    # hilbert_symbol(2, 3, Place.from_prime(1)) used to loop forever
    for n in (0, 1):
        with pytest.raises(DomainError, match=f"^{n} is not prime$"):
            Place.from_prime(n)


def test_hilbert_symbol_takes_residue_symbols_only_against_odd_valuations(monkeypatch):
    taken = []
    real = cohomology._jacobi
    monkeypatch.setattr(cohomology, "_jacobi", lambda a, n: taken.append(a) or real(a, n))
    assert hilbert_symbol(3, 5, Place.finite(7)) == 1
    assert taken == []
    assert hilbert_symbol(3, 14, Place.finite(7)) == -1  # 3 is not a square mod 7
    assert taken == [3]
    taken.clear()
    # both valuations odd: one symbol, of the product 3 * 2 of the units
    assert hilbert_symbol(21, 14, Place.finite(7)) == 1
    assert len(taken) == 1


def test_square_class_canonical():
    assert SquareClass(18).rep == 2
    assert SquareClass(Fraction(1, 2)).rep == 2
    assert SquareClass(-275).rep == -11
    assert SquareClass(1).is_trivial
    assert (SquareClass(2) * SquareClass(8)).rep == 1


def test_cohclass_even_support_enforced():
    with pytest.raises(InternalError):
        CohClass2([Place.finite(2)])
    assert CohClass2().is_zero


def test_hilbert_examples():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(2, -283, Place.finite(283)) == -1
    for d in (2, -3, 7, Fraction(22, 7), -283):
        assert hilbert_symbol(2, d, INF) == 1


def test_hilbert_symmetry_and_squares():
    rng = random.Random(5)
    for _ in range(200):
        a = _nonzero(rng, 200)
        b = _nonzero(rng, 200)
        v = rng.choice([INF, Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7)])
        s = hilbert_symbol(a, b, v)
        assert s in (-1, 1)
        assert s == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * 4, b, v) == s  # square factors drop out
        assert hilbert_symbol(Fraction(a, 9), b, v) == s


def test_hilbert_rational_point_forces_plus_one():
    # if z^2 = a x^2 + b y^2 has a rational solution, every local symbol is +1
    rng = random.Random(13)
    found = 0
    for _ in range(4000):
        a = rng.randint(-20, 20)
        b = rng.randint(-20, 20)
        if a == 0 or b == 0:
            continue
        sol = _small_solution(a, b)
        if sol is None:
            continue
        found += 1
        for v in relevant_places(a, b):
            assert hilbert_symbol(a, b, v) == 1, (a, b, v, sol)
        if found > 120:
            break
    assert found > 50


def _small_solution(a, b, box=12):
    for x in range(box + 1):
        for y in range(box + 1):
            if x == y == 0:
                continue
            t = a * x * x + b * y * y
            if t >= 0:
                from math import isqrt

                z = isqrt(t)
                if z * z == t:
                    return (x, y, z)
    return None


def _nonzero(rng, bound):
    while True:
        n = rng.randint(-bound, bound)
        if n:
            return n


def test_infinite_place_has_no_prime_and_zero_no_places():
    with pytest.raises(DomainError, match="^the infinite place has no residue prime$"):
        INF.prime
    for values in ((0,), (3, 0), (Fraction(2, 3), Fraction(0))):
        with pytest.raises(DomainError, match="^0 has no relevant places$"):
            relevant_places(*values)


def test_hilbert_zero_rejected():
    with pytest.raises(DomainError):
        hilbert_symbol(0, 3, INF)
    with pytest.raises(DomainError):
        hilbert_symbol(3, 0, Place.finite(2))


def _solvable_by_enumeration(a, b, p, k):
    """Primitive solvability of z^2 = a x^2 + b y^2 over Z/p^k.

    For squarefree a, b a primitive local zero is detected at this
    precision, so this decides solvability over the p-adics without using
    any symbol formula.  A triple with x, y both divisible by p forces
    p | z and is never primitive, so only the (x, y) pairs below occur.
    """
    mod = p**k
    squares = {z * z % mod for z in range(mod)}
    for x in range(mod):
        for y in range(mod):
            if x % p == 0 and y % p == 0:
                continue
            if (a * x * x + b * y * y) % mod in squares:
                return True
    return False


def test_hilbert_against_local_enumeration():
    # every unit/valuation shape at 3 and 5: residues, nonresidues, signs,
    # and single powers of p
    grids = {
        3: [1, -1, 2, -2, 3, -3, 6, -6],
        5: [1, 2, -1, -2, 5, 10, -5, 15],
    }
    for p, values in grids.items():
        for a in values:
            for b in values:
                formula = hilbert_symbol(a, b, Place.finite(p)) == 1
                assert formula == _solvable_by_enumeration(a, b, p, 3), (a, b, p)


def test_hilbert_at_two_against_local_enumeration():
    # all unit classes mod 8 in both signs, and twice them
    values = [1, 3, 5, 7, -1, -3, -5, -7, 2, 6, -2, -6, 10, 14]
    for a in values:
        for b in values:
            formula = hilbert_symbol(a, b, Place.finite(2)) == 1
            assert formula == _solvable_by_enumeration(a, b, 2, 6), (a, b)


def test_cup_examples():
    assert cup(1, -7).is_zero
    assert cup(-1, -1) == places(2, "inf")
    assert cup(2, -283) == places(2, 283)
    # 318665857834031151167461 = 399165290221 * 798330580441 fools
    # Miller-Rabin with the prime bases up to 37
    assert cup(2, 318665857834031151167461) == places(2, 399165290221)


def test_cup_product_formula_sample():
    rng = random.Random(3)
    for _ in range(300):
        a = _nonzero(rng, 10**6)
        b = _nonzero(rng, 10**6)
        c = cup(a, b)
        assert len(c.support) % 2 == 0


def test_cup_identities():
    rng = random.Random(17)
    for _ in range(60):
        a = _nonzero(rng, 500)
        b = _nonzero(rng, 500)
        c = _nonzero(rng, 500)
        assert cup(a, b) == cup(b, a)
        assert cup(a * b, c) == cup(a, c) + cup(b, c)
        assert cup(a, a) == cup(a, -1)
        assert cup(a, -a).is_zero
        if a not in (0, 1):
            assert cup(a, 1 - a).is_zero


def test_add2():
    # the group law in degree 2: symmetric difference of supports
    x = places(2, "inf")
    assert (x + x).is_zero
    assert x + CohClass2() == x
    assert places(2, 283) + places(2, "inf") == places(283, "inf")


def test_localize_examples():
    assert localize(SquareClass(-1), INF) == 1
    assert localize(places(2, 283), Place.finite(283)) == 1
    assert localize(places(2, 283), Place.finite(7)) == 0
    # 2 = 3^2 mod 7: a local square, so the class dies at 7
    assert localize(SquareClass(2), Place.finite(7)) == 0


def test_localize_against_exhaustive_squares():
    for p in (3, 5, 7, 11, 13):
        sq = squares_mod(p)
        for a in range(1, p):
            expect = 0 if a in sq else 1
            assert localize(SquareClass(a), Place.finite(p)) == expect
        # odd valuation is never a local square
        assert localize(SquareClass(p), Place.finite(p)) == 1


def test_localize_at_two():
    assert localize(SquareClass(17), Place.finite(2)) == 0  # 17 = 1 mod 8
    assert localize(SquareClass(7), Place.finite(2)) == 1
    assert localize(SquareClass(2), Place.finite(2)) == 1


def _localize_by_squarefree_part(x, v: Place) -> int:
    """The former route of localize: factor x down to its squarefree
    representative, then read the sign or the unit at p."""
    rep = SquareClass(x).rep
    if v.is_infinite:
        return 1 if rep < 0 else 0
    p = v.prime
    if rep % p == 0:
        return 1
    return 1 if (rep % 8 != 1 if p == 2 else _jacobi(rep % p, p) == -1) else 0


def _refuse_factor(n):
    raise AssertionError(f"factor({n})")


def test_localize_agrees_with_the_squarefree_route_and_never_factors(monkeypatch):
    rng = random.Random(39)
    primes = [p for p in range(2, 200) if arith.is_prime(p)]
    cases = []
    for _ in range(20_000):
        v = INF if rng.random() < 0.1 else Place.finite(rng.choice(primes))
        p = rng.choice(primes) if v.is_infinite else v.prime
        # a forced power of p on either side, so valuations of every parity occur
        x = Fraction(rng.choice((1, -1)) * rng.randrange(1, 10**6) * p ** rng.randrange(6),
                     rng.randrange(1, 10**4) * p ** rng.randrange(6))
        x = SquareClass(x) if rng.random() < 0.3 else x.numerator if x.denominator == 1 else x
        cases.append((x, v, _localize_by_squarefree_part(x, v)))
    monkeypatch.setattr(arith, "factor", _refuse_factor)
    for x, v, want in cases:
        assert localize(x, v) == want, (x, v)


def test_localize_reads_one_place_of_a_rational_past_the_factoring_limit(monkeypatch):
    # 3 / (M q): M * q is a 258-bit composite of two primes past 2^126,
    # which factor() refuses; localize needs only the sign or the unit at v
    M = 2**127 - 1
    q = 2**130 + 169  # the least prime above 2^130
    assert arith.is_prime(M) and arith.is_prime(q)
    assert not any(arith.is_prime(n) for n in range(2**130 + 1, q))
    x = Fraction(3, M * q)
    monkeypatch.setattr(arith, "factor", _refuse_factor)
    assert [localize(x, Place.finite(p)) for p in (2, 3, 5)] == [1, 1, 1]
    assert localize(x, INF) == 0
    assert localize(-x, INF) == 1


def test_localize_of_cup_matches_symbol():
    rng = random.Random(23)
    for _ in range(100):
        a = _nonzero(rng, 300)
        b = _nonzero(rng, 300)
        c = cup(a, b)
        for v in relevant_places(a, b):
            assert (-1) ** localize(c, v) == hilbert_symbol(a, b, v)


def test_cup_sum_pairs():
    vals = [3, 5, -1]
    total = cup_sum(vals)
    expected = cup(3, 5) + cup(3, -1) + cup(5, -1)
    assert total == expected


def test_serialization_convention():
    assert SquareClass(Fraction(-50, 9)).to_json() == -2
    assert places(283, 2).to_json() == [2, 283]
    assert places("inf", 2).to_json() == [2, "inf"]
    assert squarefree_part(-50) == -2
