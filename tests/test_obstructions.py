import random
from fractions import Fraction

import pytest

from hassewitt import arith, cli
from hassewitt.arith import factor
from hassewitt.cohomology import INF, MINUS_ONE, CohClass2, Place, SquareClass, cup, localize
from hassewitt.errors import DomainError
from hassewitt.forms import invariants
from hassewitt.numberfield import (
    EtaleAlgebra,
    Poly,
    discriminant,
    factor_pattern_mod_p,
    trace_gram,
)
from hassewitt.obstructions import (
    _RAMIFIED_TYPES,
    QUARTIC_ASSUMPTIONS,
    delta_comparison,
    jehanne_local,
    lifting_decisions,
    real_place_sw2,
    sp2_permutation,
    sw2_character_sum,
    sw2_permutation,
)

from oracles import (
    JEHANNE_TYPES,
    companion_power_traces,
    congruent_form,
    diagonal_form,
    naive_form_invariants,
    naive_hilbert_symbol,
    naive_valuation,
    poly_mul,
    random_nondegenerate_symmetric,
    random_unimodular,
)

F1 = EtaleAlgebra(Poly([-1, 1, 0, 0, 1]))          # x^4 + x - 1, disc -283
F2 = EtaleAlgebra(Poly([-1, -2, 0, 1, 1]))         # x^4 + x^3 - 2x - 1, disc -275
F3 = EtaleAlgebra(Poly([-1, -4, -2, 0, 1]))        # x^4 - 2x^2 - 4x - 1, disc -2^8*11
# Replacement for the reducible quartic with stated discriminant 2777:
# totally real, disc exactly 2777 (prime), 2777 splits as 1^2,1,1, and the
# factor patterns mod 3 / mod 11 exhibit a 4-cycle and a 3-cycle, which
# forces the Galois closure to be all of S4.
F4 = EtaleAlgebra(Poly([2, 3, -3, -2, 1]))         # x^4 - 2x^3 - 3x^2 + 3x + 2


def places(*tokens):
    return CohClass2([Place.parse(t) for t in tokens])


def test_sp2_permutation():
    assert sp2_permutation(F1) == places(2, 283)
    assert sp2_permutation(EtaleAlgebra(Poly([1, 0, 1]))).is_zero  # cup(2, -4) = cup(2, -1)
    # square discriminant: (x^2-2)(x^2-8) has disc class 1
    alg = EtaleAlgebra(Poly(poly_mul([-2, 0, 1], [-8, 0, 1])))
    assert SquareClass(discriminant(alg.poly)).is_trivial
    assert sp2_permutation(alg).is_zero


def test_sp2_and_sw2_answer_where_invariants_answer():
    """x^2 + x/(M q), M = 2^127 - 1 and q the least prime above 2^130: disc f
    = 1/(M q)^2, whose num * den is the square of a 258-bit composite, past
    the factoring limit.  The trace form's support |num disc f| * gcd(disc g,
    c) is 1, so invariants(A) answers w1 = (1), w2 = {}; sp2 and sw2 are read
    off it and answer too, where factoring disc f raised EffortExceededError."""
    m = 2**127 - 1
    q = next(n for n in range(2**130 + 1, 2**130 + 1000, 2) if arith.is_prime(n))
    alg = EtaleAlgebra(Poly([0, Fraction(1, m * q), 1]))
    inv = invariants(alg)
    assert (inv.w1, inv.w2) == (SquareClass(1), CohClass2())
    assert sp2_permutation(alg) == CohClass2()
    assert sw2_permutation(alg) == inv.w2


def test_sw2_permutation_golden():
    assert sw2_permutation(F1).is_zero
    assert not sw2_permutation(F2).is_zero
    for a in (-3, 5, 7, -11):
        assert sw2_permutation(EtaleAlgebra(Poly([-a, 0, 1]))).is_zero


def test_lifting_decisions_golden():
    r1 = lifting_decisions(F1)
    assert (r1.lift_solvable, r1.lift_delta_solvable) == (False, True)
    assert r1.w2_trace == places(2, 283)
    assert r1.sp2 == places(2, 283)
    assert r1.sw2.is_zero
    assert r1.field_disc == SquareClass(-283)

    r2 = lifting_decisions(F2)
    assert (r2.lift_solvable, r2.lift_delta_solvable) == (False, False)
    assert r2.w2_trace == places(2, 5)
    assert r2.sp2 == places(2, 11)
    assert r2.sw2 == places(5, 11)

    r3 = lifting_decisions(F3)
    assert (r3.lift_solvable, r3.lift_delta_solvable) == (True, False)
    assert r3.w2_trace.is_zero
    assert r3.sw2 == places(2, 11)


def test_lifting_decisions_totally_real_2777():
    # all invariants vanish: both problems solvable
    assert F4.real_roots == 4
    assert discriminant(F4.poly) == 2777
    assert factor_pattern_mod_p(F4, 2777) == ((1, 1), (1, 1), (1, 2))
    # Galois closure is S4: a 4-cycle mod 3 and a 3-cycle mod 11
    assert factor_pattern_mod_p(F4, 3) == ((4, 1),)
    assert factor_pattern_mod_p(F4, 11) == ((1, 1), (3, 1))
    report = lifting_decisions(F4)
    assert report.w2_trace.is_zero and report.sp2.is_zero and report.sw2.is_zero
    assert report.lift_solvable and report.lift_delta_solvable


def test_w2_trace_splits_into_sw2_plus_sp2():
    for alg in (F1, F2, F3, F4):
        report = lifting_decisions(alg)
        assert report.w2_trace == report.sw2 + report.sp2


def test_lifting_decisions_local_table():
    report = lifting_decisions(F1)
    assert report.local_table[Place.finite(283)] == (-1, -1)
    assert report.local_table[Place.finite(2)] == (-1, -1)
    assert report.local_table[INF] == (1, 1)
    # the embedding command states the quartic hypotheses beside the report
    outputs, assumptions = cli.execute("embedding", {"poly": "-1,1,0,0,1"})
    assert outputs == report.to_json() and assumptions == QUARTIC_ASSUMPTIONS


def test_lifting_decisions_at_a_wild_prime_match_the_oracles():
    # x^4 - x^3 + 3: disc 6669 = 3^3 * 13 * 19, Galois closure S4 (a 4-cycle
    # mod 7, a 3-cycle mod 5); f = x^3 (x - 1) + 3 * 1 with 3 not dividing 1,
    # so by Dedekind's criterion 3 does not divide the index: v_3(d_F) = 3.
    # 3 decomposes as 1^3,1 with e = p, wildly; there the jehanne table's
    # tame row gives (1, 1), and the trace form gives the pair pinned here
    f = Poly([3, 0, 0, -1, 1])
    alg = EtaleAlgebra(f)
    assert discriminant(f) == 6669 and factor(6669) == ((3, 3), (13, 1), (19, 1))
    assert factor_pattern_mod_p(alg, 7) == ((4, 1),)
    assert factor_pattern_mod_p(alg, 5) == ((1, 1), (3, 1))
    assert factor_pattern_mod_p(alg, 3) == ((1, 1), (1, 3))
    sums = companion_power_traces(f, 6)
    naive = naive_form_invariants([[sums[i + j] for j in range(4)] for i in range(4)])
    oracle = (-1 if 3 in naive["w2"] else 1, naive_hilbert_symbol(2, 6669, Place.finite(3)))
    assert lifting_decisions(alg).local_table[Place.finite(3)] == oracle == (-1, -1)


def test_lifting_decisions_agree_with_direct_classes():
    # the report reads disc, sp2 and the table places off the trace form
    rng = random.Random(171)
    checked = 0
    while checked < 90:
        kind = checked % 3
        if kind == 0:
            f = Poly([rng.randint(-9, 9) for _ in range(4)] + [1])
        elif kind == 1:  # reducible: a product of two monic quadratics
            f = Poly(poly_mul([rng.randint(-9, 9), rng.randint(-5, 5), 1], [rng.randint(-9, 9), rng.randint(-5, 5), 1]))
        else:
            f = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4)] + [1])
        if not f.is_squarefree():
            continue
        checked += 1
        alg = EtaleAlgebra(f)
        report = lifting_decisions(alg)
        assert report.field_disc == SquareClass(discriminant(f)), f
        assert report.sp2 == sp2_permutation(alg) == cup(2, discriminant(f)), f
        assert report.sw2 == sw2_permutation(alg), f
        places = {INF, Place.finite(2), *report.w2_trace.support, *report.sp2.support}
        places.update(Place.finite(q) for q, _ in factor(report.field_disc.rep))
        assert set(report.local_table) == places, f


def test_lifting_decisions_requires_quartic():
    with pytest.raises(DomainError):
        lifting_decisions(EtaleAlgebra(Poly([-2, 0, 1])))


def test_jehanne_table_golden():
    assert jehanne_local(283, "1^2,1,1", -283) == (-1, -1)
    assert jehanne_local(5, "2^2", -275) == (-1, 1)
    assert jehanne_local(7, "unramified", -283) == (1, 1)


def test_jehanne_table_cases():
    # p = 7: (p^2-1)/8 = 6 even, (p-1)/2 = 3 odd, (p+1)/2 = 4 even
    assert jehanne_local(7, "1^2,1,1", -283) == (1, 1)
    assert jehanne_local(7, "1^3,1", -283) == (1, 1)
    assert jehanne_local(7, "1^2,2", -283) == (-1, 1)
    assert jehanne_local(7, "1^4", -283) == (-1, 1)
    assert jehanne_local(7, "2^2", -283) == (1, 1)
    # p = 5: (p^2-1)/8 = 3 odd, (p-1)/2 = 2 even, (p+1)/2 = 3 odd
    assert jehanne_local(5, "1^2,1,1", -275) == (-1, -1)
    assert jehanne_local(5, "1^2,2", -275) == (1, -1)
    assert jehanne_local(5, "1^4", -275) == (1, -1)
    # the doubly ramified case picks up a symbol (d_F, p)_p
    assert jehanne_local(5, "1^2,1^2", -275) == (
        1 * _symbol(-275, 5),
        1,
    )


def _symbol(a, p):
    from hassewitt.cohomology import hilbert_symbol

    return hilbert_symbol(a, p, Place.finite(p))


def test_jehanne_rejects_two_and_composites():
    with pytest.raises(DomainError, match=r"^the local table excludes the prime 2$"):
        jehanne_local(2, "1^4", -283)
    # Place.finite's primality test is the only check for the other p
    for p in (1, 0, -3, 4, 9, 10**40):
        with pytest.raises(DomainError, match=rf"^{p} must be an odd prime$"):
            jehanne_local(p, "1^4", -283)
    with pytest.raises(DomainError, match=r"^1000009 must be an odd prime$"):
        jehanne_local(1000009, "1^2,1^2", 5)  # 293 * 3413
    # the type is checked first, so a jehanne request with a bad type and a
    # bad p reads the type's error
    with pytest.raises(DomainError, match=r"^unknown decomposition type '1\^5'$"):
        jehanne_local(2, "1^5", 0)
    with pytest.raises(DomainError, match=r"^unknown decomposition type ' 1\^4'$"):
        jehanne_local(7, " 1^4", -283)  # the command strips the name, the table does not


def test_ramified_shapes_are_the_six_of_degree_4():
    # (e, f) per prime above p; the table is constant, so e*f sums to 4 is checked
    # here and not on every call
    assert len(_RAMIFIED_TYPES) == 6
    for name, shape in _RAMIFIED_TYPES.items():
        assert sum(e * f for e, f in shape) == 4, name
        assert any(e > 1 for e, _ in shape), name


def test_jehanne_symbol_column_is_two_over_p_to_the_valuation():
    # at a tame odd p, (2, d_F)_p = (2/p)**v with v = v_p(d_F) = sum of (e - 1) f
    # over the shape (0 unramified); (2/p) by Euler's criterion
    checked = 0
    for p in range(3, 2000, 2):
        if any(p % q == 0 for q in range(3, int(p**0.5) + 1, 2)):
            continue
        two = 1 if pow(2, (p - 1) // 2, p) == 1 else -1
        for name in JEHANNE_TYPES:
            v = sum((e - 1) * f for e, f in _RAMIFIED_TYPES.get(name, ()))
            for unit in (1, -1, 2, -4, 2003, -2 * 2011, 2017 * 2027):  # prime to p
                d_f = unit * p**v
                assert jehanne_local(p, name, d_f)[1] == two**v, (p, name, d_f)
                checked += 1
    assert checked == 302 * 7 * 7


def test_jehanne_rejects_a_zero_discriminant():
    # a field discriminant is never 0; before, only 1^2,1^2 refused it, and
    # with the Hilbert symbol's text
    for name in JEHANNE_TYPES:
        with pytest.raises(DomainError, match="^the field discriminant must be nonzero$"):
            jehanne_local(7, name, 0)


def test_jehanne_consistent_with_direct_computation():
    # known decomposition types for the golden quartics
    cases = [
        (F1, 283, "1^2,1,1"),
        (F2, 5, "2^2"),
        (F2, 11, "1^2,2"),
        (F3, 11, "1^2,2"),
        (F4, 2777, "1^2,1,1"),
    ]
    for alg, p, type_name in cases:
        d_field = int(discriminant(alg.poly))
        w2 = invariants(trace_gram(alg)).w2
        direct = (
            -1 if localize(w2, Place.finite(p)) else 1,
            _symbol_pair(d_field, p),
        )
        assert jehanne_local(p, type_name, d_field) == direct, (p, type_name)


def _symbol_pair(d_field, p):
    from hassewitt.cohomology import hilbert_symbol

    return hilbert_symbol(2, d_field, Place.finite(p))


def test_character_sum():
    assert sw2_character_sum([1, 7]).is_zero
    assert sw2_character_sum([-1, -1]) == places(2, "inf")
    for a in (5, -6, 13):
        assert sw2_character_sum([a, a]) == cup(a, -1)
    with pytest.raises(DomainError, match="^character sum must be nonempty$"):
        sw2_character_sum([])
    # the characters themselves, as rationals, strings or square classes
    assert sw2_character_sum(x for x in (Fraction(-3, 4), "-12", SquareClass(2))) == sw2_character_sum([-3, -3, 2])


P40, P41 = 1_099_511_627_791, 2_199_023_255_579  # the first primes above 2**40 and 2**41


@pytest.mark.parametrize("chars, primes", [
    pytest.param([12, -18, 2**61 - 1], (2, 3, 2**61 - 1), id="mersenne"),
    pytest.param([9 * P40 * P41, -3, 5], (2, 3, 5, P40, P41), id="semiprime"),
])
def test_character_sum_factors_each_character_once(monkeypatch, chars, primes):
    """With the memo cleared, one factor call and one cold factorization per
    character; the class is the pairwise sum of the oracle's symbols over 2,
    inf and every prime of a character."""
    calls = []
    real = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or real(n))
    arith._factor_positive.cache_clear()
    got = sw2_character_sum(chars)
    assert calls == chars
    assert arith._factor_positive.cache_info().misses == len(chars)
    for x in chars:  # primes holds every prime of x
        for p in primes:
            x = naive_valuation(x, p)[1]
        assert abs(x) == 1
    expected = []
    for v in [Place.finite(p) for p in primes] + [INF]:
        sign = 1
        for i, a in enumerate(chars):
            for b in chars[i + 1:]:
                sign *= naive_hilbert_symbol(a, b, v)
        if sign == -1:
            expected.append(v)
    assert got == CohClass2(expected)


def test_multiquadratic_character_cross_validation():
    rng = random.Random(2024)
    from hassewitt.arith import squarefree_part

    done = 0
    while done < 30:
        k = rng.choice([2, 3])
        vals = set()
        while len(vals) < k:
            vals.add(squarefree_part(rng.randint(2, 400) * rng.choice([1, -1])))
        vals = sorted(vals)
        poly = Poly(poly_mul(*[[-a, 0, 1] for a in vals]))
        if not poly.is_squarefree():
            continue
        done += 1
        alg = EtaleAlgebra(poly)
        chars = []
        for a in vals:
            chars.extend([1, a])
        assert sw2_permutation(alg) == sw2_character_sum(chars), vals


def test_real_place():
    assert real_place_sw2(0) == 0
    assert real_place_sw2(2) == 1
    assert real_place_sw2(4) == 0
    for b in range(13):
        expected = (b * (b - 1) // 2) % 2
        assert real_place_sw2(b) == expected
        if b:
            assert localize(sw2_character_sum([-1] * b), INF) == expected
    with pytest.raises(DomainError):
        real_place_sw2(-1)


def test_quartic_trace_form_real_place():
    # the trace form is locally nontrivial at the real place exactly for
    # totally imaginary quartics: C(r2, 2) odd iff r2 = 2
    for alg, r2, expect in ((F1, 1, 0), (F4, 0, 0)):
        assert (alg.degree - alg.real_roots) // 2 == r2
        assert localize(invariants(trace_gram(alg)).w2, INF) == expect
    imag = EtaleAlgebra(Poly([1, 0, 0, 0, 1]))  # x^4 + 1, totally imaginary
    assert imag.real_roots == 0
    assert localize(invariants(trace_gram(imag)).w2, INF) == 1


def test_delta_comparison_degenerate():
    q = diagonal_form([3, -5, 7])
    pair = delta_comparison(q, q)
    assert pair.delta1.is_trivial
    assert pair.delta2.is_zero


def test_delta_comparison_standard_vs_trace():
    pair = delta_comparison(diagonal_form([1] * 4), trace_gram(F1))
    assert pair.delta1 == SquareClass(-283)
    assert pair.delta2 == places(2, 283)


def test_delta_comparison_twisted_plane():
    a = -5
    pair = delta_comparison(diagonal_form([1] * 2), diagonal_form([2, 2 * a]))
    assert pair.delta1 == SquareClass(a)
    assert pair.delta2 == cup(2, a)


def test_delta_comparison_rank_mismatch():
    with pytest.raises(DomainError):
        delta_comparison(diagonal_form([1] * 2), diagonal_form([1] * 3))


def test_delta_composition_identity():
    rng = random.Random(303)
    for _ in range(25):
        n = rng.randint(1, 4)
        q1 = random_nondegenerate_symmetric(rng, n, 15)
        q2 = random_nondegenerate_symmetric(rng, n, 15)
        q3 = random_nondegenerate_symmetric(rng, n, 15)
        d12 = delta_comparison(q1, q2)
        d23 = delta_comparison(q2, q3)
        d13 = delta_comparison(q1, q3)
        w1 = invariants(q1).w1
        w2 = invariants(q2).w1
        w3 = invariants(q3).w1
        assert d13.delta1 == d12.delta1 * d23.delta1
        assert d13.delta2 == d12.delta2 + d23.delta2 + cup(w1 * w2, w2 * w3)
        # degree-1 symmetry
        assert delta_comparison(q2, q1).delta1 == d12.delta1


def test_delta2_one_cup_matches_two_cups():
    rng = random.Random(1729)
    for _ in range(220):
        n = rng.randint(1, 5)
        q1 = random_nondegenerate_symmetric(rng, n, 30)
        q2 = random_nondegenerate_symmetric(rng, n, 30)
        a, b = invariants(q1), invariants(q2)
        assert delta_comparison(q1, q2).delta2 == a.w2 + cup(a.w1, a.w1) + cup(a.w1, b.w1) + b.w2


def _prime_of(rng, bits):
    """A random prime of exactly the given bit length."""
    while True:
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if arith.is_prime(n):
            return n


def test_delta2_at_the_invariants_places_matches_the_cup_route():
    """delta2 reads its cup at the hasse_local keys of both forms; the old
    route factored w1(q) and -w1(q') again through cup.  Seeded pairs: random
    Gram matrices, and transported diagonals whose entries carry primes of
    30 to 34 bits."""
    rng = random.Random(3803)
    big = 0  # pairs whose delta2 holds a prime of 30 bits or more
    for i in range(120):
        n = rng.randint(1, 5)
        if i % 2:
            q1, q2 = (random_nondegenerate_symmetric(rng, n, 30) for _ in range(2))
        else:
            pair = []
            for _ in range(2):
                entries = [rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(n)]
                for j in rng.sample(range(n), min(n, 2)):
                    entries[j] *= _prime_of(rng, rng.randint(30, 34))
                pair.append(congruent_form(diagonal_form(entries), random_unimodular(rng, n)))
            q1, q2 = pair
        a, b = invariants(q1), invariants(q2)
        delta2 = delta_comparison(q1, q2).delta2
        assert delta2 == a.w2 + b.w2 + cup(a.w1, MINUS_ONE * b.w1), (q1, q2)
        big += any(v != INF and v.prime >> 29 for v in delta2.support)
    assert big >= 20


def test_delta_request_factors_each_support_once(monkeypatch):
    """A delta request factors the support of each form once, in invariants,
    and nothing else: delta2's cup reads the places the invariants hold."""
    from hassewitt import cli

    calls = []
    real = arith.factor
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or real(n))
    for omega, eta in (("1,0;0,1", "-1,0;0,3"), ("2,1;1,5", "7,0;0,-11"), ("1/3,0;0,3", "-5,2;2,1"),
                       ("3,0,0;0,-1,0;0,0,2147483647", "1,1,0;1,-6,0;0,0,-2147483659")):
        supports = [cli.parse_gram(omega)._support, cli.parse_gram(eta)._support]
        calls.clear()
        cli.execute("delta", {"gram_omega": omega, "gram_eta": eta})
        assert calls == supports, (omega, eta)


def test_jehanne_proves_p_prime_once(monkeypatch):
    from hassewitt import arith

    p = 1000003
    # the 1^2,1^2 branch also takes a Hilbert symbol at p
    expected = ((-1) ** ((p - 1) // 2) * _symbol(5 * p, p), 1)
    calls = []
    real = arith.is_prime

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    assert jehanne_local(p, "1^2,1^2", 5 * p) == expected
    assert calls == [p]
    calls.clear()
    assert jehanne_local(p, "1^4", 5 * p) == (-1, -1)
    assert calls == [p]
