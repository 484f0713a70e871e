import random
from fractions import Fraction

import pytest

from hassewitt.arith import factor
from hassewitt.cohomology import INF, CohClass2, Place, SquareClass, cup, localize
from hassewitt.errors import DomainError
from hassewitt.forms import diagonal_form, invariants, standard_form
from hassewitt.numberfield import (
    EtaleAlgebra,
    Poly,
    discriminant,
    factor_pattern_mod_p,
    real_signature,
    trace_gram,
)
from hassewitt.obstructions import (
    CharacterSum,
    DecompositionType,
    delta_comparison,
    jehanne_local,
    lifting_decisions,
    real_place_sp2,
    real_place_sw2,
    sp2_permutation,
    sw2_character_sum,
    sw2_permutation,
)

from oracles import poly_mul, random_nondegenerate_symmetric

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
    assert real_signature(F4) == (4, 0)
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
    assert tuple(report.assumptions)  # quartic hypotheses are recorded


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
        places.update(Place.finite(q) for q, _ in factor(report.field_disc.rep).factors)
        assert set(report.local_table) == places, f


def test_lifting_decisions_requires_quartic():
    with pytest.raises(DomainError):
        lifting_decisions(EtaleAlgebra(Poly([-2, 0, 1])))


def test_jehanne_table_golden():
    assert jehanne_local(283, DecompositionType("1^2,1,1"), -283) == (-1, -1)
    assert jehanne_local(5, DecompositionType("2^2"), -275) == (-1, 1)
    assert jehanne_local(7, DecompositionType("unramified"), -283) == (1, 1)


def test_jehanne_table_cases():
    # p = 7: (p^2-1)/8 = 6 even, (p-1)/2 = 3 odd, (p+1)/2 = 4 even
    assert jehanne_local(7, DecompositionType("1^2,1,1"), -283) == (1, 1)
    assert jehanne_local(7, DecompositionType("1^3,1"), -283) == (1, 1)
    assert jehanne_local(7, DecompositionType("1^2,2"), -283) == (-1, 1)
    assert jehanne_local(7, DecompositionType("1^4"), -283) == (-1, 1)
    assert jehanne_local(7, DecompositionType("2^2"), -283) == (1, 1)
    # p = 5: (p^2-1)/8 = 3 odd, (p-1)/2 = 2 even, (p+1)/2 = 3 odd
    assert jehanne_local(5, DecompositionType("1^2,1,1"), -275) == (-1, -1)
    assert jehanne_local(5, DecompositionType("1^2,2"), -275) == (1, -1)
    assert jehanne_local(5, DecompositionType("1^4"), -275) == (1, -1)
    # the doubly ramified case picks up a symbol (d_F, p)_p
    assert jehanne_local(5, DecompositionType("1^2,1^2"), -275) == (
        1 * _symbol(-275, 5),
        1,
    )


def _symbol(a, p):
    from hassewitt.cohomology import hilbert_symbol

    return hilbert_symbol(a, p, Place.finite(p))


def test_jehanne_rejects_two_and_composites():
    with pytest.raises(DomainError):
        jehanne_local(2, DecompositionType("1^4"), -283)
    with pytest.raises(DomainError, match="9 must be an odd prime"):
        jehanne_local(9, DecompositionType("1^4"), -283)
    with pytest.raises(DomainError, match="1000009 must be an odd prime"):
        jehanne_local(1000009, DecompositionType("1^2,1^2"), 5)  # 293 * 3413
    with pytest.raises(DomainError):
        DecompositionType("1^5")


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
        assert jehanne_local(p, DecompositionType(type_name), d_field) == direct, (p, type_name)


def _symbol_pair(d_field, p):
    from hassewitt.cohomology import hilbert_symbol

    return hilbert_symbol(2, d_field, Place.finite(p))


def test_character_sum():
    assert sw2_character_sum(CharacterSum([1, 7])).is_zero
    assert sw2_character_sum(CharacterSum([-1, -1])) == places(2, "inf")
    for a in (5, -6, 13):
        assert sw2_character_sum(CharacterSum([a, a])) == cup(a, -1)
    with pytest.raises(DomainError):
        CharacterSum([])


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
        assert sw2_permutation(alg) == sw2_character_sum(CharacterSum(chars)), vals


def test_real_place():
    assert real_place_sw2(0) == 0
    assert real_place_sw2(2) == 1
    assert real_place_sw2(4) == 0
    assert real_place_sp2() == 0
    for b in range(13):
        copies = CharacterSum([-1] * b) if b else None
        expected = (b * (b - 1) // 2) % 2
        assert real_place_sw2(b) == expected
        if copies is not None:
            assert localize(sw2_character_sum(copies), INF) == expected
    with pytest.raises(DomainError):
        real_place_sw2(-1)


def test_quartic_trace_form_real_place():
    # the trace form is locally nontrivial at the real place exactly for
    # totally imaginary quartics: C(r2, 2) odd iff r2 = 2
    for alg, r2, expect in ((F1, 1, 0), (F4, 0, 0)):
        assert real_signature(alg)[1] == r2
        assert localize(invariants(trace_gram(alg)).w2, INF) == expect
    imag = EtaleAlgebra(Poly([1, 0, 0, 0, 1]))  # x^4 + 1, totally imaginary
    assert real_signature(imag) == (0, 2)
    assert localize(invariants(trace_gram(imag)).w2, INF) == 1


def test_delta_comparison_degenerate():
    q = diagonal_form([3, -5, 7])
    pair = delta_comparison(q, q)
    assert pair.delta1.is_trivial
    assert pair.delta2.is_zero


def test_delta_comparison_standard_vs_trace():
    pair = delta_comparison(standard_form(4), trace_gram(F1))
    assert pair.delta1 == SquareClass(-283)
    assert pair.delta2 == places(2, 283)


def test_delta_comparison_twisted_plane():
    a = -5
    pair = delta_comparison(standard_form(2), diagonal_form([2, 2 * a]))
    assert pair.delta1 == SquareClass(a)
    assert pair.delta2 == cup(2, a)


def test_delta_comparison_rank_mismatch():
    with pytest.raises(DomainError):
        delta_comparison(standard_form(2), standard_form(3))


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
    assert jehanne_local(p, DecompositionType("1^2,1^2"), 5 * p) == expected
    assert calls == [p]
    calls.clear()
    assert jehanne_local(p, DecompositionType("1^4"), 5 * p) == (-1, -1)
    assert calls == [p]
