"""Acceptance suite.

One test per criterion; each prints a single pass line on success (visible
with `pytest -v -s tests/test_acceptance.py` or in the -v test listing).
All comparisons are exact; suites with a stated time budget assert it.
"""

import random
import time

from hassewitt.cli import execute
from hassewitt.cohomology import (
    INF,
    CohClass2,
    Place,
    SquareClass,
    cup,
    hilbert_symbol,
    localize,
)
from hassewitt.forms import invariants
from hassewitt.motives import (
    CompleteIntersectionSpec,
    betti_middle,
    betti_w_invariants,
    cubic_surface_refinement,
    euler_characteristic,
    hypersurface_w,
    tau_mod8,
)
from hassewitt.numberfield import EtaleAlgebra, Poly, power_sums, trace_gram
from hassewitt.obstructions import (
    delta_comparison,
    jehanne_local,
    real_place_sw2,
    sw2_character_sum,
    sw2_permutation,
)

from oracles import (
    companion_power_traces,
    congruent_form,
    hypersurface_chi_closed_form,
    poly_mul,
    random_nondegenerate_symmetric,
    random_unimodular,
)

GOLDEN_QUARTICS = {
    "-1,1,0,0,1": (False, True),
    "-1,-2,0,1,1": (False, False),
    "-1,-4,-2,0,1": (True, False),
}


def _ok(n, message):
    print(f"criterion {n:2d}: PASS - {message}")


def test_criterion_01_embedding_golden_examples():
    for poly, (lift, lift_delta) in GOLDEN_QUARTICS.items():
        start = time.monotonic()
        outputs, _ = execute("embedding", {"poly": poly})
        elapsed = time.monotonic() - start
        assert outputs["lift_solvable"] is lift, poly
        assert outputs["lift_delta_solvable"] is lift_delta, poly
        assert elapsed < 1.0, (poly, elapsed)
    _ok(1, "three quartic embedding decisions match, each under 1 s")


def test_criterion_02_local_pin_283():
    algebra = EtaleAlgebra(Poly([-1, 1, 0, 0, 1]))
    w2 = invariants(trace_gram(algebra)).w2
    p283 = Place.finite(283)
    assert (-1) ** localize(w2, p283) == -1
    assert hilbert_symbol(2, -283, p283) == -1
    assert w2 == cup(2, -283)
    _ok(2, "w2(trace) localizes to -1 at 283 and equals (2) cup (-283)")


def test_criterion_03_jehanne_cross_check():
    cases = [
        (283, "1^2,1,1", -283, Poly([-1, 1, 0, 0, 1])),
        (5, "2^2", -275, Poly([-1, -2, 0, 1, 1])),
    ]
    expected = {283: (-1, -1), 5: (-1, 1)}
    for p, type_name, disc, poly in cases:
        table_pair = jehanne_local(p, type_name, disc)
        assert table_pair == expected[p]
        w2 = invariants(trace_gram(EtaleAlgebra(poly))).w2
        direct_pair = (
            -1 if localize(w2, Place.finite(p)) else 1,
            hilbert_symbol(2, disc, Place.finite(p)),
        )
        assert table_pair == direct_pair, (p, table_pair, direct_pair)
    _ok(3, "local table equals directly computed trace-form pairs")


def test_criterion_04_product_formula_thousand():
    rng = random.Random(0xACCE9)
    start = time.monotonic()
    for _ in range(1000):
        a = rng.randint(1, 10**6) * rng.choice([1, -1])
        b = rng.randint(1, 10**6) * rng.choice([1, -1])
        support = cup(a, b).support
        assert len(support) % 2 == 0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, elapsed
    _ok(4, f"1000 random cup products have even support ({elapsed:.2f} s)")


def test_criterion_05_diagonalization_independence():
    rng = random.Random(0xD1A6)
    start = time.monotonic()
    for _ in range(500):
        n = rng.randint(1, 6)
        q = random_nondegenerate_symmetric(rng, n, 100)
        p = random_unimodular(rng, n)
        assert invariants(q) == invariants(congruent_form(q, p))
    elapsed = time.monotonic() - start
    _ok(5, f"500 congruence transports leave the invariants fixed ({elapsed:.2f} s)")


def test_criterion_06_trace_gram_oracle():
    rng = random.Random(0x7ACE)
    start = time.monotonic()
    done = 0
    while done < 200:
        d = rng.randint(1, 8)
        f = Poly([rng.randint(-8, 8) for _ in range(d)] + [1])
        if not f.is_squarefree():
            continue
        done += 1
        assert power_sums(f, 2 * d - 2) == companion_power_traces(f, 2 * d - 2)
    elapsed = time.monotonic() - start
    assert elapsed < 20.0, elapsed
    _ok(6, f"200 Newton power-sum vectors equal companion traces ({elapsed:.2f} s)")


def test_criterion_07_multiquadratic_cross_validation():
    from hassewitt.arith import squarefree_part

    rng = random.Random(0x5E44E)
    done = 0
    while done < 100:
        k = rng.choice([2, 3])
        vals = set()
        while len(vals) < k:
            vals.add(squarefree_part(rng.randint(2, 500) * rng.choice([1, -1])))
        poly = Poly(poly_mul(*[[-a, 0, 1] for a in sorted(vals)]))
        if not poly.is_squarefree():
            continue
        done += 1
        chars = []
        for a in sorted(vals):
            chars.extend([1, a])
        lhs = sw2_permutation(EtaleAlgebra(poly))
        rhs = sw2_character_sum(chars)
        assert lhs == rhs, vals
    _ok(7, "100 multiquadratic algebras satisfy the character addition formula")


def test_criterion_08_hypersurface_suite():
    start = time.monotonic()
    for n in (2, 4, 6, 8, 10):
        for d in range(1, 11):
            spec = CompleteIntersectionSpec(n, [d])
            assert euler_characteristic(spec) == hypersurface_chi_closed_form(n, d)
            assert hypersurface_w(n, d) == betti_w_invariants(spec)[2:]
    for n in (4, 8):
        w1, w2 = hypersurface_w(n, 2)
        assert w1.is_trivial and w2.is_zero
    for n in (2, 6, 10):
        w1, w2 = hypersurface_w(n, 2)
        assert w1 == SquareClass(-1) and w2.is_zero
    cubic = CompleteIntersectionSpec(2, [3])
    assert betti_middle(cubic) == 7
    assert cubic_surface_refinement() == -5
    assert tau_mod8(cubic) == 3  # consistent: -5 = 3 mod 8
    assert betti_w_invariants(cubic)[3] == CohClass2([Place.finite(2), INF])
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            chi = euler_characteristic(CompleteIntersectionSpec(2, [d1, d2]))
            assert chi == d1 * d2 * (d1**2 + d2**2 + d1 * d2 - 5 * (d1 + d2) + 10)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, elapsed
    _ok(8, f"hypersurface and surface-in-P4 suite is exact ({elapsed:.2f} s)")


def test_criterion_09_real_place_closed_form():
    from math import comb

    for b in range(13):
        assert real_place_sw2(b) == comb(b, 2) % 2
        if b:
            assert localize(sw2_character_sum([-1] * b), INF) == comb(b, 2) % 2
    _ok(9, "real-place sw2 equals C(b,2) mod 2 and matches character sums")


def test_criterion_10_delta_degenerate_and_composition():
    rng = random.Random(0xDE17A)
    for _ in range(100):
        n = rng.randint(1, 5)
        q = random_nondegenerate_symmetric(rng, n, 60)
        pair = delta_comparison(q, q)
        assert pair.delta1.is_trivial and pair.delta2.is_zero
    for _ in range(100):
        n = rng.randint(1, 4)
        q1 = random_nondegenerate_symmetric(rng, n, 25)
        q2 = random_nondegenerate_symmetric(rng, n, 25)
        q3 = random_nondegenerate_symmetric(rng, n, 25)
        d12 = delta_comparison(q1, q2)
        d23 = delta_comparison(q2, q3)
        d13 = delta_comparison(q1, q3)
        w1 = invariants(q1).w1
        w2 = invariants(q2).w1
        w3 = invariants(q3).w1
        assert d13.delta2 == d12.delta2 + d23.delta2 + cup(w1 * w2, w2 * w3)
    _ok(10, "delta comparison is trivial on (q, q) and composes on 100 triples")
