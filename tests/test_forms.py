import random
import sys
from fractions import Fraction
from math import prod

import pytest

from hassewitt import arith, cohomology
from hassewitt.cli import parse_gram
from hassewitt.cohomology import INF, Place, cup, cup_sum, hilbert_symbol, localize
from hassewitt.errors import DomainError
from hassewitt.forms import FormInvariants, QuadraticForm, diagonalize, invariants, isometric

from oracles import (
    congruent_form,
    diagonal_form,
    orthogonal_sum,
    random_nondegenerate_symmetric,
    random_unimodular,
)


def test_constructor_validation():
    with pytest.raises(DomainError):
        QuadraticForm([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(DomainError):
        QuadraticForm([[1, 1], [1, 1]])  # degenerate
    with pytest.raises(DomainError):
        QuadraticForm([[1, 0]])  # not square
    with pytest.raises(DomainError):
        QuadraticForm([])


def test_diagonalize_examples():
    a = Fraction(-3)
    d = diagonalize(diagonal_form([2, 2 * a]))
    assert d == (Fraction(2), Fraction(-6))

    hyper = QuadraticForm([[0, 1], [1, 0]])
    dh = diagonalize(hyper)
    assert all(e != 0 for e in dh)
    assert isometric(hyper, diagonal_form([1, -1]))
    assert isometric(hyper, diagonal_form(dh))

    assert diagonalize(diagonal_form([1, 1, 1])) == (1, 1, 1)


def test_diagonalize_zero_diagonal_block():
    # all-zero diagonal with off-diagonal couplings
    q = QuadraticForm([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    d = diagonalize(q)
    assert len(d) == 3
    assert isometric(q, diagonal_form(d))


# Pivots of the elimination as released before the integer kernel, which
# ran the same pivot choice and e_i <- e_i +- e_j repair in Fraction
# arithmetic, with the determinant of each Gram matrix.
PINNED_PIVOTS = [
    ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], ("2", "-1/2", "-12"), 12),
    ([[0, "1/2", "1/3"], ["1/2", "2/3", "-1/4"], ["1/3", "-1/4", 0]], ("5/3", "-3/20", "17/27"), Fraction(-17, 108)),
    ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, "3/2"], [0, 0, "3/2", 0]], ("2", "-1/2", "3", "-3/4"), Fraction(9, 4)),
    ([["1/3", 0], [0, 3]], ("1/3", "3"), 1),
    ([[2, 1, 0], [1, 0, 1], [0, 1, 0]], ("2", "-1/2", "2"), -2),
    ([[0, -1], [-1, 2]], ("4", "-1/4"), -1),  # the repair takes e_1 - e_2
    ([[0, 1], [1, -2]], ("-4", "1/4"), -1),
]


@pytest.mark.parametrize("rows, pivots, det", PINNED_PIVOTS)
def test_diagonalize_pinned_pivots(rows, pivots, det):
    q = QuadraticForm([[Fraction(x) for x in row] for row in rows])
    d = diagonalize(q)
    assert d == tuple(Fraction(x) for x in pivots)
    assert prod(d) == det == q.det


def test_invariants_standard_form():
    for n in (1, 2, 5, 8):
        inv = invariants(diagonal_form([1] * n))
        assert inv.rank == n
        assert inv.signature == (n, 0)
        assert inv.w1.is_trivial
        assert inv.w2.is_zero
        assert all(s == 1 for s in inv.hasse_local.values())


def test_invariants_cubic_surface_form():
    inv = invariants(diagonal_form([1, -1, -1, -1, -1, -1, -1]))
    assert inv.w1.is_trivial
    assert inv.w2.to_json() == [2, "inf"]
    assert inv.signature == (1, 6)


def test_invariants_twisted_plane():
    inv = invariants(diagonal_form([2, -2]))
    assert inv.w1.rep == -1
    assert inv.w2.is_zero


def test_invariants_congruence_independence_sample():
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randint(1, 5)
        q = random_nondegenerate_symmetric(rng, n, 30)
        p = random_unimodular(rng, n)
        i1, i2 = invariants(q), invariants(congruent_form(q, p))
        assert i1 == i2
        assert i1.to_json() == i2.to_json()


def test_invariants_see_denominator_primes():
    # det = 1, yet the form ramifies at 3: the places come from L * det
    inv = invariants(QuadraticForm([[Fraction(1, 3), 0], [0, 3]]))
    assert inv.w1.is_trivial
    assert inv.w2.to_json() == [2, 3]


def test_hasse_product_formula():
    rng = random.Random(15)
    for _ in range(40):
        q = random_nondegenerate_symmetric(rng, rng.randint(2, 5), 40)
        inv = invariants(q)
        finite_product = 1
        for s in inv.hasse_local.values():
            finite_product *= s
        # the infinite Hasse unit from the signature: C(s, 2) copies of (-1,-1)
        neg = inv.signature[1]
        infinite = -1 if (neg * (neg - 1) // 2) % 2 else 1
        assert finite_product * infinite == 1


def test_w2_localization_matches_hasse_product():
    # membership of v in w2 equals the product of local symbols over pairs
    rng = random.Random(99)
    for _ in range(30):
        q = random_nondegenerate_symmetric(rng, rng.randint(2, 5), 25)
        diag = diagonalize(q)
        inv = invariants(q)
        for v, s in inv.hasse_local.items():
            assert (-1) ** localize(inv.w2, v) == s
        # and independently at the infinite place
        prod_inf = 1
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                prod_inf *= hilbert_symbol(diag[i], diag[j], INF)
        assert (-1) ** localize(inv.w2, INF) == prod_inf


def test_isometric_examples():
    assert not isometric(diagonal_form([1, 1]), diagonal_form([1, -1]))
    assert isometric(diagonal_form([1, 1]), diagonal_form([2, 2]))
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(1, 5)
        q = random_nondegenerate_symmetric(rng, n, 20)
        p = random_unimodular(rng, n)
        assert isometric(q, congruent_form(q, p))


def test_isometric_distinguishes_hasse():
    # <1, 1> and <3, 3> have equal rank, signature, disc, but differ at 3
    q1 = diagonal_form([1, 1])
    q2 = diagonal_form([3, 3])
    assert invariants(q1).w1 == invariants(q2).w1
    assert not isometric(q1, q2)


def test_whitney_sum_formulas():
    rng = random.Random(8)
    for _ in range(40):
        q1 = random_nondegenerate_symmetric(rng, rng.randint(1, 4), 20)
        q2 = random_nondegenerate_symmetric(rng, rng.randint(1, 4), 20)
        i1, i2 = invariants(q1), invariants(q2)
        isum = invariants(orthogonal_sum(q1, q2))
        assert isum.w1 == i1.w1 * i2.w1
        assert isum.w2 == i1.w2 + i2.w2 + cup(i1.w1, i2.w1)


def test_form_invariants_json():
    inv = invariants(diagonal_form([2, -6]))
    payload = inv.to_json()
    # w1 is the determinant's square class, stored once and reported as disc and w1
    assert FormInvariants._fields == ("rank", "signature", "w1", "w2", "hasse_local")
    assert list(payload) == ["rank", "signature", "disc", "w1", "w2", "hasse_local"]
    assert payload["rank"] == 2
    assert payload["signature"] == [1, 1]
    assert payload["disc"] == payload["w1"] == inv.w1.rep == -3
    assert payload["w2"] == [2, 3]
    assert set(payload["hasse_local"]) == {"2", "3"}


def test_form_identity_across_entry_types():
    h, t, s = Fraction(1, 2), Fraction(-2, 3), Fraction(7, 6)
    halves = [[h, t, 0], [t, 5, s], [0, s, Fraction(-3, 4)]]
    integral = [[2, 1, 0], [1, -3, 4], [0, 4, 5]]
    for rows, pinned in (
        (halves, "QuadraticForm([['1/2', '-2/3', '0'], ['-2/3', '5', '7/6'], ['0', '7/6', '-3/4']])"),
        (integral, "QuadraticForm([['2', '1', '0'], ['1', '-3', '4'], ['0', '4', '5']])"),
    ):
        spellings = [
            rows,
            [[Fraction(x) for x in row] for row in rows],
            [[str(x) for x in row] for row in rows],
            [[f"{2 * Fraction(x).numerator}/{2 * Fraction(x).denominator}" for x in row] for row in rows],
        ]
        qs = [QuadraticForm(r) for r in spellings] + [parse_gram(r) for r in spellings[2:]]
        first = qs[0]
        assert repr(first) == pinned
        assert first.gram == tuple(tuple(Fraction(x) for x in row) for row in rows)
        assert first.to_json() == [[int(x) if Fraction(x).denominator == 1 else str(x) for x in row] for row in rows]
        for q in qs:
            assert q == first and hash(q) == hash(first)
            assert (q.gram, q.to_json(), repr(q)) == (first.gram, first.to_json(), repr(first))
        assert QuadraticForm([[4 * x for x in row] for row in first.gram]) != first


def test_unchecked_places_come_from_factor(monkeypatch):
    """invariants and cup_sum build Places with no primality test, only for
    primes that factor() returned; once factor's cache is warm they run no
    primality test at all."""
    proved, built = set(), []
    real_factor, real_from_prime = arith.factor, Place.from_prime

    def recording_factor(n):
        fac = real_factor(n)
        proved.update(p for p, _ in fac)
        return fac

    def recording_from_prime(p):
        built.append(p)
        return real_from_prime(p)

    monkeypatch.setattr(arith, "factor", recording_factor)
    monkeypatch.setattr(Place, "from_prime", recording_from_prime)
    rng = random.Random(8)
    qs = [random_nondegenerate_symmetric(rng, rng.randint(1, 6), 40) for _ in range(60)]
    qs.append(diagonal_form([2**61 - 1, Fraction(3, 10007), -1, Fraction(-5, 9)]))
    for q in qs:
        cup_sum([invariants(q).w1, -3, Fraction(10, 7)])
    assert built and set(built) <= proved

    tests = []
    real_is_prime = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: tests.append(n) or real_is_prime(n))
    for q in qs:
        cup_sum([invariants(q).w1, -3, Fraction(10, 7)])
    assert tests == []


def test_invariants_call_the_symbol_kernel_once_per_place():
    # L = 6 and det = 11/2, so the places are 2, 3 (a denominator prime) and 11
    q = parse_gram("1/3,0,0;0,5,1;0,1,7/2")
    kernel_calls, names = [], set()

    def record(frame, event, arg):
        if event == "call":
            names.add(frame.f_code.co_name)
            if frame.f_code.co_name == "_hasse_exponent":
                kernel_calls.append((frame.f_locals["p"], id(frame.f_locals["xs"])))

    saved = sys.getprofile()
    sys.setprofile(record)
    try:
        inv = invariants(q)
    finally:
        sys.setprofile(saved)
    assert [p for p, _ in kernel_calls] == [2, 3, 11]
    assert len({xs for _, xs in kernel_calls}) == 1  # the pivot integers are formed once
    assert "_split" not in names
    assert inv.to_json() == invariants(diagonal_form([Fraction(1, 3), 5, Fraction(33, 10)])).to_json()


def test_invariants_take_at_most_one_residue_symbol_per_odd_place(monkeypatch):
    taken = []
    real = cohomology._jacobi
    monkeypatch.setattr(cohomology, "_jacobi", lambda a, n: taken.append(n) or real(a, n))
    inv = invariants(diagonal_form([3, 5, 15, 7, 21, 2, -6, 10]))
    assert max(taken.count(p) for p in set(taken)) == 1
    assert set(taken) <= {3, 5, 7}
    assert inv.to_json()["hasse_local"] == {"2": 1, "3": -1, "5": -1}
    assert inv.w2.to_json() == [3, 5]


def test_hasse_local_keys_hold_two_w1_and_w2():
    """delta2, sp2 and the lifting table scan the hasse_local keys in place
    of factoring again, so those keys must hold 2, every odd prime of w1 and
    every finite place of w2, and never inf: checked on seeded Gram forms
    (random entries, and transported diagonals with denominators) and on
    seeded etale algebras with rational coefficients."""
    from hassewitt.numberfield import EtaleAlgebra, Poly

    rng = random.Random(4441)
    subjects = [random_nondegenerate_symmetric(rng, rng.randint(1, 6), 40) for _ in range(150)]
    for _ in range(100):
        n = rng.randint(1, 6)
        entries = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 400), rng.randint(1, 40)) for _ in range(n)]
        subjects.append(congruent_form(diagonal_form(entries), random_unimodular(rng, n)))
    while len(subjects) < 350:
        f = Poly([Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))] + [1])
        if f.is_squarefree():
            subjects.append(EtaleAlgebra(f))
    w2_only = 0  # subjects with a finite place of w2 that is neither 2 nor a prime of w1
    for subject in subjects:
        inv = invariants(subject)
        keys = set(inv.hasse_local)
        w1_places = {Place.finite(p) for p, _ in arith.factor(inv.w1.rep)}
        assert INF not in keys, subject
        assert {Place.finite(2)} | w1_places | (inv.w2.support - {INF}) <= keys, subject
        w2_only += bool(inv.w2.support - {INF, Place.finite(2)} - w1_places)
    assert w2_only >= 40
