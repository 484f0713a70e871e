import random
import sys
from fractions import Fraction

import pytest

from hassewitt import numberfield
from hassewitt.arith import is_prime
from hassewitt.cohomology import SquareClass
from hassewitt.errors import DomainError, InternalError
from hassewitt.forms import invariants, isometric, orthogonal_sum
from hassewitt.numberfield import (
    EtaleAlgebra,
    Poly,
    count_real_roots,
    discriminant,
    factor_pattern_mod_p,
    power_sums,
    real_signature,
    resultant,
    trace_form_report,
    trace_gram,
)

from oracles import (
    companion_power_traces,
    naive_count_real_roots,
    naive_distinct_degree,
    naive_is_prime,
    poly_gcd,
    poly_mul,
    sylvester_resultant,
)

X4_X_1 = Poly([-1, 1, 0, 0, 1])            # x^4 + x - 1
X4_X3_2X_1 = Poly([-1, -2, 0, 1, 1])       # x^4 + x^3 - 2x - 1
X4_2X2_4X_1 = Poly([-1, -4, -2, 0, 1])     # x^4 - 2x^2 - 4x - 1


def test_poly_basics():
    f = Poly([1, 0, 1])
    assert f.degree == 2
    assert f.derivative().coeffs == (Fraction(0), Fraction(2))
    assert Poly([0, 0]).is_zero


def test_resultant_degree_one():
    # Sylvester determinant of (x-1, x-2) is [[1,-1],[1,-2]] = -1
    f, g = Poly([-1, 1]), Poly([-2, 1])
    assert sylvester_resultant(f, g) == -1
    assert resultant(f, g) == -1


def test_resultant_examples():
    assert resultant(X4_X_1, Poly([1])) == 1
    assert resultant(Poly([1, 0, 1]), Poly([0, 2])) == 4
    assert sylvester_resultant(Poly([1, 0, 1]), Poly([0, 2])) == 4


def test_resultant_matches_sylvester():
    rng = random.Random(21)
    for _ in range(250):
        f = _random_poly(rng, rng.randrange(0, 7))
        g = _random_poly(rng, rng.randrange(0, 7))
        assert resultant(f, g) == sylvester_resultant(f, g), (f, g)


def test_resultant_zero_rejected():
    with pytest.raises(DomainError):
        resultant(Poly([]), Poly([1, 1]))


def _random_poly(rng, degree):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
    lead = Fraction(0)
    while lead == 0:
        lead = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(coeffs + [lead])


def test_is_squarefree_matches_gcd_criterion():
    # the Euclidean criterion over Q: gcd(f, f') is a constant
    def by_gcd(f):
        cs = list(f.coeffs)
        return not f.is_zero and len(poly_gcd(cs, [i * c for i, c in enumerate(cs)][1:])) <= 1

    rng = random.Random(22)
    cases = [Poly([]), Poly([0]), Poly([3]), Poly([Fraction(-2, 7)])]
    for _ in range(150):
        f = _random_poly(rng, rng.randrange(0, 5))
        g = _random_poly(rng, rng.randrange(1, 4))
        fc, gc = f.coeffs, g.coeffs
        cases += [f, Poly(poly_mul(fc, gc)), Poly(poly_mul(fc, gc, gc)),
                  Poly([Fraction(3, 5) * c for c in poly_mul(gc, gc)])]
    for r in range(-3, 4):
        linear = [-r, 1]
        cases += [Poly(poly_mul(linear, linear, [1, 0, 1])), Poly(poly_mul(linear, [r + 1, 1], [2, 0, 1]))]
    assert any(f.is_squarefree() for f in cases)
    assert any(not f.is_squarefree() and f.degree > 0 for f in cases)
    for f in cases:
        assert f.is_squarefree() == by_gcd(f), f


def test_discriminant_quartic_fields():
    assert discriminant(X4_X_1) == -283
    assert naive_is_prime(283)
    assert discriminant(X4_X3_2X_1) == -275  # = -(5^2) * 11
    assert discriminant(X4_2X2_4X_1) == -2816  # = -(2^8) * 11


def test_discriminant_quadratic():
    for a in (Fraction(5), Fraction(-1), Fraction(7, 3)):
        assert discriminant(Poly([-a, 0, 1])) == 4 * a
    assert discriminant(Poly([3, 1])) == 1


def test_discriminant_multiplicative():
    rng = random.Random(77)
    for _ in range(40):
        f = _random_monic(rng, rng.randint(1, 4))
        g = _random_monic(rng, rng.randint(1, 4))
        lhs = discriminant(Poly(poly_mul(f.coeffs, g.coeffs)))
        rhs = discriminant(f) * discriminant(g) * resultant(f, g) ** 2
        assert lhs == rhs


def _random_monic(rng, degree):
    return Poly([Fraction(rng.randint(-6, 6)) for _ in range(degree)] + [Fraction(1)])


def test_discriminant_requires_monic():
    with pytest.raises(DomainError):
        discriminant(Poly([1, 2]))


def test_etale_validation():
    with pytest.raises(DomainError):
        EtaleAlgebra(Poly([1]))  # degree 0
    with pytest.raises(DomainError):
        EtaleAlgebra(Poly([0, 0, 1]))  # x^2, not squarefree
    with pytest.raises(DomainError):
        EtaleAlgebra(Poly([-1, 0, 2]))  # not monic


def test_trace_gram_quadratic():
    a = Fraction(5)
    g = trace_gram(EtaleAlgebra(Poly([-a, 0, 1])))
    assert g.gram == ((2, 0), (0, 2 * a))
    g = trace_gram(EtaleAlgebra(Poly([1, 0, 1])))
    assert g.gram == ((2, 0), (0, -2))


def test_trace_gram_corner():
    for f in (X4_X_1, Poly([2, -7, 0, 1]), Poly([-3, 1])):
        alg = EtaleAlgebra(f)
        assert trace_gram(alg).gram[0][0] == f.degree


def test_power_sums_match_companion_traces():
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        d = rng.randint(1, 8)
        f = _random_monic(rng, d)
        if not f.is_squarefree():
            continue
        checked += 1
        assert power_sums(f, 2 * d - 2) == companion_power_traces(f, 2 * d - 2)


def test_real_signature_examples():
    assert real_signature(EtaleAlgebra(X4_X_1)) == (2, 1)
    assert real_signature(EtaleAlgebra(X4_2X2_4X_1)) == (2, 1)
    assert real_signature(EtaleAlgebra(Poly([1, 0, 1]))) == (0, 1)
    assert count_real_roots(Poly([-2, 0, 1])) == 2
    assert count_real_roots(Poly([2, 0, 1])) == 0


def test_repeated_roots_rejected():
    x = [0, 1]
    for f in (Poly(poly_mul([-1, 1], [-1, 1], [2, 1])), Poly(poly_mul(x, x, [1, 0, 1]))):
        for g in (f, Poly([Fraction(-3, 2) * c for c in f.coeffs])):
            with pytest.raises(DomainError):
                count_real_roots(g)
        with pytest.raises(DomainError):
            EtaleAlgebra(f)


def _shift(f, t):
    """f(x - t) for a coefficient list f, by Horner's rule in the shifted variable."""
    out = [Fraction(0)]
    for c in reversed(f):
        out = poly_mul(out, [-t, 1])
        out[0] += c
    return out


def test_real_root_count_by_construction():
    rng = random.Random(141)
    for _ in range(120):
        roots = rng.sample(range(-12, 13), rng.randint(0, 4))
        quads = rng.sample([(b, c) for b in range(-4, 5) for c in range(1, 8) if b * b < 4 * c], rng.randint(0, 2))
        if not roots and not quads:
            continue
        f = poly_mul(*[[-r, 1] for r in roots], *[[c, b, 1] for b, c in quads])
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        s = Fraction(-rng.randint(1, 9), rng.randint(1, 4))
        scaled = Poly([s * c for c in _shift(f, t)])
        assert count_real_roots(scaled) == len(roots), (roots, quads, t)
    for n in range(1, 9):
        for a in (Fraction(3), Fraction(-3), Fraction(5, 7), Fraction(-2, 9)):
            expected = 1 if n % 2 else (2 if a > 0 else 0)
            binomial = Poly([-a] + [0] * (n - 1) + [1])
            assert count_real_roots(binomial) == expected, (n, a)
            assert count_real_roots(Poly([-c for c in binomial.coeffs])) == expected, (n, a)


def test_real_root_count_matches_sturm_chain():
    # sparse inputs make the remainder sequence skip degrees (delta >= 2)
    x5 = Poly([1, -1, 0, 0, 0, 1])  # x^5 - x + 1: members of degree 5, 4, 1, 0, so delta = 3
    cases = [x5, Poly([-2 * c for c in x5.coeffs]), Poly([-1, 0, 0, 0, 0, 0, 0, 1]), Poly([1, 0, -3, 0, 0, 0, 0, 0, 1])]
    rng = random.Random(142)
    while len(cases) < 400:
        d = rng.randint(1, 9)
        if rng.random() < 0.4:
            coeffs = [Fraction(rng.randint(-5, 5)) if rng.random() < 0.3 else Fraction(0) for _ in range(d)]
            f = Poly(coeffs + [Fraction(rng.choice([-3, -1, 1, 2]))])
        else:
            f = _random_poly(rng, d)
        if f.is_squarefree():
            cases.append(f)
    for f in cases:
        assert count_real_roots(f) == naive_count_real_roots(f), f


def _count_calls(monkeypatch, name, counts):
    """Count calls of numberfield.<name> through every hassewitt module
    that binds it."""
    real = getattr(numberfield, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("hassewitt") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)


def test_one_remainder_sequence_per_request(monkeypatch):
    from hassewitt import cli

    counts = {}
    for name in ("_subresultant_res", "discriminant", "count_real_roots", "resultant"):
        _count_calls(monkeypatch, name, counts)
    for command, poly in (("tracefield", "-1,1,0,0,1"), ("tracefield", "1/2,0,-3,1"),
                          ("embedding", "-1,-2,0,1,1"), ("embedding", "-2,0,-10,0,1")):
        counts.clear()
        cli.execute(command, {"poly": poly})
        assert counts == {"_subresultant_res": 1}, (command, poly, counts)


def test_signature_matches_trace_form_diagonalization():
    rng = random.Random(131)
    checked = 0
    while checked < 30:
        f = _random_monic(rng, rng.randint(1, 6))
        if not f.is_squarefree():
            continue
        checked += 1
        alg = EtaleAlgebra(f)
        r1, r2 = real_signature(alg)
        assert invariants(trace_gram(alg)).signature == (r1 + r2, r2)


def test_trace_form_report_fields():
    report = trace_form_report(EtaleAlgebra(X4_X_1))
    assert report.disc_field == SquareClass(-283)
    assert report.signature == (3, 1)
    assert report.form_invariants.w1 == SquareClass(-283)
    assert report.form_invariants.w2.to_json() == [2, 283]


def test_trace_form_disc_identity():
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        f = _random_monic(rng, rng.randint(1, 6))
        if not f.is_squarefree():
            continue
        checked += 1
        alg = EtaleAlgebra(f)
        assert invariants(trace_gram(alg)).w1 == SquareClass(discriminant(f))


def test_trace_form_of_product_is_orthogonal_sum():
    rng = random.Random(61)
    checked = 0
    while checked < 25:
        f = _random_monic(rng, rng.randint(1, 3))
        g = _random_monic(rng, rng.randint(1, 3))
        fg = Poly(poly_mul(f.coeffs, g.coeffs))
        if not (f.is_squarefree() and g.is_squarefree() and fg.is_squarefree()):
            continue
        checked += 1
        combined = trace_gram(EtaleAlgebra(fg))
        split = orthogonal_sum(trace_gram(EtaleAlgebra(f)), trace_gram(EtaleAlgebra(g)))
        assert isometric(combined, split)


def test_factor_pattern_examples():
    gauss = EtaleAlgebra(Poly([1, 0, 1]))
    assert factor_pattern_mod_p(gauss, 5) == ((1, 1), (1, 1))
    assert factor_pattern_mod_p(gauss, 3) == ((2, 1),)
    pattern = factor_pattern_mod_p(EtaleAlgebra(X4_X_1), 7)
    assert sum(d * m for d, m in pattern) == 4


def test_factor_pattern_ramified():
    assert factor_pattern_mod_p(EtaleAlgebra(X4_X_1), 283) == ((1, 1), (1, 1), (1, 2))
    assert factor_pattern_mod_p(EtaleAlgebra(X4_X3_2X_1), 5) == ((2, 2),)
    assert factor_pattern_mod_p(EtaleAlgebra(X4_X3_2X_1), 11) == ((1, 2), (2, 1))
    assert factor_pattern_mod_p(EtaleAlgebra(X4_2X2_4X_1), 11) == ((1, 2), (2, 1))


def test_factor_pattern_against_brute_force():
    # exhaustive trial-division factorization over tiny fields as an oracle
    from oracles import brute_factor_pattern

    rng = random.Random(91)
    for p in (2, 3, 5):
        checked = 0
        while checked < 15:
            f = _random_monic(rng, rng.randint(2, 4))
            if not f.is_squarefree():
                continue
            checked += 1
            expected = brute_factor_pattern([int(c) for c in f.coeffs], p)
            assert factor_pattern_mod_p(EtaleAlgebra(f), p) == expected, (f, p)


def test_factor_pattern_of_rational_coefficients():
    """A denominator prime to p is inverted mod p: the pattern is that of
    the coefficients num * den**-1 mod p."""
    from oracles import brute_factor_pattern

    rng = random.Random(94)
    for p in (3, 5):
        checked = 0
        while checked < 15:
            head = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4, 8, 11, 13])) for _ in range(rng.randint(1, 3))]
            f = Poly(head + [1])
            if f.integer_coeffs()[0] == 1 or not f.is_squarefree():
                continue
            checked += 1
            residues = [c.numerator * pow(c.denominator, -1, p) for c in f.coeffs]
            assert factor_pattern_mod_p(EtaleAlgebra(f), p) == brute_factor_pattern(residues, p), (f, p)


def test_factor_pattern_degree_conservation():
    rng = random.Random(92)
    for p in (2, 3, 5, 7, 97):
        checked = 0
        while checked < 10:
            f = _random_monic(rng, rng.randint(2, 6))
            if not f.is_squarefree():
                continue
            checked += 1
            pattern = factor_pattern_mod_p(EtaleAlgebra(f), p)
            assert sum(d * m for d, m in pattern) == f.degree
            for d, _ in pattern:
                assert 1 <= d <= f.degree


def test_factor_pattern_wild_pth_powers():
    # reductions with vanishing derivative: f mod p is a p-th power
    # x^4 + x^2 + 1 = (x^2+x+1)^2 mod 2
    alg = EtaleAlgebra(Poly([1, 0, 1, 0, 1]))
    assert factor_pattern_mod_p(alg, 2) == ((2, 2),)
    # x^9 - x^3 + 3x + 1 = (x^3 - x + 1)^3 mod 3 by Frobenius
    alg = EtaleAlgebra(Poly([1, 3, 0, -1, 0, 0, 0, 0, 0, 1]))
    assert factor_pattern_mod_p(alg, 3) == ((3, 3),)


def test_factor_pattern_mod2_full_split():
    # x^2 + x = x(x+1) mod 2: two linear factors
    alg = EtaleAlgebra(Poly([0, 1, 1]))
    assert factor_pattern_mod_p(alg, 2) == ((1, 1), (1, 1))
    # x^2 + x + 1 irreducible mod 2
    assert factor_pattern_mod_p(EtaleAlgebra(Poly([1, 1, 1])), 2) == ((2, 1),)
    # x^4 + x^2 = x^2 (x+1)^2 mod 2 needs the wild squarefree path
    alg = EtaleAlgebra(Poly([0, 2, 1, 0, 1]))  # x^4 + x^2 + 2x, squarefree over Q
    assert factor_pattern_mod_p(alg, 2) == ((1, 2), (1, 2))


def test_factor_pattern_rejects_bad_inputs():
    alg = EtaleAlgebra(Poly([Fraction(1, 5), 0, 1]))
    with pytest.raises(DomainError):
        factor_pattern_mod_p(alg, 5)
    with pytest.raises(DomainError):
        factor_pattern_mod_p(EtaleAlgebra(Poly([1, 0, 1])), 6)


def test_distinct_degree_matches_naive():
    rng = random.Random(93)
    for p in (2, 3, 5, 7, 101, 65537, 2**61 - 1):
        checked = 0
        while checked < 30:
            f = [rng.randrange(p) for _ in range(rng.randint(1, 10))] + [1]
            for part, _ in numberfield._fp_squarefree_parts(f, p):
                checked += 1
                assert numberfield._fp_distinct_degree(part, p) == naive_distinct_degree(part, p), (part, p)


def _prime_1_mod_840(low):
    p = low // 840 * 840 + 1
    while p < low or not is_prime(p):
        p += 840
    return p


P61 = _prime_1_mod_840(2**60)  # 61 bits; F_p contains the 840th roots of unity


def _irreducible_binomial(rng, d, p, used):
    """x^d - a irreducible over F_p with p = 1 mod 840: a is no r-th power
    for any prime r dividing d (Lidl-Niederreiter, Theorem 3.75)."""
    primes = [r for r in (2, 3, 5, 7) if d % r == 0]
    while True:
        a = rng.randint(2, 10**6)
        if a not in used and all(pow(a, (p - 1) // r, p) != 1 for r in primes):
            used.add(a)
            return [-a] + [0] * (d - 1) + [1]


def _constructed(rng, degrees, squared_linear=False):
    """(f, pattern mod P61) for f a product of x - r (degree 1) and
    irreducible x^d - a, times (x - r)(x - r - p) when squared_linear."""
    p = P61
    used: set = set()
    f = [1]
    pattern = []
    if squared_linear:
        r = rng.randint(-50, 50)
        f = poly_mul([-r, 1], [-r - p, 1])
        used.add(r)
        pattern.append((1, 2))
    for d in degrees:
        if d == 1:
            r = rng.choice([r for r in range(-10**6, 10**6, 7919) if r not in used])
            used.add(r)
            f = poly_mul(f, [-r, 1])
        else:
            f = poly_mul(f, _irreducible_binomial(rng, d, p, used))
        pattern.append((d, 1))
    return Poly(f), tuple(sorted(pattern))


def test_factor_pattern_by_construction():
    assert P61.bit_length() == 61 and P61 % 840 == 1
    rng = random.Random(94)
    shapes = [
        ((4, 4), False),
        ((1, 1, 2, 2), False),
        ((3,), True),
        ((2, 2), True),
        ((8,), False),
        ((1, 7), False),
        ((2, 3, 3), False),
        ((5, 1, 1), True),
        ((6,), False),
    ]
    for degrees, squared_linear in shapes:
        for _ in range(3):
            f, expected = _constructed(rng, degrees, squared_linear)
            assert factor_pattern_mod_p(EtaleAlgebra(f), P61) == expected, (f, expected)


def test_frobenius_power_once_per_squarefree_part(monkeypatch):
    calls = []
    real = numberfield._fp_xpow

    def counted(e, g, p):
        calls.append(len(g) - 1)
        return real(e, g, p)

    monkeypatch.setattr(numberfield, "_fp_xpow", counted)
    rng = random.Random(95)
    p = P61
    a = 3 + P61 % 7  # any a != 0: x^2 - a and x^2 - a - p are coprime over Q
    square = poly_mul([-a, 0, 1], [-a - p, 0, 1])  # (x^2 - a)^2 mod p
    cases = [
        # one part of degree 5, one linear part squared: one x^p
        (_constructed(rng, (3, 2), squared_linear=True)[0], 1),
        # a cubic part and a quadratic part squared: two
        (Poly(poly_mul(_constructed(rng, (3,))[0].coeffs, square)), 2),
        # only linear parts: none
        (_constructed(rng, (1,), squared_linear=True)[0], 0),
    ]
    for f, expected in cases:
        calls.clear()
        factor_pattern_mod_p(EtaleAlgebra(f), p)
        fp = [int(c) % p for c in f.coeffs]
        parts = numberfield._fp_squarefree_parts(fp, p)
        assert len(calls) == expected == sum(1 for g, _ in parts if len(g) - 1 >= 2), (f, calls)


def test_poly_identity_across_entry_types():
    """Ints, Fractions, p/q strings, unreduced 2p/2q strings and trailing
    zeros give one canonical (c, c*f), through the constructor and through
    parse_poly: equal polys, equal hashes, the same coeffs, to_json and
    pinned repr, and equal algebras."""
    from hassewitt.cli import parse_poly

    rationals = [Fraction(1, 2), Fraction(-3, 4), 0, Fraction(5, 6), 1]
    integral = [-1, 1, 0, 0, 1]
    for coeffs, pinned, scaled in (
        (rationals, "Poly(1/2 + -3/4*x^1 + 5/6*x^3 + 1*x^4)", (12, [6, -9, 0, 10, 12])),
        (integral, "Poly(-1 + 1*x^1 + 1*x^4)", (1, [-1, 1, 0, 0, 1])),
    ):
        strings = [str(x) for x in coeffs]
        unreduced = [f"{2 * Fraction(x).numerator}/{2 * Fraction(x).denominator}" for x in coeffs]
        padded = strings + ["0", "0/7"]
        polys = [Poly(coeffs), Poly([Fraction(x) for x in coeffs]), Poly(coeffs + [0, Fraction(0)])]
        for spelling in (strings, unreduced, padded):
            polys += [Poly(spelling), parse_poly(spelling), parse_poly(",".join(spelling))]
        first = polys[0]
        assert repr(first) == pinned
        assert first.coeffs == tuple(Fraction(x) for x in coeffs)
        assert first.to_json() == [int(x) if Fraction(x).denominator == 1 else str(x) for x in coeffs]
        assert first.integer_coeffs() == scaled
        for f in polys:
            assert f == first and hash(f) == hash(first)
            assert (f.coeffs, f.to_json(), repr(f)) == (first.coeffs, first.to_json(), repr(first))
            assert EtaleAlgebra(f) == EtaleAlgebra(first)
            assert hash(EtaleAlgebra(f)) == hash(EtaleAlgebra(first))
        assert Poly(coeffs[:-1] + [2]) != first
    assert Poly([0, "0/3", Fraction(0)]) == Poly([]) and repr(Poly(["0"])) == "Poly(0)"


@pytest.mark.parametrize("command, poly", [
    ("tracefield", "-1,1,0,0,1"),
    ("tracefield", "1/2,-3/4,0,5/6,1"),
    ("tracefield", ["-7/4", "2/6", 1]),
    ("embedding", "-1,-2,0,1,1"),
    ("embedding", ["1/3", "2/5", 0, -1, 1]),
])
def test_request_path_builds_no_fraction(monkeypatch, command, poly):
    """tracefield and embedding parse, build the algebra, its trace Gram and
    the report in integers: Fraction.__new__ is never called."""
    from hassewitt import cli

    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    outputs, assumptions = cli.execute(command, {"poly": poly})
    cli.dump_report(cli.make_report(None, command, {"poly": poly}, outputs, assumptions))
    monkeypatch.undo()
    assert built == []


def test_trace_form_report_checks_det_against_disc():
    """The det(Gram) = disc f guard compares integer pairs by cross
    multiplication: an unreduced pair for the same disc passes, another
    disc raises."""
    for poly in (X4_X_1, Poly(["1/2", "-3/4", 0, "5/6", 1])):
        algebra = EtaleAlgebra(poly)
        num, den = algebra._disc
        want = trace_form_report(algebra)
        object.__setattr__(algebra, "_disc", (-6 * num, -6 * den))
        assert trace_form_report(algebra) == want
        object.__setattr__(algebra, "_disc", (num + den, den))
        with pytest.raises(InternalError, match="trace form discriminant mismatch"):
            trace_form_report(algebra)
