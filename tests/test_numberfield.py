import itertools
import random
import sys
import time
from fractions import Fraction
from math import prod

import pytest

from hassewitt import numberfield
from hassewitt.arith import is_prime
from hassewitt.cohomology import SquareClass
from hassewitt.errors import DomainError, InternalError
from hassewitt.forms import QuadraticForm, diagonalize, invariants, isometric
from hassewitt.numberfield import (
    EtaleAlgebra,
    Poly,
    count_real_roots,
    discriminant,
    factor_pattern_mod_p,
    power_sums,
    resultant,
    trace_form_report,
    trace_gram,
)

from oracles import (
    companion_power_traces,
    derivative,
    diagonal_form,
    fp_divmod,
    fp_gcd,
    fp_xpow,
    naive_count_real_roots,
    naive_distinct_degree,
    naive_is_prime,
    orthogonal_sum,
    poly_gcd,
    poly_mul,
    sylvester_resultant,
)

X4_X_1 = Poly([-1, 1, 0, 0, 1])            # x^4 + x - 1
X4_X3_2X_1 = Poly([-1, -2, 0, 1, 1])       # x^4 + x^3 - 2x - 1
X4_2X2_4X_1 = Poly([-1, -4, -2, 0, 1])     # x^4 - 2x^2 - 4x - 1


def _real_signature(algebra: EtaleAlgebra) -> tuple[int, int]:
    """(r1, r2): real roots and conjugate pairs of the defining polynomial."""
    return algebra.real_roots, (algebra.degree - algebra.real_roots) // 2


def test_poly_basics():
    f = Poly([1, 0, 1])
    assert f.degree == 2
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
    # a rational constant on either side gives c**deg of the other operand,
    # and two constants give 1
    c, e = Poly([Fraction(-3, 2)]), Poly([Fraction(7, 4)])
    for f, g, want in ((c, X4_X_1, Fraction(81, 16)), (X4_X_1, c, Fraction(81, 16)),
                       (c, Poly([0, Fraction(5, 3), 2]), Fraction(9, 4)), (Poly([0, 1]), e, Fraction(7, 4)),
                       (c, e, 1), (e, c, 1)):
        assert resultant(f, g) == sylvester_resultant(f, g) == want, (f, g)


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


def test_discriminant_and_power_sums_refusals():
    with pytest.raises(DomainError, match="^discriminant requires degree >= 1$"):
        discriminant(Poly([1]))
    with pytest.raises(DomainError, match="^power sums require a monic polynomial$"):
        power_sums(Poly([1, 2]), 3)
    with pytest.raises(DomainError, match="^power sums need upto >= 0, got -1$"):
        power_sums(Poly([-2, 0, 1]), -1)


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
    assert _real_signature(EtaleAlgebra(X4_X_1)) == (2, 1)
    assert _real_signature(EtaleAlgebra(X4_2X2_4X_1)) == (2, 1)
    assert _real_signature(EtaleAlgebra(Poly([1, 0, 1]))) == (0, 1)
    assert count_real_roots(Poly([-2, 0, 1])) == 2
    assert count_real_roots(Poly([2, 0, 1])) == 0


def test_real_roots_of_constants():
    # a nonzero constant has no root; the zero polynomial vanishes on all of R
    for c in (1, -3, Fraction(2, 7)):
        assert count_real_roots(Poly([c])) == 0
    for zero in (Poly([]), Poly([0, 0])):
        with pytest.raises(DomainError, match="^real root count requires a squarefree polynomial$"):
            count_real_roots(zero)


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
    for name in ("_subresultant_psc", "discriminant", "count_real_roots", "resultant"):
        _count_calls(monkeypatch, name, counts)
    for command, poly in (("tracefield", "-1,1,0,0,1"), ("tracefield", "1/2,0,-3,1"),
                          ("embedding", "-1,-2,0,1,1"), ("embedding", "-2,0,-10,0,1")):
        counts.clear()
        cli.execute(command, {"poly": poly})
        assert counts == {"_subresultant_psc": 1}, (command, poly, counts)


def test_trace_requests_run_no_elimination(monkeypatch):
    """tracefield and embedding reports, gap cases included, take the
    trace form's invariants from the PRS: no Bareiss elimination runs, and
    none runs for the invariants of trace_gram, which carries the PRS
    diagonal; a Gram matrix built from its entries runs one."""
    from hassewitt import cli, forms

    calls = []
    real = forms._leading_minors
    monkeypatch.setattr(forms, "_leading_minors", lambda m: calls.append(m) or real(m))
    for command, poly in (("tracefield", "-1,1,0,0,1"), ("tracefield", "1/2,0,-3,1"), ("tracefield", "-2,0,0,0,1"),
                          ("tracefield", "1/2,0,0,0,0,1"), ("embedding", "-1,-2,0,1,1"), ("embedding", "-2,0,-10,0,1")):
        outputs, assumptions = cli.execute(command, {"poly": poly})
        cli.dump_report(cli.make_report(None, command, {"poly": poly}, outputs, assumptions))
    assert calls == []
    gram = trace_gram(EtaleAlgebra(X4_X_1))
    invariants(gram)
    assert calls == []
    invariants(QuadraticForm(gram.gram))
    assert len(calls) == 1


def test_trace_requests_build_no_gram_matrix(monkeypatch):
    """A tracefield request runs Newton's identities once and builds no
    QuadraticForm: its report is written from the power sums.  An embedding
    request runs neither: it reads the invariants off the algebra.  Either
    request makes f monic and integral once, in the algebra's constructor;
    ``trace_gram`` reads that (c, g) and makes it no second time."""
    from hassewitt import cli, forms

    built, runs, monic = [], [], []
    real_set, real_sums, real_monic = forms.QuadraticForm._set, numberfield._newton_sums, numberfield._monic_integral
    monkeypatch.setattr(forms.QuadraticForm, "_set", lambda q, *args: built.append(args) or real_set(q, *args))
    monkeypatch.setattr(numberfield, "_newton_sums", lambda g, upto: runs.append(upto) or real_sums(g, upto))
    monkeypatch.setattr(numberfield, "_monic_integral", lambda f: monic.append(f) or real_monic(f))
    for command, poly, want in (("tracefield", "-1,1,0,0,1", [6]), ("tracefield", "1/2,0,-3,1", [4]),
                                ("tracefield", "-2,0,0,0,1", [6]), ("tracefield", "7,1", [0]),
                                ("embedding", "-1,-2,0,1,1", []), ("embedding", "1/3,1/2,0,0,1", []),
                                ("embedding", "-2,0,0,0,1", [])):
        runs.clear()
        monic.clear()
        outputs, assumptions = cli.execute(command, {"poly": poly})
        cli.dump_report(cli.make_report(None, command, {"poly": poly}, outputs, assumptions))
        assert (built, runs, len(monic)) == ([], want, 1), (command, poly)
    algebra = EtaleAlgebra(X4_X_1)
    monic.clear()
    trace_gram(algebra)  # the library's Gram builder passes both counters and reads the algebra's (c, g)
    assert (len(built), runs, monic) == (1, [6], [])


def test_trace_invariants_with_a_large_prime_in_c():
    """invariants(A) factors |num disc f| * gcd(disc g, c), whose primes are
    those of disc g, while disc g carries c**(n(n-1)): with M = 2^107 - 1 in
    the denominators, it agrees with the Bareiss route.  For x^8 + 1/M,
    disc g = 8^8 M^49 is past the 2,048-bit primality cap; the support is 8^8 M."""
    m = 2**107 - 1
    for coeffs in ([0, Fraction(1, m), 0, 1], [Fraction(-6, m**3), Fraction(11, m**2), Fraction(-6, m), 1],
                   [Fraction(1, m), 0, 0, 0, 1], [0, Fraction(1, m**3), 1], [Fraction(1, m**3), 1],
                   [Fraction(1, m)] + [0] * 7 + [1]):
        algebra = EtaleAlgebra(Poly(coeffs))
        assert invariants(algebra) == invariants(QuadraticForm(trace_gram(algebra).gram)), coeffs


def _binomial_closed_form(n, a):
    """The trace form of Q[x]/(x^n - a): <n> + ((n-2)/2) H + <n a> for even
    n and <n> + ((n-1)/2) H for odd n, H = <1, -1> the hyperbolic plane
    (Conner-Perlis, A Survey of Trace Forms of Algebraic Number Fields)."""
    if n % 2:
        return [n] + [1, -1] * ((n - 1) // 2)
    return [n] + [1, -1] * ((n - 2) // 2) + [n * a]


@pytest.mark.parametrize("n", list(range(1, 33)) + [64, 127, 128, 255, 400])
def test_binomial_trace_form_is_the_closed_form(n):
    for a in (2, -3):
        _, got = trace_form_report(EtaleAlgebra(Poly([-a] + [0] * (n - 1) + [1])))
        assert got == invariants(diagonal_form(_binomial_closed_form(n, a), pivots=True)), (n, a)


def test_tracefield_on_x400_minus_2_is_quick():
    from hassewitt import cli

    params = {"poly": ",".join(["-2"] + ["0"] * 399 + ["1"])}
    start = time.perf_counter()
    outputs, assumptions = cli.execute("tracefield", params)
    line = cli.dump_report(cli.make_report(None, "tracefield", params, outputs, assumptions))
    elapsed = time.perf_counter() - start
    assert '"status":"ok"' in line
    assert elapsed < 1.0, elapsed


def test_trace_gram_of_x400_minus_2_runs_no_elimination(monkeypatch):
    """invariants, diagonalize and det of the trace form read the PRS
    diagonal it was built with; none of them runs Bareiss on the
    400 x 400 Gram matrix."""
    from hassewitt import forms

    calls = []
    real = forms._leading_minors
    monkeypatch.setattr(forms, "_leading_minors", lambda m: calls.append(m) or real(m))
    algebra = EtaleAlgebra(Poly([-2] + [0] * 399 + [1]))
    gram = trace_gram(algebra)
    inv, diagonal, det = invariants(gram), diagonalize(gram), gram.det
    assert calls == []
    assert inv == invariants(algebra) == trace_form_report(algebra)[1]
    assert det == algebra.disc
    # one odd gap run, D_2 = ... = D_399 = 0, so the entries multiply to det exactly
    assert len(diagonal) == 400 and prod(diagonal) == det


def test_signature_matches_trace_form_diagonalization():
    rng = random.Random(131)
    checked = 0
    while checked < 30:
        f = _random_monic(rng, rng.randint(1, 6))
        if not f.is_squarefree():
            continue
        checked += 1
        alg = EtaleAlgebra(f)
        r1, r2 = _real_signature(alg)
        assert invariants(QuadraticForm(trace_gram(alg).gram)).signature == (r1 + r2, r2)


def test_trace_form_report_is_the_power_sums_and_the_invariants():
    algebra = EtaleAlgebra(X4_X_1)
    sums, inv = trace_form_report(algebra)
    assert sums == [4, 0, 0, -3, 4, 0, 3] and inv == invariants(algebra)
    assert inv.w1 == SquareClass(-283) and inv.signature == (3, 1) and inv.w2.to_json() == [2, 283]
    assert trace_form_report(EtaleAlgebra(Poly(["1/3", "1/2", 1])))[0] == [2, "-1/2", "-5/12"]


def test_trace_form_disc_identity():
    rng = random.Random(41)
    checked = 0
    while checked < 30:
        f = _random_monic(rng, rng.randint(1, 6))
        if not f.is_squarefree():
            continue
        checked += 1
        alg = EtaleAlgebra(f)
        assert invariants(QuadraticForm(trace_gram(alg).gram)).w1 == SquareClass(discriminant(f))


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


def test_factor_pattern_at_both_ends_of_p():
    # the packed F_p[x]/(f) kernel on x^4 + 1 mod 2^127 - 1, mod 3 and mod 2,
    # and at the bench's degree and prime size: (x - 1)(x - 2)...(x - 8) mod
    # 2^61 - 1 splits into eight linear factors
    x4_1 = EtaleAlgebra(Poly([1, 0, 0, 0, 1]))
    assert factor_pattern_mod_p(x4_1, 2**127 - 1) == ((2, 1), (2, 1))
    assert factor_pattern_mod_p(x4_1, 3) == ((2, 1), (2, 1))
    assert factor_pattern_mod_p(x4_1, 2) == ((1, 4),)
    eight = EtaleAlgebra(Poly([40320, -109584, 118124, -67284, 22449, -4536, 546, -36, 1]))
    assert factor_pattern_mod_p(eight, 2**61 - 1) == ((1, 1),) * 8


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


def test_fp_pattern_matches_oracles():
    from oracles import brute_factor_pattern

    # every monic f of degree 1-4 over F_2 and F_3, p-th powers such as
    # (x^2 + x + 1)^2 mod 2 among them
    for p in (2, 3):
        for deg in range(1, 5):
            for tail in itertools.product(range(p), repeat=deg):
                f = list(tail) + [1]
                pattern = tuple(sorted(numberfield._fp_pattern(f, p)))
                assert pattern == brute_factor_pattern(f, p), (f, p)
    rng = random.Random(93)
    # p from a few bits to four machine words
    for p, count in ((101, 30), (65537, 30), (2**61 - 1, 30), (2**127 - 1, 10), (2**255 - 19, 10)):
        checked = 0
        while checked < count:
            f = [rng.randrange(p) for _ in range(rng.randint(1, 10))] + [1]
            if fp_gcd(f, [i * c for i, c in enumerate(f)][1:], p) != [1]:
                continue
            checked += 1
            expected = sorted((d, 1) for block, d in naive_distinct_degree(f, p)
                              for _ in range((len(block) - 1) // d))
            assert sorted(numberfield._fp_pattern(f, p)) == expected, (f, p)


def test_fp_pattern_checks_each_division_is_exact(monkeypatch):
    # x + 1 does not divide x^2 + 1 mod 5, so a gcd that returned it would
    # leave a remainder that the distinct-degree pass must not drop
    monkeypatch.setattr(numberfield, "_fp_gcd", lambda a, b, p: [1, 1])
    with pytest.raises(InternalError, match="inexact division"):
        numberfield._fp_pattern([1, 0, 1], 5)


def test_packed_ring_worst_case_slots():
    """Residues with every slot at A - 1, the largest the ring holds, and f
    with every coefficient at p - 1: the slot sums the width has to hold,
    for p from 2 to 521 bits; 17 and 65537 sit just above a power of two,
    where 2**t is closest to p and Barrett's estimate errs most.  The
    square, the square times x and the Frobenius sum h(x**p) with h
    reduced mod p each match the oracle, and ``reduce`` leaves every slot
    below A."""
    rng = random.Random(96)
    for p in (2, 3, 5, 17, 65537, 2**61 - 1, 2**127 - 1, 2**256 - 189, 2**521 - 1):
        for n in range(1, 13):
            f = [p - 1] * n + [1]
            ring = numberfield._FpQuotient(f, p)
            w, top = ring.w, ring.bound - 1

            def slots(a, count):
                return [a >> i * w & ring.mask for i in range(count)]

            packed = sum(top << i * w for i in range(n))
            square = [int(c) for c in poly_mul([top] * n, [top] * n)]
            for s, want in ((packed * packed, square), (packed * packed << w, [0] + square)):
                out = ring.reduce(s)
                assert out >> n * w == 0 and max(slots(out, n)) < ring.bound, (p, n)
                assert ring.unpack(out) == fp_divmod(want, f, p)[1], (p, n)
            # slots up to n(A - 1)**2, all of them when there are few, so that
            # Barrett's estimate meets each remainder it can err on
            limit = n * top**2
            values = range(limit + 1) if limit < 10**4 else [rng.randint(0, limit) for _ in range(16 * n)]
            for start in range(0, len(values), 2 * n):
                coeffs = list(values[start : start + 2 * n])
                out = ring.reduce(sum(c << i * w for i, c in enumerate(coeffs)))
                assert out >> n * w == 0 and max(slots(out, n)) < ring.bound, (p, n, coeffs)
                assert ring.unpack(out) == fp_divmod(coeffs, f, p)[1], (p, n, coeffs)
            # h -> h(x**p): n coefficients of h at p - 1 times n rows at A - 1
            total = (p - 1) * n * packed
            assert slots(total, n + 1) == [n * (p - 1) * top] * n + [0], (p, n)
            assert ring.unpack(total) == fp_divmod([n * (p - 1) * top] * n, f, p)[1], (p, n)
            if n > 10 or p.bit_length() > 256:
                continue  # the oracle's Fraction products are slow past here
            for e in (1, 2, p, rng.randrange(3, 2**80)):
                assert ring.unpack(ring.xpow(e)) == fp_xpow(e, f, p), (p, n, e)


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


def _constructed(rng, degrees, repeated=()):
    """(f, pattern mod P61) for f a product of x - r (degree 1) and
    irreducible x^d - a, times, for each (d, m) in repeated, the m
    polynomials x^d - a - k*p (k < m), which are coprime over Q and all
    equal to one irreducible x^d - a mod p."""
    p = P61
    used: set = set()
    f = [1]
    pattern = []
    for d, m in repeated:
        if d == 1:
            r = rng.randint(-50, 50)
            used.add(r)
            base = [-r, 1]
        else:
            base = _irreducible_binomial(rng, d, p, used)
        for k in range(m):
            f = poly_mul(f, [base[0] - k * p] + base[1:])
        pattern.append((d, m))
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
    squared_linear = ((1, 2),)
    shapes = [
        ((4, 4), ()),
        ((1, 1, 2, 2), ()),
        ((3,), squared_linear),
        ((2, 2), squared_linear),
        ((8,), ()),
        ((1, 7), ()),
        ((2, 3, 3), ()),
        ((5, 1, 1), squared_linear),
        ((6,), ()),
        # repeated irreducible binomials: (x^2 - a)^2 (x^3 - b) mod p and more
        ((3,), ((2, 2),)),
        ((1,), ((3, 2),)),
        ((), ((2, 3),)),
        ((2,), ((2, 2), (1, 3))),
        ((1, 1), ((2, 2), (2, 1))),
    ]
    for degrees, repeated in shapes:
        for _ in range(3):
            f, expected = _constructed(rng, degrees, repeated)
            assert factor_pattern_mod_p(EtaleAlgebra(f), P61) == expected, (f, expected)


def test_frobenius_power_once_per_pattern(monkeypatch):
    calls = []
    real = numberfield._FpQuotient.xpow

    def counted(ring, e):
        calls.append((e, ring.f[:]))
        return real(ring, e)

    monkeypatch.setattr(numberfield._FpQuotient, "xpow", counted)
    rng = random.Random(95)
    p = P61
    cases = [
        _constructed(rng, (3, 2), ((1, 2),))[0],
        _constructed(rng, (3,), ((2, 2),))[0],
        _constructed(rng, (1,), ((1, 2),))[0],
        _constructed(rng, (), ((1, 2),))[0],  # degree 2, a squared linear factor mod p
        _constructed(rng, (2,))[0],
        _constructed(rng, (1,))[0],
        Poly([Fraction(-3, 7), 1]),
    ]
    for f in cases:
        calls.clear()
        factor_pattern_mod_p(EtaleAlgebra(f), p)
        c, scaled = f.integer_coeffs()
        fp = [x * pow(c, -1, p) % p for x in scaled]
        # x^p mod f itself, once, whatever the multiplicities; none for a linear f
        assert calls == ([(p, fp)] if f.degree >= 2 else []), (f, calls)


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


def test_trace_form_report_det_and_signature_identities():
    """det(Gram) = disc f and signature = (r1 + r2, r2) hold for the
    report by construction; here they are checked against the independent
    route, Bareiss on the entries of trace_gram and a Fraction Sturm chain,
    on dense, rational and gap inputs."""
    rng = random.Random(669)
    cases = [X4_X_1, Poly(["1/2", "-3/4", 0, "5/6", 1]), Poly([-2, 0, 0, 0, 1]), Poly(["1/2", 0, 0, 0, 0, 1])]
    while len(cases) < 60:
        d = rng.randint(1, 7)
        f = Poly([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)] + [1])
        if f.is_squarefree():
            cases.append(f)
    for f in cases:
        algebra = EtaleAlgebra(f)
        gram = trace_gram(algebra)
        bareiss = QuadraticForm(gram.gram)
        sums, inv = trace_form_report(algebra)
        r1, r2 = _real_signature(algebra)
        d = f.degree
        res = sylvester_resultant(f, derivative(f))
        assert bareiss.det == gram.det == algebra.disc == (-res if d * (d - 1) // 2 % 2 else res), f
        assert r1 == naive_count_real_roots(f), f
        assert inv.signature == invariants(bareiss).signature == (r1 + r2, r2), f
        assert [sums[i : i + d] for i in range(d)] == gram.to_json() and inv == invariants(bareiss), f
