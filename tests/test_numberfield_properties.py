"""Property tests of the integer etale kernel against the Fraction oracles.

Monic polynomials of degree 1-8 with rational coefficients whose
denominators run up to 12, so that c, the lcm of the denominators, and the
powers c**k that scale the integer Newton sums are far from 1.  A quarter
of them carry a squared factor.  No invariants are computed on those:
degree-8 discriminants can carry cofactors that the ECM ladder does not
split, and a request on one ends in effort_exceeded after seconds.

The trace form is also checked against forms known in closed form, on
squarefree polynomials of degree at most 4 (Conner-Perlis, A Survey of
Trace Forms of Algebraic Number Fields, 1984; Serre, Comment. Math. Helv.
59, 1984): Tr_E is <2, 2d> for quadratic E and <1, 2, 2d> for cubic E,
field or not, where d = disc E; f and its reciprocal x**n f(1/x) / f(0)
present the same algebra, so their trace forms have equal invariants; and
for coprime f and g, Q[x]/(fg) = Q[x]/(f) x Q[x]/(g), so Tr of fg is the
orthogonal sum of the two trace forms.

The library reads the trace form's leading minors off the principal
subresultant coefficients of one PRS and its diagonal off them by
Frobenius' rule; that route is checked against Fraction determinants of
the Hankel blocks and against the Bareiss route,
invariants(QuadraticForm(trace_gram(.).gram)), on dense, sparse, binomial,
shifted and scaled polynomials, and on gap runs of every length from 1 to
8, both right after D_1 and after D_2.  The diagonal that trace_gram
carries, which diagonalize returns, has other entries than the Bareiss
route gives, but the two diagonal forms are isometric.

invariants of an algebra read its diagonal with no Gram matrix, at the
primes of 2 |disc g|, and the trace report prints the Gram matrix from the
power sums; both are checked against trace_gram and the Bareiss route on
dense, sparse, x**n - a and rational algebras whose c shares a prime with
disc g.
"""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hassewitt import numberfield
from hassewitt.errors import DomainError
from hassewitt.forms import QuadraticForm, diagonalize, invariants, isometric
from hassewitt.numberfield import (
    EtaleAlgebra,
    Poly,
    count_real_roots,
    discriminant,
    power_sums,
    trace_form_report,
    trace_gram,
)

from oracles import (
    companion_power_traces,
    derivative,
    diagonal_form,
    naive_count_real_roots,
    naive_hankel_minors,
    orthogonal_sum,
    poly_mul,
    sylvester_resultant,
)

COEFF = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
)


@st.composite
def monic_polys(draw) -> Poly:
    degree = draw(st.integers(1, 8))
    if degree >= 3 and draw(st.integers(0, 3)) == 0:  # h**2 * k, not squarefree
        h = [draw(COEFF), 1]
        k = [draw(COEFF) for _ in range(degree - 2)] + [1]
        return Poly(poly_mul(h, h, k))
    return Poly([draw(COEFF) for _ in range(degree)] + [1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(monic_polys())
def test_etale_kernel_matches_fraction_oracles(f):
    d = f.degree
    traces = companion_power_traces(f, 2 * d - 2)
    assert power_sums(f, 2 * d - 2) == traces
    res = sylvester_resultant(f, derivative(f))
    disc = -res if d * (d - 1) // 2 % 2 else res
    assert discriminant(f) == disc
    if disc == 0:
        with pytest.raises(DomainError, match="defining polynomial must be squarefree"):
            EtaleAlgebra(f)
        return
    algebra = EtaleAlgebra(f)
    assert algebra.disc == disc
    assert algebra.real_roots == naive_count_real_roots(f)
    hankel = [[traces[i + j] for j in range(d)] for i in range(d)]
    gram = trace_gram(algebra)
    assert gram.gram == tuple(map(tuple, hankel))
    assert gram == QuadraticForm(hankel)  # the same L and L*Gram
    assert gram.det == disc


@st.composite
def squarefree_polys(draw, degrees) -> Poly:
    f = Poly([draw(COEFF) for _ in range(draw(degrees))] + [1])
    assume(discriminant(f) != 0)
    return f


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(squarefree_polys(st.just(2)))
def test_quadratic_trace_form_is_2_2d(f):
    algebra = EtaleAlgebra(f)
    assert isometric(trace_gram(algebra), diagonal_form([2, 2 * algebra.disc]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(squarefree_polys(st.just(3)))
def test_cubic_trace_form_is_1_2_2d(f):
    algebra = EtaleAlgebra(f)
    assert isometric(trace_gram(algebra), diagonal_form([1, 2, 2 * algebra.disc]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(squarefree_polys(st.integers(1, 4)))
def test_reciprocal_polynomial_gives_equal_invariants(f):
    coeffs = f.coeffs
    assume(coeffs[0] != 0)
    reciprocal = Poly([c / coeffs[0] for c in reversed(coeffs)])
    assert invariants(trace_gram(EtaleAlgebra(f))) == invariants(trace_gram(EtaleAlgebra(reciprocal)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(squarefree_polys(st.integers(1, 3)), squarefree_polys(st.integers(1, 3)))
def test_trace_form_of_a_product_is_the_orthogonal_sum(f, g):
    fg = Poly(poly_mul(f.coeffs, g.coeffs))
    assume(discriminant(fg) != 0)  # f and g coprime
    split = orthogonal_sum(trace_gram(EtaleAlgebra(f)), trace_gram(EtaleAlgebra(g)))
    assert isometric(trace_gram(EtaleAlgebra(fg)), split)


def _check_against_the_bareiss_route(f: Poly) -> None:
    """The PRS minors against naive Hankel determinants, and disc, r1 and
    the invariants against the Sturm chain and the Bareiss route."""
    d = f.degree
    lead, g = numberfield._monic_integral(f)
    minors = numberfield._hankel_minors(g)
    want = naive_hankel_minors(power_sums(f, 2 * d - 2), d)
    # the Hankel matrix of g = c**d f(x/c) is diag(c**i) (p_(i+j)(f)) diag(c**j)
    assert minors == [lead ** (k * (k - 1)) * x for k, x in enumerate(want, 1)], f
    if want[-1] == 0:
        return
    algebra = EtaleAlgebra(f)
    assert algebra.disc == discriminant(f) == want[-1], f
    assert algebra.real_roots == count_real_roots(f) == naive_count_real_roots(f), f
    assert trace_form_report(algebra).form_invariants == invariants(QuadraticForm(trace_gram(algebra).gram)), f


NONZERO = st.builds(Fraction, st.integers(1, 9).flatmap(lambda x: st.sampled_from((x, -x))), st.integers(1, 6))


@st.composite
def trace_polys(draw) -> Poly:
    """Monic f: dense (degree <= 6, whose discriminants stay cheap to
    factor), sparse, x**n - a for n <= 12 and either sign of a, or one of
    those moved to f(s*x + t) / s**n with rational s and t."""
    kind = draw(st.sampled_from(("dense", "sparse", "binomial")))
    if kind == "dense":
        n = draw(st.integers(1, 6))
        coeffs = [draw(COEFF) for _ in range(n)]
    elif kind == "sparse":
        n = draw(st.integers(2, 12))
        coeffs = [draw(NONZERO) if draw(st.integers(0, 3)) == 0 else Fraction(0) for _ in range(n)]
    else:
        n = draw(st.integers(1, 12))
        coeffs = [-draw(NONZERO)] + [Fraction(0)] * (n - 1)
    coeffs.append(Fraction(1))
    if n <= 8 and draw(st.booleans()):
        s, t = draw(NONZERO), draw(COEFF)
        moved = [Fraction(0)] * (n + 1)
        for i, c in enumerate(coeffs):
            for j in range(i + 1):
                moved[j] += c * comb(i, j) * s**j * t ** (i - j)
        coeffs = [c / s**n for c in moved]
    return Poly(coeffs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trace_polys())
def test_trace_route_matches_the_bareiss_route(f):
    _check_against_the_bareiss_route(f)


# x**(m+1) - 2 has a run of length m from D_1, and x**(m+3) + x**(m+2) - 1 one from D_2;
# x**4 + 4x has f' = 4(x**3 + 1), whose content the PRS keeps
GAP_CASES = [Poly([-2] + [0] * m + [1]) for m in range(1, 9)]
GAP_CASES += [Poly([-1] + [0] * (m + 1) + [1, 1]) for m in range(1, 9)]
GAP_CASES += [Poly([0, 4, 0, 0, 1]), Poly([Fraction(3, 2), 0, 0, 6, 0, 0, 1])]


@pytest.mark.parametrize("f", GAP_CASES, ids=repr)
def test_gap_runs_match_the_bareiss_route(f):
    _check_against_the_bareiss_route(f)


def _check_diagonal_against_the_bareiss_route(f: Poly) -> None:
    """diagonalize(trace_gram(.)), the PRS diagonal, against Bareiss on the
    same Gram entries.  isometric factors the diagonal's own entries, built
    from the Hankel minors, so the draws below stay where those factor:
    dense f of degree <= 6, and x**n - a, whose minors are built from n and a."""
    gram = trace_gram(EtaleAlgebra(f))
    bareiss = QuadraticForm(gram.gram)
    assert gram.det == bareiss.det, f
    assert isometric(diagonal_form(diagonalize(gram)), bareiss), f


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(squarefree_polys(st.integers(1, 6)))
def test_trace_diagonal_is_isometric_to_the_bareiss_route(f):
    _check_diagonal_against_the_bareiss_route(f)


# x**n - a up to n = 32, a integral or rational and of either sign, beside the gap cases
BINOMIALS = [Poly([-a] + [0] * (n - 1) + [1]) for n in range(1, 33) for a in (2, -3, Fraction(1, 2), Fraction(-5, 3))]


@pytest.mark.parametrize("f", GAP_CASES + BINOMIALS, ids=repr)
def test_gap_and_binomial_diagonals_are_isometric_to_the_bareiss_route(f):
    _check_diagonal_against_the_bareiss_route(f)


def test_gap_cases_hold_every_run_length():
    runs = set()  # (k, m): a run from nonzero D_k, k = 1 or 2, to the next nonzero D_(k+m)
    for f in GAP_CASES:
        last = 0
        for k, x in enumerate(naive_hankel_minors(power_sums(f, 2 * f.degree - 2), f.degree), 1):
            if x:
                if last in (1, 2):
                    runs.add((last, k - last))
                last = k
    assert {(start, m) for start in (1, 2) for m in range(1, 9)} <= runs


SMALL = st.integers(-3, 3)


@st.composite
def trace_algebras(draw) -> EtaleAlgebra:
    """Squarefree monic f of degree 1-8: dense, sparse, x**n - a with a
    integral or rational, or rational f(x) = g(c x) / c**n for integral g
    = (x - a)**2 k + p r, so that the prime p of c divides disc g."""
    kind = draw(st.sampled_from(("dense", "sparse", "gap", "rational")))
    n = draw(st.integers(1, 8))
    if kind == "dense":
        coeffs = [draw(SMALL) for _ in range(n)]
    elif kind == "sparse":
        coeffs = [draw(NONZERO) if draw(st.integers(0, 3)) == 0 else 0 for _ in range(n)]
    elif kind == "gap":
        coeffs = [-draw(NONZERO)] + [0] * (n - 1)
    else:
        p = draw(st.sampled_from((2, 3, 5)))
        c = p * draw(st.integers(1, 3))
        a = draw(st.integers(1, p - 1))
        k = [draw(SMALL) for _ in range(n - 2)] + [1] if n >= 2 else [1]
        square = poly_mul([-a, 1], [-a, 1], k) if n >= 2 else [0, 1]
        r = [draw(SMALL) for _ in range(n)]
        g = [x + p * y for x, y in zip(square, r)] + square[n:]
        coeffs = [Fraction(x * c**i, c**n) for i, x in enumerate(g[:n])]
    f = Poly(coeffs + [1])
    lead, monic = numberfield._monic_integral(f)
    minors = numberfield._hankel_minors(monic)
    assume(minors[-1] != 0)
    if kind == "rational" and n >= 2:
        assume(gcd(lead, minors[-1]) > 1)
    return EtaleAlgebra(f)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trace_algebras())
def test_algebra_invariants_and_report_rows_match_the_gram_matrix(algebra):
    gram = trace_gram(algebra)
    report = trace_form_report(algebra)
    assert invariants(algebra) == report.form_invariants == invariants(QuadraticForm(gram.gram)), algebra
    assert report.to_json()["gram"] == gram.to_json(), algebra
