"""Property tests of the integer etale kernel against the Fraction oracles.

Monic polynomials of degree 1-8 with rational coefficients whose
denominators run up to 12, so that c, the lcm of the denominators, and the
powers c**k that scale the integer Newton sums are far from 1.  A quarter
of them carry a squared factor.  No invariants are computed on those:
degree-8 discriminants can need factorizations past the rho budget.

The trace form is also checked against forms known in closed form, on
squarefree polynomials of degree at most 4 (Conner-Perlis, A Survey of
Trace Forms of Algebraic Number Fields, 1984; Serre, Comment. Math. Helv.
59, 1984): Tr_E is <2, 2d> for quadratic E and <1, 2, 2d> for cubic E,
field or not, where d = disc E; f and its reciprocal x**n f(1/x) / f(0)
present the same algebra, so their trace forms have equal invariants; and
for coprime f and g, Q[x]/(fg) = Q[x]/(f) x Q[x]/(g), so Tr of fg is the
orthogonal sum of the two trace forms.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hassewitt.errors import DomainError
from hassewitt.forms import QuadraticForm, diagonal_form, invariants, isometric, orthogonal_sum
from hassewitt.numberfield import EtaleAlgebra, Poly, discriminant, power_sums, trace_gram

from oracles import companion_power_traces, naive_count_real_roots, poly_mul, sylvester_resultant

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
    res = sylvester_resultant(f, f.derivative())
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
