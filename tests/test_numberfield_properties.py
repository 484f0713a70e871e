"""Property tests of the integer etale kernel against the Fraction oracles.

Monic polynomials of degree 1-8 with rational coefficients whose
denominators run up to 12, so that c, the lcm of the denominators, and the
powers c**k that scale the integer Newton sums are far from 1.  A quarter
of them carry a squared factor.  No invariants are computed here: degree-8
discriminants can need factorizations past the rho budget.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassewitt.errors import DomainError
from hassewitt.forms import QuadraticForm
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
