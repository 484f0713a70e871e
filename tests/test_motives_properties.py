"""Property tests of the Euler characteristic kernel.

chi of a complete intersection does not see the order of its degrees, and
a degree-1 equation cuts the same variety one dimension down, so adding
one leaves chi unchanged.  For c = 1 chi has a closed form, checked up to
the input limits; for small n the convolution oracle checks every
multidegree.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hassewitt.motives import (
    MAX_CODIMENSION,
    MAX_DEGREE,
    MAX_DIMENSION,
    CompleteIntersectionSpec,
    euler_characteristic,
)

from oracles import hypersurface_chi_closed_form, naive_euler_characteristic

DIMENSIONS = st.integers(1, MAX_DIMENSION // 2).map(lambda k: 2 * k)
SMALL_DIMENSIONS = st.integers(1, 80).map(lambda k: 2 * k)
DEGREES = st.one_of(st.integers(1, 6), st.integers(1, MAX_DEGREE))


def chi(n, degrees) -> int:
    return euler_characteristic(CompleteIntersectionSpec(n, degrees))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 200).map(lambda k: 2 * k), st.lists(DEGREES, min_size=1, max_size=MAX_CODIMENSION - 1))
def test_degree_one_equation_leaves_chi_unchanged(n, degrees):
    assert chi(n, degrees + [1]) == chi(n, degrees)
    assert chi(n, [1] + degrees) == chi(n, degrees)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 200).map(lambda k: 2 * k),
       st.lists(DEGREES, min_size=2, max_size=MAX_CODIMENSION), st.randoms(use_true_random=False))
def test_chi_ignores_the_order_of_the_degrees(n, degrees, rng):
    shuffled = list(degrees)
    rng.shuffle(shuffled)
    assert chi(n, shuffled) == chi(n, degrees)
    assert chi(n, degrees[::-1]) == chi(n, degrees)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(SMALL_DIMENSIONS, DIMENSIONS, st.just(MAX_DIMENSION)),
       st.one_of(DEGREES, st.just(MAX_DEGREE)))
@example(MAX_DIMENSION, MAX_DEGREE)
@example(MAX_DIMENSION, 2)
@example(2, MAX_DEGREE)
def test_hypersurface_chi_matches_closed_form(n, d):
    assert chi(n, [d]) == hypersurface_chi_closed_form(n, d)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(SMALL_DIMENSIONS, st.lists(st.one_of(st.integers(1, 6), st.integers(1, 200)), min_size=1, max_size=4))
def test_chi_matches_convolution_oracle(n, degrees):
    assert chi(n, degrees) == naive_euler_characteristic(n, degrees)
