"""Property tests of the Euler characteristic kernel.

chi of a complete intersection does not see the order of its degrees, and
a degree-1 equation cuts the same variety one dimension down, so adding
one leaves chi unchanged.  For c = 1 chi has a closed form, checked up to
the input limits; for small n the convolution oracle checks every
multidegree.  The index congruence, and the Betti classes w1 and w2 that
follow from it, are checked against Hirzebruch's integer series for the
index on every small multidegree.
"""

from itertools import combinations_with_replacement
from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hassewitt.motives import (
    MAX_CODIMENSION,
    MAX_DEGREE,
    MAX_DIMENSION,
    CompleteIntersectionSpec,
    euler_characteristic,
    hypersurface_w,
    motive_report,
)

from oracles import (
    hirzebruch_index,
    hypersurface_chi_closed_form,
    naive_euler_characteristic,
    series_euler_characteristic,
)

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


def test_index_and_betti_classes_match_hirzebruch_series():
    """Over Q the Betti form is <1>^(b+) + <-1>^(b-), with b- = (b_n - tau)/2,
    so w1 = b-(-1) and w2 = C(b-, 2)(-1,-1), and m' = b- mod 4."""
    assert hirzebruch_index(2, [3]) == -5  # the cubic surface
    assert hirzebruch_index(2, [4]) == -16  # the quartic K3
    checked = 0
    for n in range(2, 31, 2):
        for c in (1, 2, 3):
            for degrees in combinations_with_replacement(range(2, 9), c):
                tau = hirzebruch_index(n, list(degrees))
                b_minus, odd = divmod(series_euler_characteristic(n, list(degrees)) - n - tau, 2)
                assert not odd, (n, degrees)
                w1, w2 = -1 if b_minus % 2 else 1, [2, "inf"] if comb(b_minus, 2) % 2 else []
                report = motive_report(CompleteIntersectionSpec(n, degrees)).to_json()
                assert report["tau_mod8"] == tau % 8, (n, degrees, tau)
                assert report["m_prime"] % 4 == b_minus % 4, (n, degrees, b_minus)
                assert (report["w1_qB"], report["w2_qB"]) == (w1, w2), (n, degrees, b_minus)
                if c == 1:
                    assert tuple(w.to_json() for w in hypersurface_w(n, degrees[0])) == (w1, w2), (n, degrees)
                checked += 1
    assert checked == 1785
