"""Property tests of the form kernel against the Fraction oracle.

The benchmark corpora never take the zero-pivot repair, so these are its
main cover: zero diagonals (hence D_1 = 0 and later zero leading minors),
denominators, every rank up to 8 and degenerate matrices.
"""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hassewitt.cli import dump_report, execute, make_report
from hassewitt.errors import DomainError
from hassewitt.forms import QuadraticForm, diagonalize, invariants

from oracles import congruent_form, naive_eliminate, naive_form_invariants, random_unimodular

ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4, 6])),
)


@st.composite
def gram_rows(draw, max_rank: int = 8) -> list[list[Fraction]]:
    """A symmetric rational matrix; in half of them the diagonal is zero."""
    n = draw(st.integers(1, max_rank))
    zero_diagonal = draw(st.booleans())
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                rows[i][j] = rows[j][i] = draw(ENTRY)
    return rows


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(gram_rows())
def test_kernel_matches_fraction_oracle(rows):
    try:
        want = naive_eliminate(rows)
    except DomainError as exc:
        with pytest.raises(DomainError, match=str(exc)):
            QuadraticForm(rows)
        return
    q = QuadraticForm(rows)
    assert diagonalize(q) == want
    assert prod(want) == q.det
    assert invariants(q).to_json() == naive_form_invariants(rows)


def _report(q: QuadraticForm) -> str:
    outputs, assumptions = execute("form-invariants", {"gram": q.to_json()})
    return dump_report(make_report(None, "form-invariants", {}, outputs, assumptions))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gram_rows(), st.randoms(use_true_random=False))
def test_isometric_forms_give_identical_reports(rows, rng):
    try:
        q = QuadraticForm(rows)
    except DomainError:
        assume(False)
    assert _report(congruent_form(q, random_unimodular(rng, q.rank))) == _report(q)
