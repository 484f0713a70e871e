import json
import random
import sys
from fractions import Fraction
from math import comb

import pytest

from hassewitt import arith, motives
from hassewitt.cli import run
from hassewitt.cohomology import SquareClass
from hassewitt.errors import DomainError
from hassewitt.forms import invariants
from hassewitt.motives import (
    MAX_CODIMENSION,
    MAX_DEGREE,
    MAX_DIMENSION,
    CompleteIntersectionSpec,
    SymbolicClass,
    betti_middle,
    betti_w_invariants,
    cubic_surface_refinement,
    epsilon_prime,
    euler_characteristic,
    hypersurface_w,
    motive_report,
    tau_mod8,
)

from oracles import (
    diagonal_form,
    hypersurface_chi_closed_form,
    naive_euler_characteristic,
    parity_delta_classes,
    series_euler_characteristic,
)


def test_spec_validation():
    with pytest.raises(DomainError):
        CompleteIntersectionSpec(3, [2])
    with pytest.raises(DomainError):
        CompleteIntersectionSpec(2, [])
    with pytest.raises(DomainError):
        CompleteIntersectionSpec(2, [0])


def test_spec_takes_only_ints():
    # nothing is coerced: int(2.5) == 2, int(True) == 1 and int(7/2) == 3
    # would each be a wrong answer with no error, and n = 4.0 used to fail
    # later, inside euler_characteristic, with a TypeError
    for n, degrees in [
        (4, [2.5]),
        (4, [True, 3]),
        (4, [Fraction(7, 2)]),
        (4, ["3"]),
        (4, [3.0]),
        (4.0, [3]),
        ("4", [3]),
        (True, [3]),
        (Fraction(4), [3]),
    ]:
        with pytest.raises(DomainError, match="^dimension and degrees must be integers$"):
            CompleteIntersectionSpec(n, degrees)
    with pytest.raises(DomainError):
        hypersurface_w(4, 2.5)
    assert CompleteIntersectionSpec(4, (3, 2)).degrees == (3, 2)


# one step past each input limit, next to the largest accepted value
_AT_LIMITS = [
    (MAX_DIMENSION, [2]),
    (2, [2] * MAX_CODIMENSION),
    (2, [MAX_DEGREE]),
    (MAX_DIMENSION, [MAX_DEGREE] * MAX_CODIMENSION),
]
_PAST_LIMITS = [
    (MAX_DIMENSION + 2, [2]),
    (2, [2] * (MAX_CODIMENSION + 1)),
    (2, [MAX_DEGREE + 1]),
]


def test_spec_limits():
    for n, degrees in _AT_LIMITS:
        assert CompleteIntersectionSpec(n, degrees).n == n
    for n, degrees in _PAST_LIMITS:
        with pytest.raises(DomainError):
            CompleteIntersectionSpec(n, degrees)


def test_spec_limits_in_batch(tmp_path, capsys):
    specs = _AT_LIMITS + _PAST_LIMITS
    infile = tmp_path / "in.jsonl"
    outfile = tmp_path / "out.jsonl"
    infile.write_text(
        "".join(
            json.dumps({"id": i, "command": "hypersurface", "parameters": {"n": n, "degrees": degrees}}) + "\n"
            for i, (n, degrees) in enumerate(specs)
        )
    )
    assert run(["batch", "--in", str(infile), "--out", str(outfile)]) == 0
    capsys.readouterr()
    lines = outfile.read_text().splitlines()
    # chi at the largest spec has about 16,400 digits, past Python's default
    # int-to-str limit of 4300, so the reports are read back with it lifted
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        reports = [json.loads(line) for line in lines]
        chis = [motive_report(CompleteIntersectionSpec(n, degrees)).chi for n, degrees in _AT_LIMITS]
        single_shot = f"chi: {chis[-1]}"
    finally:
        sys.set_int_max_str_digits(saved)
    assert [r["status"] for r in reports] == ["ok"] * len(_AT_LIMITS) + ["input_error"] * len(_PAST_LIMITS)
    assert [r["outputs"]["chi"] for r in reports[: len(_AT_LIMITS)]] == chis
    n, degrees = _AT_LIMITS[-1]
    assert run(["hypersurface", "--n", str(n), "--degrees", ",".join(map(str, degrees))]) == 0
    assert capsys.readouterr().out.splitlines()[0] == single_shot
    for n, degrees in _PAST_LIMITS:
        assert run(["hypersurface", "--n", str(n), "--degrees", ",".join(map(str, degrees))]) == 1
        capsys.readouterr()


def test_euler_characteristic_cubic_surface():
    assert euler_characteristic(CompleteIntersectionSpec(2, [3])) == 9


def test_euler_characteristic_quadrics():
    for n in (2, 4, 6, 8, 10):
        assert euler_characteristic(CompleteIntersectionSpec(n, [2])) == n + 2


def test_euler_characteristic_closed_form():
    for n in (2, 4, 6, 8, 10):
        for d in range(1, 11):
            assert euler_characteristic(CompleteIntersectionSpec(n, [d])) == hypersurface_chi_closed_form(n, d)


def test_euler_characteristic_surfaces_in_p4():
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            chi = euler_characteristic(CompleteIntersectionSpec(2, [d1, d2]))
            expected = d1 * d2 * (d1**2 + d2**2 + d1 * d2 - 5 * (d1 + d2) + 10)
            assert chi == expected


def test_euler_characteristic_matches_convolution():
    rng = random.Random(20260)
    for _ in range(300):
        n = 2 * rng.randint(1, 40)
        degrees = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        spec = CompleteIntersectionSpec(n, degrees)
        assert euler_characteristic(spec) == naive_euler_characteristic(n, degrees), (n, degrees)
    # a repeated degree repeats a node, which runs the equal-node entries of the table
    for _ in range(100):
        n = 2 * rng.randint(1, 40)
        degrees = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
        degrees += [degrees[0]] * rng.randint(1, 2)
        spec = CompleteIntersectionSpec(n, degrees)
        assert euler_characteristic(spec) == naive_euler_characteristic(n, degrees), (n, degrees)


@pytest.mark.parametrize("degrees", [
    [MAX_DEGREE] * MAX_CODIMENSION,
    list(range(MAX_DEGREE - MAX_CODIMENSION + 1, MAX_DEGREE + 1)),
    [MAX_DEGREE, MAX_DEGREE - 1] * (MAX_CODIMENSION // 2),
    [1, MAX_DEGREE] * (MAX_CODIMENSION // 2),
    [MAX_DEGREE],
    [2] * MAX_CODIMENSION,
    [1] * MAX_CODIMENSION,
    [1],
])
def test_euler_characteristic_matches_series_at_the_limits(degrees):
    for n in (2, MAX_DIMENSION):
        spec = CompleteIntersectionSpec(n, degrees)
        assert euler_characteristic(spec) == series_euler_characteristic(n, degrees), (n, degrees)


def test_euler_characteristic_matches_series_with_repeated_degrees():
    rng = random.Random(4096)
    for _ in range(300):
        n = 2 * rng.randint(1, 200)
        pool = [1, 2] + [rng.randint(1, MAX_DEGREE) for _ in range(rng.randint(1, 3))]
        degrees = [rng.choice(pool) for _ in range(rng.randint(1, MAX_CODIMENSION - 1))]
        degrees.append(rng.choice(degrees))
        spec = CompleteIntersectionSpec(n, degrees)
        assert euler_characteristic(spec) == series_euler_characteristic(n, degrees), (n, degrees)


def test_betti_middle():
    assert betti_middle(CompleteIntersectionSpec(2, [3])) == 7
    for n in (2, 4, 6, 8):
        assert betti_middle(CompleteIntersectionSpec(n, [2])) == 2
    assert 2 + Fraction((1 - 3) ** 4 - 1, 3) == 7  # cross-check of the closed form


def test_tau_mod8():
    assert tau_mod8(CompleteIntersectionSpec(2, [3])) == 3
    assert tau_mod8(CompleteIntersectionSpec(4, [2])) == 2
    # d even and n = 2 mod 4 kills the binomial parity
    assert tau_mod8(CompleteIntersectionSpec(2, [2])) == 0
    assert tau_mod8(CompleteIntersectionSpec(6, [4])) == 0
    assert tau_mod8(CompleteIntersectionSpec(2, [5])) == 5


def test_betti_w_invariants_quadrics():
    m, m_prime, w1, w2 = betti_w_invariants(CompleteIntersectionSpec(4, [2]))
    assert (m, m_prime) == (0, 0)
    assert w1.is_trivial and w2.is_zero
    m, m_prime, w1, w2 = betti_w_invariants(CompleteIntersectionSpec(2, [2]))
    assert m_prime == 1
    assert w1 == SquareClass(-1) and w2.is_zero


def test_betti_w_invariants_cubic_surface():
    m, m_prime, w1, w2 = betti_w_invariants(CompleteIntersectionSpec(2, [3]))
    assert (m, m_prime) == (4, 2)
    assert w1.is_trivial
    assert w2.to_json() == [2, "inf"]


def test_m_is_even():
    for n in (2, 4, 6, 8):
        for degrees in _degree_lists():
            m, _, _, _ = betti_w_invariants(CompleteIntersectionSpec(n, degrees))
            assert m % 2 == 0, (n, degrees)


def _degree_lists():
    single = [[d] for d in range(1, 6)]
    double = [[d1, d2] for d1 in range(1, 6) for d2 in range(1, 6)]
    triple = [[2, 3, 5], [1, 1, 1], [4, 4, 2], [5, 5, 5], [3, 2, 2]]
    return single + double + triple


def test_hypersurface_w_examples():
    w1, w2 = hypersurface_w(2, 3)
    assert w1.is_trivial and w2.to_json() == [2, "inf"]
    w1, w2 = hypersurface_w(4, 2)
    assert w1.is_trivial and w2.is_zero
    w1, w2 = hypersurface_w(2, 2)
    assert w1 == SquareClass(-1) and w2.is_zero


def test_hypersurface_w_matches_lattice_route():
    for n in (2, 4, 6, 8, 10):
        for d in range(1, 11):
            closed = hypersurface_w(n, d)
            _, _, w1, w2 = betti_w_invariants(CompleteIntersectionSpec(n, [d]))
            assert closed == (w1, w2), (n, d)


def test_quadric_forms_agree_with_symbolic():
    # n = 0 mod 4: the rank-2 lattice is x^2 + y^2; n = 2 mod 4: x^2 - y^2
    plus = invariants(diagonal_form([1, 1]))
    minus = invariants(diagonal_form([1, -1]))
    for n in (4, 8):
        _, _, w1, w2 = betti_w_invariants(CompleteIntersectionSpec(n, [2]))
        assert (w1, w2) == (plus.w1, plus.w2)
    for n in (2, 6, 10):
        _, _, w1, w2 = betti_w_invariants(CompleteIntersectionSpec(n, [2]))
        assert (w1, w2) == (minus.w1, minus.w2)


def test_cubic_surface_refinement():
    assert cubic_surface_refinement() == -5
    with pytest.raises(DomainError):
        cubic_surface_refinement(2, 4)
    form = diagonal_form([1] + [-1] * 6)  # the middle form of the cubic surface
    inv = invariants(form)
    assert inv.rank == 7
    assert inv.signature == (1, 6)  # index -5
    assert inv.w1.is_trivial
    assert inv.w2.to_json() == [2, "inf"]
    _, _, w1, w2 = betti_w_invariants(CompleteIntersectionSpec(2, [3]))
    assert (inv.w1, inv.w2) == (w1, w2)


def _deltas(n: int, d: int):
    report = motive_report(CompleteIntersectionSpec(n, [d]))
    return report.delta1, report.delta2


def test_delta_expressions_cubic_surface():
    d1, d2 = _deltas(2, 3)
    assert d1.numeric == SquareClass(-1)
    assert d1.tokens == ("disc_d(f)",)
    assert d2.numeric.to_json() == [2, "inf"]
    assert d2.tokens == ("w2(q_dR)",)


def test_delta_expressions_quadrics():
    d1, d2 = _deltas(4, 2)
    assert d2.numeric.is_zero
    assert d2.tokens == ("w2(q_dR)",)
    d1, d2 = _deltas(2, 2)
    assert d2.numeric.is_zero
    assert d2.tokens == ("w2(q_dR)", "(-1,disc_d(f))")
    assert d1.numeric == SquareClass(1)  # (d/2)((n+2)/2) = 2, even


def test_delta1_sign_branches():
    # odd d: sign (-1)^((d-1)/2)
    assert _deltas(2, 3)[0].numeric == SquareClass(-1)
    assert _deltas(2, 5)[0].numeric == SquareClass(1)
    # even d: sign (-1)^((d/2)((n+2)/2)); for (4, 2) the exponent is 3
    assert _deltas(4, 2)[0].numeric == SquareClass(-1)


def test_epsilon_prime_consistency():
    # w1(Betti) * epsilon_prime must reproduce the delta1 sign of the parity table
    for n in (2, 4, 6, 8):
        for d in range(1, 9):
            w1, _ = hypersurface_w(n, d)
            sign = parity_delta_classes(n, d)[0]["numeric"]
            assert w1 * SquareClass(epsilon_prime(n, d)) == SquareClass(sign), (n, d)


# every even n <= 128 with d <= 64, and the corners of both input limits
DELTA_PAIRS = ([(n, d) for n in range(2, 129, 2) for d in range(1, 65)]
               + [(n, d) for n in (MAX_DIMENSION - 2, MAX_DIMENSION)
                  for d in (1, 2, 3, MAX_DEGREE - 2, MAX_DEGREE - 1, MAX_DEGREE)])


def test_motive_report_deltas_match_parity_table():
    for n, d in DELTA_PAIRS:
        report = motive_report(CompleteIntersectionSpec(n, [d]))
        assert (report.delta1.to_json(), report.delta2.to_json()) == parity_delta_classes(n, d), (n, d)


def test_symbolic_token_vocabulary():
    with pytest.raises(Exception):
        SymbolicClass(SquareClass(1), ("bogus",))


def test_motive_report_hypersurface():
    report = motive_report(CompleteIntersectionSpec(2, [3]))
    assert report.chi == 9
    assert report.b_n == 7
    assert report.tau_mod8 == 3
    assert report.delta1 is not None and report.delta2 is not None
    payload = report.to_json()
    assert payload["w2_qB"] == [2, "inf"]
    assert payload["delta1"] == {"numeric": -1, "tokens": ["disc_d(f)"]}


def test_motive_report_complete_intersection():
    report = motive_report(CompleteIntersectionSpec(2, [2, 3]))
    assert report.chi == 6 * (4 + 9 + 6 - 25 + 10)
    assert report.delta1 is None and report.delta2 is None
    assert report.to_json()["delta1"] is None


def test_motive_report_evaluates_chi_once(monkeypatch):
    calls = []
    kernel = motives.euler_characteristic

    def counted(spec):
        calls.append(spec)
        return kernel(spec)

    monkeypatch.setattr(motives, "euler_characteristic", counted)
    for n, degrees in [(2, [3]), (6, [2, 5]), (12, [4, 4, 7])]:
        spec = CompleteIntersectionSpec(n, degrees)
        calls.clear()
        report = motive_report(spec)
        assert calls == [spec]
        assert report.chi == kernel(spec)
        assert (report.m, report.m_prime, report.w1_qB, report.w2_qB) == betti_w_invariants(spec)


def test_motive_report_reads_the_binomial_parity_once(monkeypatch):
    calls = []
    parity = motives._binomial_is_even
    monkeypatch.setattr(motives, "_binomial_is_even", lambda spec: calls.append(spec) or parity(spec))
    for n, degrees in [(2, [3]), (4, [2]), (6, [2, 5]), (12, [4, 4, 7]), (8, [1, 2, 2])]:
        spec = CompleteIntersectionSpec(n, degrees)
        calls.clear()
        report = motive_report(spec)
        assert calls == [spec]
        assert report.tau_mod8 == (0 if parity(spec) else spec.total_degree % 8)


def test_binomial_parity_matches_comb():
    # Kummer: C(n/2 + t, t) is odd exactly when (n/2) & t == 0
    for t in range(MAX_CODIMENSION + 1):
        degrees = [2] * t or [3]
        for n in range(2, MAX_DIMENSION + 1, 2):
            spec = CompleteIntersectionSpec(n, degrees)
            assert motives._binomial_is_even(spec) == (comb(n // 2 + t, t) % 2 == 0), (n, t)


def test_motive_report_factors_nothing(monkeypatch):
    calls = []
    real = arith.squarefree_part
    monkeypatch.setattr(arith, "squarefree_part", lambda q: calls.append(q) or real(q))
    for n, degrees in [(2, [3]), (4, [2]), (6, [4]), (2, [2, 3])]:
        motive_report(CompleteIntersectionSpec(n, degrees))
    assert calls == []
