"""Request fuzzer over the command table.

Each example is one batch line built from a command in ``cli.COMMANDS``,
a subset of its parameter keys and values drawn over small atoms, so a new
command is fuzzed with no edit here.  Every request must end in ``ok``,
``input_error`` or ``effort_exceeded``, never ``internal_error``; its batch
report must be the same bytes run alone, with empty memos, and again after
a warm-up line; and the single-shot ``--json`` run of the same parameters
must print those bytes (an input error exits 1, effort_exceeded 3).  A Gram
matrix with an empty row is an input error, never a matrix with the row
dropped.
Two congruence checks need no oracle: a Gram matrix G and U^T G U, for a
small unimodular U, give the same ``form-invariants`` report, and f(x) and
f(x + t), for a small rational t, the same ``tracefield`` invariants.

The atoms are small, so that a run takes seconds: every integer has at
most a few digits, polynomials have degree at most 4 and Gram matrices rank
at most 3.  The exceptions are integers at each operand cap and one bit
past it, drawn as places and as rank-1 Gram matrices: a 2,048-bit prime
and a 2,049-bit integer for the primality cap, and 256- and 257-bit
products of a prime that p - 1 finds at once for the factoring cap.  Only
strings are drawn, because a flag only carries strings.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hassewitt import arith, cli
from hassewitt.cli import COMMANDS, _process_request_line, dump_report

from oracles import JEHANNE_TYPES, random_unimodular
from test_effort import AT_FACTOR_CAP, P2048, PAST_FACTOR_CAP

# the last four are spellings that the parsers accept: padding, a sign, a
# decimal and a non-ASCII digit
NUMBERS = ["0", "1", "-1", "2", "-2", "3", "-3", "4", "5", "6", "-7", "12", "-15", "283", "10007",
           "1/2", "-3/4", "2/3", "4/6", " 5 ", "+3", "1.5", "٣"]
PLACES = ["2", "3", "5", "7", "283", "10007", "inf", "Inf"]
BAD = ["", " ", "x", "1/0", "1e3", "1_0", "-inf", "4", "1^2,1,1", "bogus"]
CAPS = [str(n) for n in (P2048, 2**2048 + 1, AT_FACTOR_CAP, PAST_FACTOR_CAP, 3**9000)]
STATUS_EXIT = {"ok": 0, "input_error": 1, "effort_exceeded": 3}


def atoms(good, caps=()):
    """One of good or, when a draw from 0..15 hits 5, an atom that is
    malformed or out of range for some key; when it hits 6 or 7, one of
    caps, if given."""
    return st.integers(0, 15).flatmap(
        lambda k: st.sampled_from(BAD if k == 5 else caps if k in (6, 7) and caps else good))


@st.composite
def grams(draw):
    if draw(st.integers(0, 7)) == 6:  # one entry at or past a cap
        return draw(st.sampled_from(CAPS))
    n = draw(st.integers(1, 3))
    cells = {(i, j): draw(atoms(NUMBERS[:19])) for i in range(n) for j in range(i, n)}
    rows = [[cells[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    if draw(st.integers(0, 15)) == 5:  # a ragged or asymmetric matrix
        rows[-1] = rows[-1][:-1] if draw(st.booleans()) else ["9"] + rows[-1][1:]
    text = [",".join(row) for row in rows]
    if n > 1 and draw(st.integers(0, 7)) == 5:  # an empty row between two others
        text.insert(draw(st.integers(1, n - 1)), "")
    return ";".join(text)


@st.composite
def polys(draw):
    coeffs = [draw(atoms(NUMBERS[:19])) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.integers(0, 7)):  # mostly monic, as tracefield and embedding need
        coeffs.append("1")
    return ",".join(coeffs)


def values_for(key: str):
    """A strategy for one parameter, chosen by its key; any other key draws
    numbers."""
    if key.startswith("gram"):
        return grams()
    if key == "poly":
        return polys()
    if key == "degrees":
        return st.lists(atoms(["1", "2", "3", "4"]), min_size=1, max_size=3).map(",".join)
    if key in ("n", "d"):
        return atoms(["2", "3", "4", "6", "100"])
    if key in ("p", "place"):
        return atoms(PLACES, CAPS)
    if key == "type":
        return atoms(list(JEHANNE_TYPES))
    return atoms(NUMBERS)


@st.composite
def requests(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    spec = COMMANDS[name]
    # every required key and one optional key are given, and the other
    # optional keys left out, except where a draw from 0..15 hits 5
    one = draw(st.sampled_from(spec.optional or (None,)))
    keys = [key for key in spec.params
            if (draw(st.integers(0, 15)) == 5) != (key == one or key not in spec.optional)]
    return name, {key: draw(values_for(key)) for key in keys}


def single_shot(name: str, params: dict) -> tuple[int, str, str]:
    argv = name.split("-", 1) + [f"--{key.replace('_', '-')}={value}" for key, value in params.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv + ["--json"])
    return code, out.getvalue(), err.getvalue()


def cap_examples(test):
    """Every cap atom as a place and as a rank-1 Gram matrix, after a warm-up
    line that names the same integer."""
    for cap in CAPS:
        for request in (("hilbert", {"a": "2", "b": "3", "place": cap}), ("form-invariants", {"gram": cap})):
            test = example(request, ("jehanne", {"p": cap, "type": "1^4", "disc": "5"}))(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(requests(), requests())
@cap_examples
def test_batch_and_single_shot_agree_and_never_fail_internally(request, warm_up):
    name, params = request
    line = json.dumps({"command": name, "parameters": params})
    arith.is_prime.cache_clear()
    arith._factor_positive.cache_clear()
    report = _process_request_line(line)
    assert report["status"] in STATUS_EXIT, report
    if any(";;" in value for key, value in params.items() if key.startswith("gram")):
        assert report["status"] == "input_error", report
    text = dump_report(report)
    _process_request_line(json.dumps({"command": warm_up[0], "parameters": warm_up[1]}))
    assert dump_report(_process_request_line(line)) == text
    code, out, err = single_shot(name, params)
    if report["status"] == "ok":
        assert (code, out, err) == (0, text + "\n", ""), (line, err)
    else:
        assert code == STATUS_EXIT[report["status"]], (line, report, code, err)
        assert out == "" and err.startswith("error: "), (line, report, err)


def run_ok_or_error(name: str, params: dict) -> tuple:
    report = _process_request_line(json.dumps({"command": name, "parameters": params}))
    assert report["status"] in STATUS_EXIT, report
    return report["status"], report.get("outputs"), report.get("error")


RATIONALS = [Fraction(x) for x in NUMBERS[:18]]


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 3))
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.sampled_from(RATIONALS))
    return g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(symmetric_matrices(), st.randoms(use_true_random=False))
def test_congruent_gram_matrices_give_the_same_form_invariants(g, rng):
    n = len(g)
    u = random_unimodular(rng, n, steps=4)
    gu = [[sum(g[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ugu = [[sum(u[k][i] * gu[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    texts = [";".join(",".join(str(x) for x in row) for row in m) for m in (g, ugu)]
    first, second = (run_ok_or_error("form-invariants", {"gram": text}) for text in texts)
    assert first == second, texts


def shifted(coeffs: list, t: Fraction) -> list:
    """The ascending coefficients of f(x + t), by Horner's rule."""
    out = []
    for c in reversed(coeffs):
        # out * (x + t) + c
        out = [a + t * b for a, b in zip([Fraction(0)] + out, out + [Fraction(0)])]
        out[0] += c
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(RATIONALS), min_size=1, max_size=4),
       st.sampled_from([Fraction(x) for x in ("1", "-1", "2", "-3", "1/2", "-2/3", "3/4")]))
def test_shifted_polynomials_give_the_same_trace_form_invariants(coeffs, t):
    coeffs = coeffs + [Fraction(1)]
    texts = [",".join(str(c) for c in f) for f in (coeffs, shifted(coeffs, t))]
    first, second = (run_ok_or_error("tracefield", {"poly": text}) for text in texts)
    assert first[0] == second[0] and first[2] == second[2], texts
    if first[0] == "ok":
        assert first[1]["invariants"] == second[1]["invariants"], texts
