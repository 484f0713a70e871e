"""Tests of the benchmark itself (not of hassewitt).

    python3 -m pytest bench/test_bench.py
"""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibration  # noqa: E402
import client  # noqa: E402
import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_corpus(workload):
    a = corpus.corpus_bytes(corpus.generate(workload, 7, 40))
    b = corpus.corpus_bytes(corpus.generate(workload, 7, 40))
    assert a == b


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_other_seed_other_corpus(workload):
    a = corpus.corpus_bytes(corpus.generate(workload, 7, 40))
    b = corpus.corpus_bytes(corpus.generate(workload, 8, 40))
    assert a != b


def test_metric_names_and_manifest():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END_UNITS)
    assert layers == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    names = e2e + layers + [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]


def test_traced_run_reports_every_per_layer_metric():
    names = tracing.span_names()
    client_run = {
        "trace": {"calls": dict.fromkeys(names, 1), "self_ns": dict.fromkeys(names, 1000),
                  "factor_calls": 2, "factor_distinct": 1},
        "latency_ns": [1000, 2000], "segment_of": [0, 0], "segments": [[2, 3000]],
        "calibration_ns": [calibration.REFERENCE_NS] * 2, "commands": ["hilbert", "delta"],
    }
    assert list(run._layer_metrics(client_run, client_run)) == run.per_layer_names()


def test_oracle_hilbert_known_values():
    two = oracle.Fac.of(1, {2: 1})
    minus = oracle.Fac(-1, ())
    assert oracle.cup(minus, minus) == frozenset({2, oracle.INF})
    assert oracle.cup(two, oracle.Fac.of(-1, {283: 1})) == frozenset({2, 283})  # 283 = 3 mod 8
    assert oracle.hilbert_plain(Fraction(3), Fraction(3), 3) == -1
    assert oracle.hilbert_plain(Fraction(5), Fraction(2), 5) == -1
    assert oracle.hilbert_plain(Fraction(5), Fraction(2), 2) == -1


def test_oracle_hilbert_matches_brute_force():
    """(a, b)_p for odd p by searching for a nontrivial zero of
    z^2 - a x^2 - b y^2 modulo p^3, for units and uniformizers."""
    for p in (3, 5, 7):
        for a in (1, 2, 3, p, 2 * p, p - 1):
            for b in (1, 2, 3, p, 3 * p, p - 1):
                want = oracle.hilbert_plain(Fraction(a), Fraction(b), p)
                assert want == _brute_hilbert(a, b, p), (a, b, p)


def _brute_hilbert(a: int, b: int, p: int) -> int:
    # a primitive solution mod p^3 lifts for p odd and valuations <= 1
    m = p ** 3
    squares = {}
    for z in range(m):
        squares.setdefault(z * z % m, []).append(z)
    for x in range(m):
        for y in range(m):
            rhs = (a * x * x + b * y * y) % m
            for z in squares.get(rhs, ()):
                if x % p or y % p or z % p:
                    return 1
    return -1


def test_motive_oracle_closed_form():
    for n in range(2, 40, 2):
        for d in range(1, 7):
            chi = oracle.ci_euler(n, (d,))
            assert chi == n + 2 + ((1 - d) ** (n + 2) - 1) // d


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_check_accepts_program_and_rejects_tampering(workload):
    """check() passes the program's reports and fails a changed answer."""
    for item in corpus.generate(workload, 3, 12):
        report = client.handle(item.line())
        assert corpus.check(item, report) is None, item.request
        tampered = json.loads(json.dumps(report))
        _tamper(tampered["outputs"])
        assert corpus.check(item, tampered) is not None, item.request


def _tamper(outputs: dict) -> None:
    for key in ("disc", "symbol", "isometric", "chi", "delta1", "disc_field", "field_disc", "w2_p", "pattern"):
        if key in outputs:
            value = outputs[key]
            if isinstance(value, bool):
                outputs[key] = not value
            elif isinstance(value, int):
                outputs[key] = -value if value not in (0,) else 1
            else:
                outputs[key] = value + [[1, 1]]
            return
    raise AssertionError(f"nothing to tamper in {sorted(outputs)}")


def test_defect_probes_are_well_formed():
    assert [i.request["parameters"]["place"] for i in corpus.defect_probes("symbols", 1)] == [
        corpus.PSI12, corpus.PSI13]
    assert not oracle.is_probable_prime(corpus.PSI12)
    assert not oracle.is_probable_prime(corpus.PSI13)
    (probe,) = corpus.defect_probes("fields", 1)
    assert probe.request["command"] == "tracefield"
