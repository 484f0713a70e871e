"""Golden outputs.  Seed 1's first 3,000 ``forms``, ``fields`` and
``symbols`` bench requests, run through ``hassewitt batch``, give the
reports that ``golden_reports.json`` pins, byte for byte.

The requests come from ``generate`` in ``bench/corpus.py``, imported from
the checkout (as ``test_exports.py`` reads ``bench/tracing.py``), so the
package under test may be the installed one.  Each workload's pin is the
sha256 of the whole output plus a 16-bit fingerprint of each report line,
so a mismatch names the first request whose report changed.  A change that
alters reports on purpose rewrites the pins by running this file:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hassewitt import cli

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).with_name("golden_reports.json")
SEED, COUNT = 1, 3000
WORKLOADS = ("forms", "fields", "symbols")
WIDTH, ROW = 4, 64  # hex digits per report fingerprint, fingerprints per row of the pin file


def batch_lines(workload: str, directory: Path) -> list[bytes]:
    """The report lines of ``hassewitt batch`` on the workload's corpus."""
    bench = str(ROOT / "bench")
    sys.path.insert(0, bench)
    try:
        import corpus
    finally:
        sys.path.remove(bench)
    infile, outfile = directory / "in.jsonl", directory / "out.jsonl"
    infile.write_bytes(corpus.corpus_bytes(corpus.generate(workload, SEED, COUNT)))
    assert cli.run_batch(str(infile), str(outfile)) == 0
    return outfile.read_bytes().splitlines(keepends=True)


def pin(lines: list[bytes]) -> dict:
    prints = "".join(hashlib.sha256(line).hexdigest()[:WIDTH] for line in lines)
    step = WIDTH * ROW
    return {"sha256": hashlib.sha256(b"".join(lines)).hexdigest(),
            "reports": [prints[i:i + step] for i in range(0, len(prints), step)]}


def fingerprints(pinned: dict) -> list[str]:
    prints = "".join(pinned["reports"])
    return [prints[i:i + WIDTH] for i in range(0, len(prints), WIDTH)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_batch_reports_match_the_golden_pins(workload, tmp_path):
    lines = batch_lines(workload, tmp_path)
    got, want = pin(lines), json.loads(PINS.read_text(encoding="utf-8"))[workload]
    if got == want:
        return
    new, old = fingerprints(got), fingerprints(want)
    changed = next((k for k, (a, b) in enumerate(zip(new, old)) if a != b), min(len(new), len(old)))
    if changed < len(lines):
        line = lines[changed].decode()
        raise AssertionError(f"{workload}: report {changed} (id {json.loads(line)['id']}) changed "
                             f"({len(lines)} reports, {len(old)} pinned); it now reads {line[:400]}")
    if len(new) != len(old):
        raise AssertionError(f"{workload}: {len(lines)} reports, {len(old)} pinned")
    raise AssertionError(f"{workload}: the output's sha256 changed, but no report fingerprint did")


# dump_report writes every report with one encoder built at import; the
# bytes are those of a JSONEncoder with the same options, built per call
REFERENCE_OPTIONS = dict(sort_keys=True, separators=(",", ":"), check_circular=False)
AWKWARD_REQUESTS = (
    # non-ASCII and control characters, echoed in the id, the inputs and the error
    '{"id": "r\\u00e9\\u0007", "command": "hilbert", "parameters": {"a": "3\\u00e9\\n", "b": NaN, "place": Infinity}}',
    '{"id": 1.5, "command": "h\\u00e9\\u2028\\u0000", "parameters": {"x": -Infinity, "y": [], "z": {}, "w": 2.5e-300}}',
    '{"id": null, "command": "form-invariants", "parameters": {"gram": "1,0;0,\\u00e9\\t"}}',
    '{"id": [], "command": "hilbert", "parameters": {"a": NaN, "b": 1, "place": "inf"}}',
    '{"id": {}, "command": "hilbert", "parameters": {"a": -1, "b": -1, "place": "inf"}}',
)


@pytest.mark.parametrize("line", AWKWARD_REQUESTS)
def test_dump_report_writes_the_bytes_of_json_encoder(line):
    report = cli._process_request_line(line)
    assert cli.dump_report(report) == json.JSONEncoder(**REFERENCE_OPTIONS).encode(report)


def test_dump_report_writes_an_int_past_the_digit_limit_and_restores_the_limit():
    report = cli.make_report(7, "hypersurface", {"n": 2}, {"chi": -(7**6000), "betti": [], "w": {}})
    saved = sys.get_int_max_str_digits()
    with pytest.raises(ValueError):
        json.JSONEncoder(**REFERENCE_OPTIONS).encode(report)
    text = cli.dump_report(report)
    assert sys.get_int_max_str_digits() == saved
    sys.set_int_max_str_digits(0)
    try:
        assert text == json.JSONEncoder(**REFERENCE_OPTIONS).encode(report)
    finally:
        sys.set_int_max_str_digits(saved)


def test_dump_report_encodes_an_int_past_the_digit_limit_twice(monkeypatch):
    # once with the limit in force, which fails, and once with it lifted
    calls = []
    encode = cli._encode
    monkeypatch.setattr(cli, "_encode", lambda report: calls.append(report) or encode(report))
    cli.dump_report({"chi": -(7**6000)})
    assert len(calls) == 2


def test_dump_report_refuses_what_json_encoder_refuses():
    report = cli.make_report(1, "hilbert", {"a": Fraction(1, 3)})
    with pytest.raises(TypeError) as want:
        json.JSONEncoder(**REFERENCE_OPTIONS).encode(report)
    with pytest.raises(TypeError) as got:
        cli.dump_report(report)
    assert str(got.value) == str(want.value) == "Object of type Fraction is not JSON serializable"


def test_dump_report_builds_no_encoder_per_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("an encoder was built after import")

    report = cli._process_request_line(AWKWARD_REQUESTS[0])
    want = cli.dump_report(report)
    monkeypatch.setattr(json.encoder, "c_make_encoder", refuse)
    assert cli.dump_report(report) == want


def test_dump_report_without_the_c_accelerator_writes_the_same_bytes():
    # the encoder is chosen at import, so the fallback runs in a fresh interpreter
    code = ("import json.encoder, sys; json.encoder.c_make_encoder = None\n"
            "from hassewitt import cli\n"
            "assert cli._encode == cli._ENCODER.encode\n"
            "print('\\n'.join(cli.dump_report(cli._process_request_line(line)) for line in sys.argv[1:]))")
    got = subprocess.run([sys.executable, "-c", code, *AWKWARD_REQUESTS],
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert got.splitlines() == [cli.dump_report(cli._process_request_line(line)) for line in AWKWARD_REQUESTS]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {workload: pin(batch_lines(workload, Path(tmp))) for workload in WORKLOADS}
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
