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
import sys
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {workload: pin(batch_lines(workload, Path(tmp))) for workload in WORKLOADS}
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
