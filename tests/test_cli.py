import argparse
import io
import json
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hassewitt import arith, cli
from hassewitt.cli import (
    COMMANDS,
    _build_parser,
    _error_text,
    _process_request_line,
    dump_report,
    execute,
    parse_gram,
    parse_rational,
    run,
)
from hassewitt.cohomology import Place, hilbert_symbol
from hassewitt.errors import DomainError
from hassewitt.forms import QuadraticForm, invariants

from oracles import JEHANNE_TYPES


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_single_shot(capsys):
    code, out, err = run_capture(capsys, ["hilbert", "--a", "-1", "--b", "-1", "--place", "inf"])
    assert code == 0
    assert out.strip() == "-1"


def test_hilbert_json(capsys):
    code, out, _ = run_capture(capsys, ["hilbert", "--a", "2", "--b", "-283", "--place", "283", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["outputs"] == {"symbol": -1}
    assert report["command"] == "hilbert"
    assert report["id"] is None


def test_hilbert_proves_place_prime_once(monkeypatch):
    p = 2**100 - 15
    calls = []
    real = arith.is_prime

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    # both entries have odd valuation, so both unit Legendre symbols are taken
    outputs, _ = execute("hilbert", {"a": 3 * p, "b": 5 * p, "place": p})
    assert calls == [p]
    calls.clear()
    assert hilbert_symbol(3 * p, 5 * p, Place.finite(p)) == outputs["symbol"]
    assert calls == [p]


def test_hilbert_runner_builds_no_fraction(monkeypatch):
    def refused(value):
        raise AssertionError(f"parse_rational({value!r})")

    monkeypatch.setattr(cli, "parse_rational", refused)
    for a, b, place in (("3/4", -7, 7), ("-6/8", "5/3", 3), (2, "-1/2", 2), ("-1", -1, "inf"), (12, 18, 5)):
        outputs, _ = execute("hilbert", {"a": a, "b": b, "place": place})
        want = hilbert_symbol(Fraction(a), Fraction(b), Place.parse(place))
        assert outputs == {"symbol": want}, (a, b, place)
    # errors keep their order: a, b, place, then the nonzero check
    for params, error in (({"a": "x", "b": "y", "place": 4}, "cannot parse rational 'x'"),
                          ({"a": 0, "b": "y", "place": 4}, "cannot parse rational 'y'"),
                          ({"a": 0, "b": 1, "place": 4}, "4 is not prime"),
                          ({"a": "0/3", "b": 1, "place": 5}, "Hilbert symbol entries must be nonzero")):
        with pytest.raises(DomainError) as info:
            execute("hilbert", params)
        assert str(info.value) == error


def _broken_hilbert_symbol(a, b, v):
    raise ZeroDivisionError("boom" * 75)


# "ZeroDivisionError: " plus 300 characters, cut after 200
CUT_INTERNAL_ERROR = "ZeroDivisionError: " + ("boom" * 75)[:181] + "… (319 characters)"


def test_internal_error_names_the_exception_type_in_batch(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "hilbert_symbol", _broken_hilbert_symbol)
    infile, outfile = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    infile.write_text(json.dumps({"id": 1, "command": "hilbert", "parameters": {"a": 2, "b": 3, "place": 5}}) + "\n"
                      + json.dumps({"id": 2, "command": "hypersurface", "parameters": {"n": 2, "d": 3}}) + "\n")
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    first, second = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert (first["status"], first["error"]) == ("internal_error", CUT_INTERNAL_ERROR)
    assert (second["id"], second["status"]) == (2, "ok")


def test_internal_error_names_the_exception_type_single_shot(monkeypatch, capsys):
    monkeypatch.setattr(cli, "hilbert_symbol", _broken_hilbert_symbol)
    code, out, err = run_capture(capsys, ["hilbert", "--a", "2", "--b", "3", "--place", "5"])
    assert (code, out, err) == (2, "", f"internal error: {CUT_INTERNAL_ERROR}\n")


def test_composite_place_reads_not_prime_and_a_bad_token_reads_cannot_parse(tmp_path, capsys):
    psi12 = "318665857834031151167461"  # 399165290221 * 798330580441, a strong pseudoprime to 2..37
    cases = [("15", "15 is not prime"), (" 15 ", "15 is not prime"), (psi12, f"{psi12} is not prime"),
             ("1", "1 is not prime"), ("x", "cannot parse place 'x'"), ("1.5", "cannot parse place '1.5'")]
    for token, error in cases:
        with pytest.raises(DomainError) as info:
            Place.parse(token)
        assert str(info.value) == error, token
        code, out, err = run_capture(capsys, ["hilbert", "--a", "2", "--b", "3", "--place", token])
        assert (code, out, err) == (1, "", f"error: {error}\n"), token
    infile, outfile = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    infile.write_text("".join(json.dumps({"id": i, "command": "hilbert", "parameters": {"a": 2, "b": 3, "place": token}})
                              + "\n" for i, (token, _) in enumerate(cases)))
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    reports = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert [(r["status"], r["error"]) for r in reports] == [("input_error", error) for _, error in cases]


def test_embedding_golden(capsys):
    code, out, _ = run_capture(capsys, ["embedding", "--poly", "-1,1,0,0,1", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    outputs = report["outputs"]
    assert outputs["lift_solvable"] is False
    assert outputs["lift_delta_solvable"] is True
    assert outputs["w2_trace"] == [2, 283]
    assert report["assumptions"]


def test_hypersurface_golden(capsys):
    code, out, _ = run_capture(capsys, ["hypersurface", "--n", "2", "--d", "3", "--json"])
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["chi"] == 9
    assert outputs["b_n"] == 7
    assert outputs["w2_qB"] == [2, "inf"]


def test_hypersurface_degrees(capsys):
    code, out, _ = run_capture(capsys, ["hypersurface", "--n", "2", "--degrees", "2,3", "--json"])
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["chi"] == 24
    assert outputs["delta1"] is None


def test_form_subcommands(capsys):
    code, out, _ = run_capture(capsys, ["form", "invariants", "--gram", "2,0;0,-6", "--json"])
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["disc"] == -3
    assert outputs["w2"] == [2, 3]

    code, out, _ = run_capture(capsys, ["form", "isometric", "--gram1", "1,0;0,1", "--gram2", "2,0;0,2"])
    assert code == 0
    assert out.strip() == "isometric"

    code, out, _ = run_capture(capsys, ["form", "isometric", "--gram1", "1,0;0,1", "--gram2", "1,0;0,-1"])
    assert code == 0
    assert out.strip() == "not isometric"


def test_isometric_forms_give_identical_reports():
    # <5, 5> is isometric to <1, 1>: the hasse_local key set must not see the 5
    out1 = dump_report(execute("form-invariants", {"gram": "5,0;0,5"})[0])
    out2 = dump_report(execute("form-invariants", {"gram": "1,0;0,1"})[0])
    assert out1 == out2


def test_tracefield(capsys):
    code, out, _ = run_capture(capsys, ["tracefield", "--poly", "-1,1,0,0,1", "--json"])
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["disc_field"] == -283
    assert outputs["signature"] == [3, 1]
    assert outputs["gram"][0] == [4, 0, 0, -3]


def test_tracefield_discriminant_split_by_ecm(capsys):
    # x^2 - 3*134217757*536883271: the 57-bit semiprime has no factor below
    # 10**4, p - 1 finds neither prime, and the first ECM rung splits it
    code, out, _ = run_capture(capsys, ["tracefield", "--poly", "-216177805213329441,0,1", "--json"])
    assert code == 0
    assert out.strip() == (
        '{"assumptions":[],"command":"tracefield","id":null,"inputs":{"poly":"-216177805213329441,0,1"},'
        '"outputs":{"disc_field":216177805213329441,"gram":[[2,0],[0,432355610426658882]],'
        '"invariants":{"disc":216177805213329441,"hasse_local":{"134217757":-1,"2":1,"3":-1,"536883271":1},'
        '"rank":2,"signature":[2,0],"w1":216177805213329441,"w2":[3,134217757]},"signature":[2,0]},"status":"ok"}')


def test_jehanne(capsys):
    code, out, _ = run_capture(capsys, ["jehanne", "--p", "283", "--type", "1^2,1,1", "--disc", "-283", "--json"])
    assert code == 0
    assert json.loads(out)["outputs"] == {"symbol_p": -1, "w2_p": -1}


@pytest.mark.parametrize("type_name", JEHANNE_TYPES)
def test_jehanne_zero_discriminant_is_input_error(tmp_path, capsys, type_name):
    error = "the field discriminant must be nonzero"
    code, out, err = run_capture(capsys, ["jehanne", "--p", "7", "--type", type_name, "--disc", "0", "--json"])
    assert (code, out, err) == (1, "", f"error: {error}\n")
    infile, outfile = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    infile.write_text(
        json.dumps({"id": 1, "command": "jehanne", "parameters": {"p": 7, "type": type_name, "disc": 0}}) + "\n"
        + json.dumps({"id": 2, "command": "jehanne", "parameters": {"p": 7, "type": type_name, "disc": -283}}) + "\n")
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    bad, good = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert bad["status"] == "input_error" and bad["error"] == error
    assert good["status"] == "ok" and good["id"] == 2


def test_delta(capsys):
    code, out, _ = run_capture(capsys, ["delta", "--gram-omega", "1,0;0,1", "--gram-eta", "2,0;0,-6", "--json"])
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert outputs["delta1"] == -3


def test_input_errors_exit_one(capsys):
    for argv in (
        ["hilbert", "--a", "0", "--b", "1", "--place", "inf"],
        ["hilbert", "--a", "1", "--b", "1", "--place", "9"],
        ["form", "invariants", "--gram", "1,1;1,1"],
        ["form", "invariants", "--gram", "nonsense"],
        ["embedding", "--poly", "-1,0,1"],
        ["tracefield", "--poly", "0,0,1"],
        ["jehanne", "--p", "2", "--type", "1^4", "--disc", "-4"],
        ["hypersurface", "--n", "3", "--d", "2"],
        ["hypersurface", "--n", "2"],
        ["delta", "--gram-omega", "1", "--gram-eta", "1,0;0,1"],
        ["nonsense-command"],
    ):
        code, out, err = run_capture(capsys, argv)
        assert code == 1, argv
        assert err.strip(), argv


def test_report_determinism(capsys):
    argv = ["embedding", "--poly", "-1,-2,0,1,1", "--json"]
    code1, out1, _ = run_capture(capsys, argv)
    code2, out2, _ = run_capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    parsed = json.loads(out1)
    assert dump_report(parsed) == out1.strip()  # canonical form: sorted keys


def test_execute_rejects_unknown():
    from hassewitt.cli import CLIInputError

    with pytest.raises(CLIInputError):
        execute("frobnicate", {})
    with pytest.raises(CLIInputError):
        execute("hilbert", {"a": 1, "b": 2})  # missing place
    with pytest.raises(CLIInputError):
        execute("hilbert", {"a": 1, "b": 2, "place": 3, "bogus": True})


def test_batch_roundtrip(tmp_path, capsys):
    requests = [
        {"id": "r1", "command": "hilbert", "parameters": {"a": -1, "b": -1, "place": "inf"}},
        {"id": "r2", "command": "hypersurface", "parameters": {"n": 2, "d": 3}},
        {"id": "r3", "command": "form-isometric", "parameters": {"gram1": "1,0;0,1", "gram2": "2,0;0,2"}},
    ]
    infile = tmp_path / "in.jsonl"
    outfile = tmp_path / "out.jsonl"
    infile.write_text("\n".join(json.dumps(r) for r in requests) + "\n")
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    lines = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert [r["id"] for r in lines] == ["r1", "r2", "r3"]
    assert all(r["status"] == "ok" for r in lines)
    assert lines[0]["outputs"]["symbol"] == -1
    assert lines[1]["outputs"]["b_n"] == 7
    assert lines[2]["outputs"]["isometric"] is True


def test_batch_malformed_line_keeps_going(tmp_path, capsys):
    infile = tmp_path / "in.jsonl"
    outfile = tmp_path / "out.jsonl"
    infile.write_text(
        json.dumps({"id": "a", "command": "hilbert", "parameters": {"a": 3, "b": 5, "place": 7}})
        + "\n{this is not json\n"
        + json.dumps({"id": "c", "command": "hilbert", "parameters": {"a": 3, "b": 5, "place": "inf"}})
        + "\n"
    )
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    lines = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert len(lines) == 3
    statuses = [r["status"] for r in lines]
    assert statuses.count("ok") == 2
    assert statuses.count("input_error") == 1
    bad = next(r for r in lines if r["status"] == "input_error")
    assert "outputs" not in bad
    assert bad["error"]


def test_batch_oversize_integer_literal_is_input_error(tmp_path, capsys):
    # json.loads refuses integer literals past Python's 4,300-digit limit
    infile = tmp_path / "in.jsonl"
    outfile = tmp_path / "out.jsonl"
    big = "7" * 5000
    infile.write_text(
        '{"id": "big", "command": "hilbert", "parameters": {"a": ' + big + ', "b": 3, "place": 5}}\n'
        + json.dumps({"id": "next", "command": "hilbert", "parameters": {"a": 3, "b": 5, "place": 7}})
        + "\n"
    )
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    bad, good = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert bad["status"] == "input_error"
    assert bad["id"] is None
    assert "4300" in bad["error"]
    assert good["status"] == "ok"
    assert good["id"] == "next"


# Fraction would read these as integers of 100,001 and 10**9 + 1 digits
EXPONENT_LITERALS = ("1e100000", "1e1000000000")


@pytest.mark.parametrize("literal", EXPONENT_LITERALS)
def test_batch_exponent_literal_is_input_error(tmp_path, capsys, literal):
    infile = tmp_path / "in.jsonl"
    outfile = tmp_path / "out.jsonl"
    requests = [
        {"id": "h", "command": "hilbert", "parameters": {"a": literal, "b": 3, "place": 5}},
        {"id": "f", "command": "form-invariants", "parameters": {"gram": [[literal]]}},
        {"id": "next", "command": "hilbert", "parameters": {"a": 3, "b": 5, "place": 7}},
    ]
    infile.write_text("".join(json.dumps(r) + "\n" for r in requests))
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    hilbert, form, good = [json.loads(line) for line in outfile.read_text().splitlines()]
    for bad in (hilbert, form):
        assert bad["status"] == "input_error"
        assert bad["error"] == f"exponent notation is not accepted, write p/q: '{literal}'"
    assert good["status"] == "ok"


@pytest.mark.parametrize("literal", EXPONENT_LITERALS)
def test_exponent_literal_exits_one(capsys, literal):
    for argv in (
        ["hilbert", "--a", literal, "--b", "3", "--place", "5"],
        ["hilbert", "--a", "3", "--b", literal.upper(), "--place", "inf"],
        ["form", "invariants", "--gram", f"1,0;0,{literal}"],
    ):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, ""), argv
        assert "exponent notation" in err, argv


def test_batch_empty_file(tmp_path, capsys):
    infile = tmp_path / "in.jsonl"
    outfile = tmp_path / "out.jsonl"
    infile.write_text("")
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    assert outfile.read_text() == ""


def test_batch_bad_command_and_params(tmp_path, capsys):
    infile = tmp_path / "in.jsonl"
    outfile = tmp_path / "out.jsonl"
    infile.write_text(
        "\n".join(
            [
                json.dumps({"id": 1, "command": "nope", "parameters": {}}),
                json.dumps({"id": 2, "command": "hilbert", "parameters": {"a": 0, "b": 1, "place": 2}}),
                json.dumps({"id": 3, "parameters": {}}),
                json.dumps(["not", "an", "object"]),
            ]
        )
        + "\n"
    )
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    lines = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert len(lines) == 4
    assert all(r["status"] == "input_error" for r in lines)
    assert [r["id"] for r in lines] == [1, 2, 3, None]


def test_batch_leaves_stdio_open(monkeypatch):
    request = {"id": "s", "command": "hilbert", "parameters": {"a": -1, "b": -1, "place": "inf"}}
    stdin, stdout = io.StringIO(json.dumps(request) + "\n"), io.StringIO()
    monkeypatch.setattr(sys, "stdin", stdin)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["batch", "--in", "-", "--out", "-"]) == 0
    assert not stdin.closed and not stdout.closed
    assert json.loads(stdout.getvalue())["outputs"] == {"symbol": -1}


def test_batch_unreadable_file(tmp_path, capsys):
    code, _, err = run_capture(capsys, ["batch", "--in", str(tmp_path / "missing.jsonl"), "--out", "-"])
    assert code == 1
    assert err.strip()


def test_help_exits_zero(capsys):
    leaves = [[*name.split("-"), "--help"] for name in COMMANDS]
    for argv in (["--help"], ["form", "--help"], *leaves, ["batch", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


def test_module_entry_point(tmp_path):
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "hassewitt", "hilbert", "--a", "-1", "--b", "-1", "--place", "inf"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-1"


def test_batch_determinism(tmp_path, capsys):
    infile = tmp_path / "in.jsonl"
    request = {"id": "x", "command": "tracefield", "parameters": {"poly": "-1,1,0,0,1"}}
    infile.write_text(json.dumps(request) + "\n")
    outs = []
    for name in ("out1.jsonl", "out2.jsonl"):
        outfile = tmp_path / name
        code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
        assert code == 0
        outs.append(outfile.read_text())
    assert outs[0] == outs[1]


def _subcommands(parser) -> dict:
    """name -> parser of the subcommands of an argparse parser, in order."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_table_params_are_leaf_flags():
    top = _subcommands(_build_parser())
    # the form group is created with its first leaf, so the table's order holds
    assert list(top) == ["hilbert", "form", "tracefield", "embedding", "jehanne", "hypersurface", "delta",
                         "batch"]
    for name, spec in COMMANDS.items():
        group, _, leaf = name.partition("-")
        parser = _subcommands(top[group])[leaf] if leaf else top[name]
        flags = {a.option_strings[0]: a for a in parser._actions if a.option_strings}
        assert set(flags) == {"-h", "--json", *("--" + key.replace("_", "-") for key in spec.params)}, name
        for key in spec.params:
            action = flags["--" + key.replace("_", "-")]
            assert action.dest == key, name
            assert action.required == (key not in spec.optional), name


# Human output of the non-batch README examples, captured before the command
# table replaced the per-command argparse leaves.
GOLDEN_HUMAN = [
    ("hilbert --a -1 --b -1 --place inf", "-1\n"),
    ("hilbert --a 2 --b -283 --place 283", "-1\n"),
    ('form invariants --gram "2,0;0,-6"',
     "rank: 2\nsignature: (1, 1)\ndisc: -3\nw1: -3\nw2: {2, 3}\nhasse_local: 2: -1, 3: -1\n"),
    ('form isometric --gram1 "1,0;0,1" --gram2 "2,0;0,2"', "isometric\n"),
    ('tracefield --poly "-1,1,0,0,1"',
     "gram: [[4, 0, 0, -3], [0, 0, -3, 4], [0, -3, 4, 0], [-3, 4, 0, 3]]\ndisc_field: -283\nsignature: (3, 1)\n"
     "invariants: rank: 4, signature: [3, 1], disc: -283, w1: -283, w2: [2, 283], "
     "hasse_local: {'2': -1, '283': -1}\n"),
    ('embedding --poly "-1,1,0,0,1"',
     "field_disc: -283\nsw2: {}\nsp2: {2, 283}\nw2_trace: {2, 283}\nlift_solvable: False\n"
     "lift_delta_solvable: True\nlocal_table: 2: [-1, -1], 283: [-1, -1], inf: [1, 1]\n"),
    ('jehanne --p 283 --type "1^2,1,1" --disc -283', "w2_p: -1\nsymbol_p: -1\n"),
    ("hypersurface --n 2 --d 3",
     "chi: 9\nb_n: 7\ntau_mod8: 3\nm: 4\nm_prime: 2\nw1_qB: 1\nw2_qB: {2, inf}\n"
     "delta1: numeric: -1, tokens: ['disc_d(f)']\ndelta2: numeric: [2, 'inf'], tokens: ['w2(q_dR)']\n"),
    ("hypersurface --n 2 --degrees 2,3",
     "chi: 24\nb_n: 22\ntau_mod8: 0\nm: 22\nm_prime: 11\nw1_qB: -1\nw2_qB: {2, inf}\n"
     "delta1: None\ndelta2: None\n"),
    ('delta --gram-omega "1,0;0,1" --gram-eta "2,0;0,-6"', "delta1: -3\ndelta2: {2, 3}\n"),
]


@pytest.mark.parametrize("line, expected", GOLDEN_HUMAN, ids=[line for line, _ in GOLDEN_HUMAN])
def test_human_output_golden(capsys, line, expected):
    argv = shlex.split(line)
    assert run_capture(capsys, argv) == (0, expected, "")
    code, out, _ = run_capture(capsys, argv + ["--json"])
    assert code == 0
    report = json.loads(out)
    # the --json report and the batch path read the same table entry
    assert report["outputs"] == execute(report["command"], report["inputs"])[0]


def test_readme_examples_run(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    examples = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hassewitt ")]
    examples = [argv for argv in examples if argv[0] != "batch"]
    assert examples
    for argv in examples:
        code, _, err = run_capture(capsys, argv)
        assert code == 0, (argv, err)


def test_long_input_echo_is_capped(capsys):
    code, out, err = run_capture(capsys, ["hilbert", "--a", "7" * 5000, "--b", "3", "--place", "5"])
    assert (code, out) == (1, "")
    # the message is "cannot parse rational '77...7'": 23 + 5000 + 1 characters
    assert err == "error: cannot parse rational '" + "7" * 177 + "… (5024 characters)\n"


def test_batch_long_input_echo_is_capped(tmp_path, capsys):
    infile = tmp_path / "in.jsonl"
    outfile = tmp_path / "out.jsonl"
    poly = "1," + "7" * 5000 + ",1"
    infile.write_text(json.dumps({"id": "t", "command": "tracefield", "parameters": {"poly": poly}}) + "\n")
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    report = json.loads(outfile.read_text())
    assert report["status"] == "input_error"
    assert report["error"] == "cannot parse rational '" + "7" * 177 + "… (5024 characters)"
    assert report["inputs"] == {"poly": poly}


# Gram entries on the integer parser's fast path and off it; each must give
# what one Fraction per entry through parse_rational gave.  They sit in
# [[x, 1], [1, 0]], whose determinant is -1 whatever x is, so that no
# request factors a 4,300-digit number.
BIG = "7" * 4300
GRAM_STRINGS = ("+5", "-0", " 7 ", "1_000", "1.5", "٣", "3/0", "3/-4", " 3 / 4 ", "0x10", "1e5", "",
                "4/6", "-12/8", "007", BIG, "-" + BIG + "/128", BIG + "7")
GRAM_JSON_ONLY = (True, 1.0, None, int(BIG), -int(BIG))


def _fraction_route(entry):
    """(form, None) or (None, error text) as parse_gram gave them through parse_rational."""
    try:
        return QuadraticForm([[parse_rational(entry), 1], [1, 0]]), None
    except DomainError as exc:
        return None, _error_text(exc)


@pytest.mark.parametrize("entry", GRAM_STRINGS + GRAM_JSON_ONLY)
def test_integer_gram_parser_matches_parse_rational(capsys, entry):
    want, error = _fraction_route(entry)
    try:
        got = parse_gram([[entry, 1], [1, 0]])
    except DomainError as exc:
        assert _error_text(exc) == error
    else:
        assert error is None
        assert (got, got.gram, got.to_json(), repr(got)) == (want, want.gram, want.to_json(), repr(want))

    line = json.dumps({"id": 1, "command": "form-invariants", "parameters": {"gram": [[entry, 1], [1, 0]]}})
    report = _process_request_line(line)
    if error is None:
        assert report["status"] == "ok" and report["outputs"] == invariants(want).to_json()
    else:
        assert report["status"] == "input_error" and report["error"] == error

    if isinstance(entry, str):
        code, out, err = run_capture(capsys, ["form", "invariants", f"--gram={entry},1;1,0", "--json"])
        if error is None:
            assert code == 0 and json.loads(out)["outputs"] == invariants(want).to_json()
        else:
            assert (code, out, err) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize("poly", ["1,,1", ",1,0,1", "1,0,1,", " ,0,1", ""])
def test_empty_polynomial_field_is_input_error(tmp_path, capsys, poly):
    """Every comma-separated field is a coefficient: an empty one is refused,
    since dropping it would move every later coefficient down a degree."""
    blank = next(field for field in poly.split(",") if not field.strip())
    error = f"cannot parse rational {blank!r}"
    for command in ("tracefield", "embedding"):
        code, out, err = run_capture(capsys, [command, f"--poly={poly}", "--json"])
        assert (code, out, err) == (1, "", f"error: {error}\n")
    infile, outfile = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    infile.write_text(json.dumps({"id": 1, "command": "tracefield", "parameters": {"poly": poly}}) + "\n"
                      + json.dumps({"id": 2, "command": "tracefield", "parameters": {"poly": "1,0,1"}}) + "\n")
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    first, second = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert (first["status"], first["error"], first["inputs"]) == ("input_error", error, {"poly": poly})
    assert (second["id"], second["status"], second["outputs"]["gram"]) == (2, "ok", [[2, 0], [0, -2]])


@pytest.mark.parametrize(
    "command, param, value",
    [
        ("form-invariants", "gram", "1,0;;0,1"),
        ("form-invariants", "gram", "1,0;0,1;"),
        ("form-invariants", "gram", "1, ;0,1"),
        ("form-invariants", "gram", ""),
        ("hypersurface", "degrees", "2,,3"),
        ("hypersurface", "degrees", "2,3,"),
        ("hypersurface", "degrees", ""),
    ],
)
def test_empty_gram_row_or_degree_is_input_error(tmp_path, capsys, command, param, value):
    """Every ;-separated row and every ,-separated field or degree is read:
    an empty one is refused, never dropped."""
    blank = next(f for row in value.split(";") for f in row.split(",") if not f.strip())
    error = f"cannot parse {'rational' if param == 'gram' else 'integer'} {blank!r}"
    fixed = {"n": 2} if command == "hypersurface" else {}
    argv = ["form", "invariants"] if command == "form-invariants" else [command, "--n", "2"]
    code, out, err = run_capture(capsys, argv + [f"--{param}={value}", "--json"])
    assert (code, out, err) == (1, "", f"error: {error}\n")
    good = "1,0;0,1" if param == "gram" else "2,3"
    infile, outfile = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    infile.write_text(json.dumps({"id": 1, "command": command, "parameters": {**fixed, param: value}}) + "\n"
                      + json.dumps({"id": 2, "command": command, "parameters": {**fixed, param: good}}) + "\n")
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    first, second = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert (first["status"], first["error"], first["inputs"][param]) == ("input_error", error, value)
    assert (second["id"], second["status"]) == (2, "ok")


def test_hypersurface_d_with_degrees_is_input_error(tmp_path, capsys):
    """d and degrees name the same input two ways; given both, neither is
    dropped in favour of the other."""
    error = "give d or degrees, not both"
    code, out, err = run_capture(capsys, ["hypersurface", "--n", "2", "--d", "3", "--degrees", "2,3", "--json"])
    assert (code, out, err) == (1, "", f"error: {error}\n")
    infile, outfile = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    infile.write_text(
        json.dumps({"id": 1, "command": "hypersurface", "parameters": {"n": 2, "d": 3, "degrees": "2,3"}}) + "\n"
        + json.dumps({"id": 2, "command": "hypersurface", "parameters": {"n": 2, "degrees": "2,3"}}) + "\n")
    code, _, _ = run_capture(capsys, ["batch", "--in", str(infile), "--out", str(outfile)])
    assert code == 0
    first, second = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert (first["status"], first["error"]) == ("input_error", error)
    assert (second["id"], second["status"], second["outputs"]["chi"]) == (2, "ok", 24)
