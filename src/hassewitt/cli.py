"""Command line surface.

Single-shot subcommands mirror the library operations one to one; batch
mode reads JSON-Lines requests ({"command": ..., "parameters": {...},
"id": ...}) and writes one report line per request.  Reports are emitted
with sorted keys and compact separators, so identical requests produce
byte-identical output.

Exit codes: 0 on success, 1 on input validation failure, 2 on an internal
invariant violation, 3 when a factoring or primality operand is past its
size limit or factoring gives up after its fixed work (batch status
``effort_exceeded``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple

from .cohomology import Place, hilbert_symbol
from .errors import DomainError, EffortExceededError
from .forms import QuadraticForm, invariants, isometric
from .motives import CompleteIntersectionSpec, motive_report
from .numberfield import EtaleAlgebra, Poly, trace_form_report
from .obstructions import (
    QUARTIC_ASSUMPTIONS,
    _RAMIFIED_TYPES,
    delta_comparison,
    jehanne_local,
    lifting_decisions,
)


class CLIInputError(DomainError):
    pass


# ---------------------------------------------------------------------------
# parameter parsing (shared by flags and batch JSON)
# ---------------------------------------------------------------------------


def _json_text(value) -> str:
    """A rejected value that is not a string, as the JSON that a batch
    request spells it: true, not Python's True.  A library caller's value
    that JSON has no spelling for reads as its repr."""
    return json.dumps(value, default=repr)


# a plain ASCII integer or p/q, read without building a Fraction
_RATIO = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_ratio(value) -> tuple[int, int]:
    """A rational parameter as (numerator, denominator) in lowest terms.  A
    JSON int or a plain p/q string goes there with no Fraction built."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if not isinstance(value, str):
        raise CLIInputError(f"expected a rational, got {_json_text(value)}")
    # Fraction reads "1e100000" as an integer of 100,001 digits: a short
    # string past the 4,300-digit literal limit, so exponents are refused
    if "e" in value or "E" in value:
        raise CLIInputError(f"exponent notation is not accepted, write p/q: {value!r}")
    text = value.strip()
    match = _RATIO.fullmatch(text)
    try:
        if match:
            num, den = int(match[1]), int(match[2] or 1)
            g = gcd(num, den) if den else 0  # p/0 divides by zero below
            return num // g, den // g
        x = Fraction(text)
        return x.numerator, x.denominator
    except (ValueError, ZeroDivisionError):  # ValueError also past the digit limit
        raise CLIInputError(f"cannot parse rational {value!r}")


def parse_int(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise CLIInputError(f"cannot parse integer {value!r}")
    raise CLIInputError(f"expected an integer, got {_json_text(value)}")


def parse_place(value) -> Place:
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return Place.parse(value)
    raise CLIInputError(f"cannot parse place {_json_text(value)}")


def parse_poly(value) -> Poly:
    if isinstance(value, str):
        value = value.split(",")  # an empty field is an error, never a dropped coefficient
    elif not isinstance(value, (list, tuple)):
        raise CLIInputError(f"cannot parse polynomial coefficients {_json_text(value)}")
    return Poly._from_ratios([_parse_ratio(c) for c in value])


def parse_gram(value) -> QuadraticForm:
    if isinstance(value, str):
        # an empty row or field is an error, never a dropped one
        matrix = [[_parse_ratio(c) for c in row.split(",")] for row in value.split(";")]
    elif isinstance(value, (list, tuple)):
        if not all(isinstance(row, (list, tuple)) for row in value):
            raise CLIInputError("Gram matrix must be a list of rows")
        matrix = [[_parse_ratio(c) for c in row] for row in value]
    else:
        raise CLIInputError(f"cannot parse Gram matrix {_json_text(value)}")
    return QuadraticForm._from_ratios(matrix)


def parse_degrees(value) -> list[int]:
    if isinstance(value, str):
        return [parse_int(p) for p in value.split(",")]  # an empty field is an error
    if isinstance(value, (list, tuple)):
        return [parse_int(d) for d in value]
    raise CLIInputError(f"cannot parse degree list {_json_text(value)}")


# ---------------------------------------------------------------------------
# command table
# ---------------------------------------------------------------------------


def _run_hilbert(params: dict) -> dict:
    a_num, a_den = _parse_ratio(params["a"])
    b_num, b_den = _parse_ratio(params["b"])
    place = parse_place(params["place"])
    # num * den lies in the square class of num / den; hilbert_symbol refuses 0
    return {"symbol": hilbert_symbol(a_num * a_den, b_num * b_den, place)}


def _run_form_invariants(params: dict) -> dict:
    q = parse_gram(params["gram"])
    return invariants(q).to_json()


def _run_form_isometric(params: dict) -> dict:
    q1 = parse_gram(params["gram1"])
    q2 = parse_gram(params["gram2"])
    return {"isometric": isometric(q1, q2)}


def _run_tracefield(params: dict) -> dict:
    algebra = EtaleAlgebra(parse_poly(params["poly"]))
    return trace_form_report(algebra).to_json()


def _run_embedding(params: dict) -> dict:
    algebra = EtaleAlgebra(parse_poly(params["poly"]))
    return lifting_decisions(algebra).to_json()


def _run_jehanne(params: dict) -> dict:
    p = parse_int(params["p"])
    type_name = params["type"]
    disc = parse_int(params["disc"])
    if not isinstance(type_name, str):
        raise CLIInputError("decomposition type must be a string")
    w2_p, symbol_p = jehanne_local(p, type_name.strip(), disc)
    return {"w2_p": w2_p, "symbol_p": symbol_p}


def _run_hypersurface(params: dict) -> dict:
    n = parse_int(params["n"])
    d, degrees = params.get("d"), params.get("degrees")
    if d is not None and degrees is not None:
        raise CLIInputError("give d or degrees, not both")
    if d is None and degrees is None:
        raise CLIInputError("either d or degrees is required")
    degrees = [parse_int(d)] if d is not None else parse_degrees(degrees)
    return motive_report(CompleteIntersectionSpec(n, degrees)).to_json()


def _run_delta(params: dict) -> dict:
    q_omega = parse_gram(params["gram_omega"])
    q_eta = parse_gram(params["gram_eta"])
    return delta_comparison(q_omega, q_eta).to_json()


class Command(NamedTuple):
    """One CLI command: the table row that fixes a request's shape.  `params`
    maps each batch key to the help of its flag, `--key` with `_` spelled
    `-`; batch name `group-leaf` is the subcommand `group leaf`.  Runners
    only parse values and call the library, naming the parsers and library
    functions at call time, so a rebinding of those globals (tracing,
    tests) reaches them."""

    help: str
    run: Callable[[dict], dict]
    params: dict[str, str | None]
    optional: tuple[str, ...] = ()  # not required; every other key is, as a flag and in batch mode
    classes: tuple[str, ...] = ()  # output keys printed as degree-2 classes
    render: Callable[[dict], str] | None = None  # one-line human output
    assumptions: tuple[str, ...] = ()  # the hypotheses that every report of the command states


COMMANDS = {
    "hilbert": Command("local Hilbert symbol (a, b)_v", _run_hilbert,
                       {"a": None, "b": None, "place": "prime or 'inf'"},
                       render=lambda outputs: str(outputs["symbol"])),
    "form-invariants": Command("full invariants of a form", _run_form_invariants,
                               {"gram": "rows 'a,b;b,c' of the Gram matrix"}, classes=("w2",)),
    "form-isometric": Command("decide isometry over Q", _run_form_isometric, {"gram1": None, "gram2": None},
                              render=lambda outputs: "isometric" if outputs["isometric"] else "not isometric"),
    "tracefield": Command("trace form report of Q[x]/(f)", _run_tracefield,
                          {"poly": "ascending coefficients 'c0,c1,...'"}),
    "embedding": Command("embedding problem decisions for a quartic", _run_embedding, {"poly": None},
                         classes=("sw2", "sp2", "w2_trace"), assumptions=QUARTIC_ASSUMPTIONS),
    "jehanne": Command("local table pair for a quartic decomposition type", _run_jehanne,
                       {"p": None, "type": "one of: unramified, " + "  ".join(_RAMIFIED_TYPES),
                        "disc": None}, assumptions=QUARTIC_ASSUMPTIONS),
    "hypersurface": Command("complete intersection middle-cohomology report", _run_hypersurface,
                            {"n": None, "d": None, "degrees": "comma-separated multidegree"},
                            optional=("d", "degrees"), classes=("w2_qB",)),
    "delta": Command("comparison classes of two forms", _run_delta, {"gram_omega": None, "gram_eta": None},
                     classes=("delta2",)),
}


def execute(command: str, params: dict):
    """Run one command; returns (outputs, assumptions).  Unknown and missing
    (or null) parameters are refused before any value is parsed.  Raises
    CLIInputError / DomainError on bad input, EffortExceededError past an
    arithmetic effort limit."""
    spec = COMMANDS.get(command)
    if spec is None:
        raise CLIInputError(f"unknown command {command!r}")
    if not isinstance(params, dict):
        raise CLIInputError("parameters must be an object")
    if not params.keys() <= spec.params.keys():  # a subset test builds no set
        raise CLIInputError(f"unknown parameters for {command}: {sorted(params.keys() - spec.params.keys())}")
    for key in spec.params:
        if params.get(key) is None and key not in spec.optional:
            raise CLIInputError(f"missing parameter {key!r}")
    return spec.run(params), spec.assumptions


def make_report(req_id, command, inputs, outputs=None, assumptions=(), status="ok", error=None) -> dict:
    report = {
        "id": req_id,
        "command": command,
        "inputs": inputs,
        "assumptions": list(assumptions),
        "status": status,
    }
    if status == "ok":
        report["outputs"] = outputs
    if error is not None:
        report["error"] = error
    return report


# Sorted keys, no spaces, and no cycle check: a report is a fresh tree of
# parsed JSON and to_json output, so it holds no cycle.  _ENCODER.encode would
# build a new C encoder with these options on every call, so one is built here,
# once, with the arguments JSONEncoder.iterencode passes (markers, default,
# string encoder, indent, separators, sort_keys, skipkeys, allow_nan).
# Without the _json accelerator, c_make_encoder is None and _ENCODER.encode
# does the work, with the same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_encode = _ENCODER.encode
if json.encoder.c_make_encoder is not None:
    _C_ENCODER = json.encoder.c_make_encoder(
        None, _ENCODER.default, json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True)

    def _encode(report: dict) -> str:
        return "".join(_C_ENCODER(report, 0))


def dump_report(report: dict) -> str:
    try:
        return _encode(report)
    except ValueError:  # an int past the digit limit
        return _render_exact(_encode, report)


def _render_exact(render, *args, **kwargs) -> str:
    """render(*args, **kwargs), lifting the interpreter's int-to-str digit
    limit (4300 by default) if render hits it.

    The limit guards the parsing of outside input and stays in force there.
    Output integers are bounded by the input limits instead: chi near the
    hypersurface limits has about 16,400 digits.  The CLI is
    single-threaded, so the limit is restored before anything else runs.
    """
    try:
        return render(*args, **kwargs)
    except ValueError:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return render(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(saved)


def _error_text(exc: Exception) -> str:
    """str(exc), prefixed with the exception's type unless it is a
    DomainError, cut after 200 characters: messages echo rejected input."""
    text = str(exc) if isinstance(exc, DomainError) else f"{type(exc).__name__}: {exc}"
    return text if len(text) <= 200 else f"{text[:200]}… ({len(text)} characters)"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# let option values like "-1,1,0,0,1" or "-1/2" or "2,0;0,-6" through argparse
_VALUE_MATCHER = re.compile(r"^-[\d,/.;^ -]+$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _VALUE_MATCHER

    def error(self, message):
        raise CLIInputError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hassewitt",
        description=__doc__,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    form = None  # added with its first leaf, so --help lists commands in table order
    for name, spec in COMMANDS.items():
        group, _, leaf = name.partition("-")
        if leaf:
            if form is None:
                form = sub.add_parser(group, help="quadratic form computations").add_subparsers(
                    dest="form_command", required=True)
            p = form.add_parser(leaf, help=spec.help)
        else:
            p = sub.add_parser(name, help=spec.help)
        p.set_defaults(name=name)
        p.add_argument("--json", action="store_true", help="emit one report object")
        for key, text in spec.params.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, required=key not in spec.optional, help=text)

    p = sub.add_parser("batch", help="process JSON-Lines requests")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", required=True, dest="outfile")
    return parser


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_human(spec: Command, outputs: dict) -> str:
    if spec.render is not None:
        return spec.render(outputs)
    lines = []
    for key, value in outputs.items():
        if isinstance(value, list) and all(not isinstance(v, (list, dict)) for v in value):
            if key in spec.classes:
                lines.append(f"{key}: " + "{" + ", ".join(str(v) for v in value) + "}")
            else:
                lines.append(f"{key}: {tuple(value)}")
        elif isinstance(value, dict):
            inner = ", ".join(f"{k}: {v}" for k, v in value.items())
            lines.append(f"{key}: {inner}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------


def run_batch(infile: str, outfile: str) -> int:
    with contextlib.ExitStack() as opened:  # closes files it opened, never stdin or stdout
        try:
            stream = opened.enter_context(open(infile, "r", encoding="utf-8")) if infile != "-" else sys.stdin
        except OSError as exc:
            print(f"error: cannot read {infile}: {exc}", file=sys.stderr)
            return 1
        # opening the output truncates it, so a request file is never also the output
        if infile != "-" and outfile != "-" and os.path.exists(outfile) and os.path.samefile(infile, outfile):
            print(f"error: --in and --out are the same file: {outfile}", file=sys.stderr)
            return 1
        try:
            out = opened.enter_context(open(outfile, "w", encoding="utf-8")) if outfile != "-" else sys.stdout
        except OSError as exc:
            print(f"error: cannot write {outfile}: {exc}", file=sys.stderr)
            return 1
        for line in stream:
            if not line.strip():
                continue
            out.write(dump_report(_process_request_line(line)) + "\n")
    return 0


def _process_request_line(line: str) -> dict:
    req_id = None
    command = None
    inputs: dict = {}
    try:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CLIInputError(f"malformed JSON: {exc}")
        except ValueError as exc:
            # an integer literal past Python's int-to-str limit (4,300 digits)
            raise CLIInputError(f"integer literal too long: {exc}")
        if not isinstance(request, dict):
            raise CLIInputError("request must be an object")
        req_id = request.get("id")
        command = request.get("command")
        params = request.get("parameters", {})
        if not isinstance(command, str):
            raise CLIInputError("request needs a 'command' string")
        inputs = params if isinstance(params, dict) else {}
        outputs, assumptions = execute(command, params)
        return make_report(req_id, command, inputs, outputs, assumptions)
    except DomainError as exc:
        status = "effort_exceeded" if isinstance(exc, EffortExceededError) else "input_error"
        return make_report(req_id, command, inputs, status=status, error=_error_text(exc))
    except Exception as exc:  # noqa: BLE001 - keep the stream alive
        return make_report(req_id, command, inputs, status="internal_error", error=_error_text(exc))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "batch":
            return run_batch(args.infile, args.outfile)
        spec = COMMANDS[args.name]
        params = {key: getattr(args, key) for key in spec.params if getattr(args, key) is not None}
        outputs, assumptions = execute(args.name, params)
        if args.json:
            print(dump_report(make_report(None, args.name, params, outputs, assumptions)))
        else:
            print(_render_exact(_render_human, spec, outputs))
        return 0
    except DomainError as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 3 if isinstance(exc, EffortExceededError) else 1
    except Exception as exc:  # noqa: BLE001 - invariant violations exit distinctly
        print(f"internal error: {_error_text(exc)}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
