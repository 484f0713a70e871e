"""Command line surface.

Single-shot subcommands mirror the library operations one to one; batch
mode reads JSON-Lines requests ({"command": ..., "parameters": {...},
"id": ...}) and writes one report line per request.  Reports are emitted
with sorted keys and compact separators, so identical requests produce
byte-identical output.

Exit codes: 0 on success, 1 on input validation failure, 2 on an internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .cohomology import Place, hilbert_symbol
from .errors import DomainError, InternalError
from .forms import QuadraticForm, invariants, isometric
from .motives import CompleteIntersectionSpec, motive_report
from .numberfield import EtaleAlgebra, Poly, trace_form_report
from .obstructions import (
    QUARTIC_ASSUMPTIONS,
    DecompositionType,
    delta_comparison,
    jehanne_local,
    lifting_decisions,
)


class CLIInputError(DomainError):
    pass


# ---------------------------------------------------------------------------
# parameter parsing (shared by flags and batch JSON)
# ---------------------------------------------------------------------------


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise CLIInputError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise CLIInputError(f"cannot parse rational {value!r}")
    raise CLIInputError(f"expected a rational, got {value!r}")


def parse_int(value) -> int:
    if isinstance(value, bool):
        raise CLIInputError(f"expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise CLIInputError(f"cannot parse integer {value!r}")
    raise CLIInputError(f"expected an integer, got {value!r}")


def parse_place(value) -> Place:
    if isinstance(value, Place):
        return value
    if isinstance(value, bool):
        raise CLIInputError(f"cannot parse place {value!r}")
    try:
        return Place.parse(value if isinstance(value, (int, str)) else str(value))
    except DomainError as exc:
        raise CLIInputError(str(exc))


def parse_poly(value) -> Poly:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        return Poly([parse_rational(p) for p in parts])
    if isinstance(value, (list, tuple)):
        return Poly([parse_rational(c) for c in value])
    raise CLIInputError(f"cannot parse polynomial coefficients {value!r}")


def parse_gram(value) -> QuadraticForm:
    if isinstance(value, str):
        rows = [r for r in value.split(";") if r.strip()]
        matrix = [[parse_rational(c) for c in row.split(",")] for row in rows]
    elif isinstance(value, (list, tuple)):
        if not all(isinstance(row, (list, tuple)) for row in value):
            raise CLIInputError("Gram matrix must be a list of rows")
        matrix = [[parse_rational(c) for c in row] for row in value]
    else:
        raise CLIInputError(f"cannot parse Gram matrix {value!r}")
    try:
        return QuadraticForm(matrix)
    except DomainError as exc:
        raise CLIInputError(str(exc))


def parse_degrees(value) -> list[int]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        return [parse_int(p) for p in parts]
    if isinstance(value, (list, tuple)):
        return [parse_int(d) for d in value]
    raise CLIInputError(f"cannot parse degree list {value!r}")


def _etale(value) -> EtaleAlgebra:
    try:
        return EtaleAlgebra(parse_poly(value))
    except DomainError as exc:
        raise CLIInputError(str(exc))


# ---------------------------------------------------------------------------
# command registry
# ---------------------------------------------------------------------------


def _run_hilbert(params: dict):
    a = parse_rational(_need(params, "a"))
    b = parse_rational(_need(params, "b"))
    place = parse_place(_need(params, "place"))
    if a == 0 or b == 0:
        raise CLIInputError("Hilbert symbol entries must be nonzero")
    return {"symbol": hilbert_symbol(a, b, place)}, ()


def _run_form_invariants(params: dict):
    q = parse_gram(_need(params, "gram"))
    return invariants(q).to_json(), ()


def _run_form_isometric(params: dict):
    q1 = parse_gram(_need(params, "gram1"))
    q2 = parse_gram(_need(params, "gram2"))
    return {"isometric": isometric(q1, q2)}, ()


def _run_tracefield(params: dict):
    algebra = _etale(_need(params, "poly"))
    return trace_form_report(algebra).to_json(), ()


def _run_embedding(params: dict):
    algebra = _etale(_need(params, "poly"))
    report = lifting_decisions(algebra)
    payload = report.to_json()
    assumptions = tuple(payload.pop("assumptions"))
    return payload, assumptions


def _run_jehanne(params: dict):
    p = parse_int(_need(params, "p"))
    type_name = _need(params, "type")
    disc = parse_int(_need(params, "disc"))
    if not isinstance(type_name, str):
        raise CLIInputError("decomposition type must be a string")
    dtype = DecompositionType.parse(type_name)
    w2_p, symbol_p = jehanne_local(p, dtype, disc)
    return {"w2_p": w2_p, "symbol_p": symbol_p}, QUARTIC_ASSUMPTIONS


def _run_hypersurface(params: dict):
    n = parse_int(_need(params, "n"))
    if "d" in params and params["d"] is not None:
        degrees = [parse_int(params["d"])]
    elif "degrees" in params and params["degrees"] is not None:
        degrees = parse_degrees(params["degrees"])
    else:
        raise CLIInputError("either d or degrees is required")
    spec = CompleteIntersectionSpec(n, degrees)
    return motive_report(spec).to_json(), ()


def _run_delta(params: dict):
    q_omega = parse_gram(_need(params, "gram_omega"))
    q_eta = parse_gram(_need(params, "gram_eta"))
    pair = delta_comparison(q_omega, q_eta)
    return pair.to_json(), ()


def _need(params: dict, key: str):
    if key not in params or params[key] is None:
        raise CLIInputError(f"missing parameter {key!r}")
    return params[key]


COMMANDS = {
    "hilbert": _run_hilbert,
    "form-invariants": _run_form_invariants,
    "form-isometric": _run_form_isometric,
    "tracefield": _run_tracefield,
    "embedding": _run_embedding,
    "jehanne": _run_jehanne,
    "hypersurface": _run_hypersurface,
    "delta": _run_delta,
}


def execute(command: str, params: dict):
    """Run one command; returns (outputs, assumptions).  Raises
    CLIInputError / DomainError on bad input."""
    runner = COMMANDS.get(command)
    if runner is None:
        raise CLIInputError(f"unknown command {command!r}")
    if not isinstance(params, dict):
        raise CLIInputError("parameters must be an object")
    unknown = set(params) - set(_PARAM_KEYS[command])
    if unknown:
        raise CLIInputError(f"unknown parameters for {command}: {sorted(unknown)}")
    return runner(params)


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


def dump_report(report: dict) -> str:
    return _render_exact(json.dumps, report, sort_keys=True, separators=(",", ":"))


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
        epilog="HASSEWITT_FACTOR_LIMIT caps the primes attempted during "
               "trial-division factorization (default 1000000).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit one report object")
        return p

    p = leaf("hilbert", help="local Hilbert symbol (a, b)_v")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--place", required=True, help="prime or 'inf'")

    form = sub.add_parser("form", help="quadratic form computations")
    form_sub = form.add_subparsers(dest="form_command", required=True)
    p = form_sub.add_parser("invariants", help="full invariants of a form")
    p.add_argument("--json", action="store_true")
    p.add_argument("--gram", required=True, help="rows 'a,b;b,c' of the Gram matrix")
    p = form_sub.add_parser("isometric", help="decide isometry over Q")
    p.add_argument("--json", action="store_true")
    p.add_argument("--gram1", required=True)
    p.add_argument("--gram2", required=True)

    p = leaf("tracefield", help="trace form report of Q[x]/(f)")
    p.add_argument("--poly", required=True, help="ascending coefficients 'c0,c1,...'")

    p = leaf("embedding", help="embedding problem decisions for a quartic")
    p.add_argument("--poly", required=True)

    p = leaf("jehanne", help="local table pair for a quartic decomposition type")
    p.add_argument("--p", required=True)
    p.add_argument("--type", required=True, dest="type",
                   help="one of: unramified, 1^2,1,1  1^3,1  1^2,2  1^4  2^2  1^2,1^2")
    p.add_argument("--disc", required=True)

    p = leaf("hypersurface", help="complete intersection middle-cohomology report")
    p.add_argument("--n", required=True)
    p.add_argument("--d")
    p.add_argument("--degrees", help="comma-separated multidegree")

    p = leaf("delta", help="comparison classes of two forms")
    p.add_argument("--gram-omega", required=True, dest="gram_omega")
    p.add_argument("--gram-eta", required=True, dest="gram_eta")

    p = sub.add_parser("batch", help="process JSON-Lines requests")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", required=True, dest="outfile")
    return parser


_PARAM_KEYS = {
    "hilbert": ("a", "b", "place"),
    "form-invariants": ("gram",),
    "form-isometric": ("gram1", "gram2"),
    "tracefield": ("poly",),
    "embedding": ("poly",),
    "jehanne": ("p", "type", "disc"),
    "hypersurface": ("n", "d", "degrees"),
    "delta": ("gram_omega", "gram_eta"),
}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_class2(values: list) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _render_human(command: str, outputs: dict) -> str:
    if command == "hilbert":
        return str(outputs["symbol"])
    if command == "form-isometric":
        return "isometric" if outputs["isometric"] else "not isometric"
    lines = []
    for key, value in outputs.items():
        if isinstance(value, list) and all(not isinstance(v, (list, dict)) for v in value):
            if key in ("w2", "w2_qB", "sw2", "sp2", "w2_trace", "delta2"):
                lines.append(f"{key}: {_render_class2(value)}")
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
    try:
        stream = open(infile, "r", encoding="utf-8") if infile != "-" else sys.stdin
    except OSError as exc:
        print(f"error: cannot read {infile}: {exc}", file=sys.stderr)
        return 1
    try:
        out = open(outfile, "w", encoding="utf-8") if outfile != "-" else sys.stdout
    except OSError as exc:
        print(f"error: cannot write {outfile}: {exc}", file=sys.stderr)
        if stream is not sys.stdin:
            stream.close()
        return 1
    with stream, out:
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
    except (CLIInputError, DomainError) as exc:
        return make_report(req_id, command, inputs, status="input_error", error=str(exc))
    except Exception as exc:  # noqa: BLE001 - keep the stream alive
        return make_report(req_id, command, inputs, status="internal_error", error=str(exc))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "batch":
            return run_batch(args.infile, args.outfile)
        command = args.command
        if command == "form":
            command = f"form-{args.form_command}"
        params = {key: getattr(args, key, None) for key in _PARAM_KEYS[command]}
        outputs, assumptions = execute(command, params)
        if args.json:
            print(dump_report(make_report(None, command, {k: v for k, v in params.items() if v is not None},
                                          outputs, assumptions)))
        else:
            print(_render_exact(_render_human, command, outputs))
        return 0
    except (CLIInputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - invariant violations exit distinctly
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
