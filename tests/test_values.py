"""The value types are plain frozen classes, not dataclasses, and keep the
contract they had as frozen dataclasses: reprs, hashes, equality,
immutability, ordering and constructor validation.  LiftReport has since
lost its assumptions field, now a column of the CLI's command table, and
FormInvariants its disc field, a copy of w1.  DeltaPair and TraceFormReport
are gone: delta_comparison and trace_form_report return plain pairs.  A
plain record takes its fields by position only."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hassewitt
from hassewitt import cli
from hassewitt import (
    INF,
    CohClass2,
    CompleteIntersectionSpec,
    EtaleAlgebra,
    Place,
    Poly,
    QuadraticForm,
    SquareClass,
    SymbolicClass,
    invariants,
    lifting_decisions,
    motive_report,
)
from hassewitt.cohomology import ONE, TWO
from hassewitt.errors import InternalError
from hassewitt.forms import FormInvariants
from hassewitt.motives import TOKEN_W2_DR, MotiveReport
from hassewitt.obstructions import QUARTIC_ASSUMPTIONS, LiftReport
from hassewitt.values import Value

from test_exports import REQUESTS  # one request per command, each answered ok

SRC = Path(__file__).resolve().parents[1] / "src"


def _samples() -> dict:
    alg = EtaleAlgebra(Poly([-1, 1, 0, 0, 1]))
    q = QuadraticForm([[1, Fraction(1, 2)], [Fraction(1, 2), -3]])
    return {
        "place_2": TWO,
        "place_7": Place.finite(7),
        "place_inf": INF,
        "square_class": SquareClass(-12),
        "square_class_frac": SquareClass(Fraction(2, 9)),
        "coh2": CohClass2([Place.finite(3), INF]),
        "coh2_zero": CohClass2(),
        "quadratic_form": q,
        "form_invariants": invariants(q),
        "poly": Poly([Fraction(1, 2), 0, 1]),
        "etale_algebra": alg,
        "ci_spec": CompleteIntersectionSpec(4, (2, 2)),
        "symbolic_class": SymbolicClass(CohClass2([TWO, INF]), (TOKEN_W2_DR,)),
        "motive_report_ci": motive_report(CompleteIntersectionSpec(4, (2, 2))),
        "motive_report_hyp": motive_report(CompleteIntersectionSpec(2, (3,))),
        "lift_report": lifting_decisions(alg),
    }


# repr, and hash where it does not depend on str or None (whose hashes vary
# between processes), as the frozen dataclasses gave them on 64-bit CPython
# 3.11, less the fields since removed; the frozenset hashes are checked
# through the fields below
GOLDEN = {
    "place_2": ("2", 1503349363483613693),
    "place_7": ("7", 2189731453027491312),
    "place_inf": ("inf", -4818986825999417828),
    "square_class": ("(-3)", 1571038762487017940),
    "square_class_frac": ("(2)", 6909455589863252355),
    "coh2": ("{3, inf}", None),
    "coh2_zero": ("{}", None),
    "quadratic_form": ("QuadraticForm([['1', '1/2'], ['1/2', '-3']])", -5012048146152096224),
    "form_invariants": (
        "FormInvariants(rank=2, signature=(1, 1), w1=(-13), w2={}, hasse_local={2: 1, 13: 1})",
        None,
    ),
    "poly": ("Poly(1/2 + 1*x^2)", -7241051228792277221),
    "etale_algebra": (
        "EtaleAlgebra(poly=Poly(-1 + 1*x^1 + 1*x^4), disc=Fraction(-283, 1), real_roots=2)",
        -2075042570270469948,
    ),
    "ci_spec": ("CompleteIntersectionSpec(n=4, degrees=(2, 2))", 1748472070744434519),
    "symbolic_class": ("{2, inf} + w2(q_dR)", None),
    "motive_report_ci": (
        "MotiveReport(chi=12, b_n=8, tau_mod8=0, m=8, m_prime=4, w1_qB=(1), w2_qB={}, delta1=None, delta2=None)",
        None,
    ),
    "motive_report_hyp": (
        "MotiveReport(chi=9, b_n=7, tau_mod8=3, m=4, m_prime=2, w1_qB=(1), w2_qB={2, inf}, "
        "delta1=(-1) + disc_d(f), delta2={2, inf} + w2(q_dR))",
        None,
    ),
    "lift_report": (
        "LiftReport(field_disc=(-283), sw2={}, sp2={2, 283}, w2_trace={2, 283}, lift_solvable=False, "
        "lift_delta_solvable=True, local_table={2: (-1, -1), 283: (-1, -1), inf: (1, 1)})",
        None,
    ),
}

# the fields that equality compares and the hash covers, per type; LiftReport
# holds a dict and is unhashable, FormInvariants hashes all but hasse_local
HASHED = {
    Place: ("_key",),
    SquareClass: ("rep",),
    CohClass2: ("support",),
    QuadraticForm: ("_scale", "_scaled"),
    FormInvariants: ("rank", "signature", "w1", "w2"),
    Poly: ("_scale", "_scaled"),
    EtaleAlgebra: ("poly",),
    CompleteIntersectionSpec: ("n", "degrees"),
    SymbolicClass: ("numeric", "tokens"),
    MotiveReport: ("chi", "b_n", "tau_mod8", "m", "m_prime", "w1_qB", "w2_qB", "delta1", "delta2"),
}

VALUE_TYPES = set(HASHED) | {LiftReport}


def test_samples_cover_every_exported_value_type():
    assert len(VALUE_TYPES) == 11
    assert {type(x) for x in _samples().values()} == VALUE_TYPES
    exported = {x for x in vars(hassewitt).values() if isinstance(x, type) and not issubclass(x, Exception)}
    assert exported == VALUE_TYPES


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_repr_and_hash_match_the_dataclass_values(name):
    x = _samples()[name]
    text, golden_hash = GOLDEN[name]
    assert repr(x) == text
    if isinstance(x, LiftReport):
        with pytest.raises(TypeError):
            hash(x)
        return
    assert hash(x) == hash(tuple(getattr(x, f) for f in HASHED[type(x)]))
    if golden_hash is not None:
        assert hash(x) == golden_hash


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_values_are_frozen_and_survive_copy_and_pickle(name):
    x = _samples()[name]
    for attr in ("_fields", "no_such_field", *HASHED.get(type(x), ("local_table",))):
        with pytest.raises(AttributeError):
            setattr(x, attr, 0)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert repr(x) == GOLDEN[name][0]
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and repr(y) == repr(x)


def test_equality_is_per_class():
    samples = _samples()
    again = _samples()
    for name, x in samples.items():
        assert x == again[name] and not x != again[name]
        for other in samples.values():
            if type(other) is not type(x):
                assert x != other
    assert Place.finite(2) != (0, 2) and SquareClass(2) != 2 and CohClass2() != frozenset()
    assert samples["form_invariants"] != invariants(samples["etale_algebra"])


def test_place_sorts_finite_by_prime_with_inf_last():
    places = [INF, Place.finite(7), TWO, Place.finite(3), Place.finite(7)]
    assert sorted(places) == [TWO, Place.finite(3), Place.finite(7), Place.finite(7), INF]
    assert TWO < Place.finite(3) <= Place.finite(3) < INF
    assert INF > Place.finite(10**9 + 7) >= Place.finite(10**9 + 7) > TWO
    assert not INF < TWO and not TWO >= INF
    with pytest.raises(TypeError):
        TWO < 3
    with pytest.raises(TypeError):
        INF >= (1, 0)


def test_etale_algebra_equality_ignores_real_roots_and_disc():
    alg = EtaleAlgebra(Poly([-1, 1, 0, 0, 1]))
    other = copy.copy(alg)
    object.__setattr__(other, "_diagonal", [(1, 1), (-1, 1)] * 2)
    object.__setattr__(other, "_disc", (7, 3))
    assert (other.real_roots, alg.real_roots) == (0, 2)
    assert other == alg and hash(other) == hash(alg) == hash((alg.poly,))
    assert EtaleAlgebra(Poly([1, 0, 1])) != alg


def test_validation_errors_keep_their_texts():
    with pytest.raises(InternalError, match=r"^token outside the vocabulary: \('bogus',\)$"):
        SymbolicClass(ONE, ("bogus",))
    with pytest.raises(InternalError, match=r"^odd local support \[2\]: product formula violated$"):
        CohClass2([TWO])


def test_assumptions_are_a_column_of_the_command_table():
    # a report states its hypotheses through its command's table row; the
    # LiftReport record carries none, as a field or as a class constant
    report = _samples()["lift_report"]
    assert not hasattr(LiftReport, "assumptions") and not hasattr(report, "assumptions")
    assert "assumptions" not in report.to_json()
    assert REQUESTS.keys() == cli.COMMANDS.keys()
    for command, params in REQUESTS.items():
        _, assumptions = cli.execute(command, params)
        want = QUARTIC_ASSUMPTIONS if command in ("embedding", "jehanne") else ()
        assert assumptions is cli.COMMANDS[command].assumptions and assumptions == want, command


# the pure-data types, whose constructor is the generic one over _fields
PLAIN = ("form_invariants", "motive_report_hyp", "lift_report")


@pytest.mark.parametrize("name", PLAIN)
def test_plain_constructor_takes_fields_by_position(name):
    x = _samples()[name]
    cls, fields = type(x), type(x)._fields
    assert cls.__init__ is Value.__init__
    values = [getattr(x, f) for f in fields]
    y = cls(*values)
    assert y == x and repr(y) == GOLDEN[name][0]
    n = len(fields)
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes {n} fields but {n + 1} were given$"):
        cls(*values, None)
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes {n} fields but {n - 1} were given$"):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values[:-1], **{fields[-1]: values[-1]})


def test_only_place_writes_its_own_equality_hash_and_ordering():
    # a hand-written copy of a generic method stays only where a workload
    # reaches it; FormInvariants' __hash__ is no copy: it leaves out its dict
    own = {cls.__name__: sorted({"__eq__", "__hash__"} & vars(cls).keys()) for cls in VALUE_TYPES}
    assert {name: methods for name, methods in own.items() if methods} == {
        "Place": ["__eq__", "__hash__"],
        "FormInvariants": ["__hash__"],
    }
    assert vars(Place)["__lt__"].__module__ == "hassewitt.cohomology"
    for name in ("__le__", "__gt__", "__ge__"):
        assert vars(Place)[name].__module__ == "functools"  # total_ordering
    for cls in VALUE_TYPES - {Place}:
        assert not {"__lt__", "__le__", "__gt__", "__ge__"} & vars(cls).keys()


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    # pytest itself imports dataclasses, so the check runs in a fresh interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, hassewitt.cli\n"
        "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
        "assert hassewitt.cli.__file__.startswith(sys.argv[1]), hassewitt.cli.__file__\n"
    )
    subprocess.run([sys.executable, "-c", code, str(SRC)], env=env, check=True, timeout=60)
