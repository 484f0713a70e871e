"""The export ledger.  Every name that ``hassewitt`` exports, and every
public function of its library modules and of ``cli``, is in one of four
classes:

(a) reached by a command: one request per ``cli.COMMANDS`` entry runs
    under ``sys.setprofile``, and a function counts when its code runs
    (caches are cleared first), a class when a method runs on an
    instance of it;
(b) imported by ``tests/test_acceptance.py``, the paper's formulas;
(c) a layer of the benchmark tracer, ``bench/tracing.py`` ``LAYERS``;
(d) listed in ``LEDGER`` with the one-line reason it stays.

A name in none of them is dead code, and a ``LEDGER`` reason for a name
that another class already covers is stale; both fail.  ``bench/`` and
the acceptance tests are read as text, so the ledger also holds for an
installed package run from a checkout with ``PYTHONPATH`` unset.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import hassewitt
from hassewitt import cli

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("arith", "cohomology", "forms", "numberfield", "obstructions", "motives", "cli")

# one request per command, ok status expected
REQUESTS = {
    "hilbert": {"a": "-5", "b": "3", "place": "3"},
    "form-invariants": {"gram": [[2, 1], [1, 3]]},
    "form-isometric": {"gram1": [[1, 0], [0, 1]], "gram2": [[2, 0], [0, 2]]},
    "tracefield": {"poly": [-1, 1, 0, 0, 1]},
    "embedding": {"poly": [-1, 1, 0, 0, 1]},
    "jehanne": {"p": 11, "type": "1^3,1", "disc": 139469124983},
    "hypersurface": {"n": 2, "degrees": "3"},
    "delta": {"gram_omega": [[1, 0], [0, 1]], "gram_eta": [[2, 0], [0, 6]]},
}

# names in none of classes (a)-(c), "module.name", and why each stays
LEDGER = {
    "errors.DomainError": "the documented error of bad input, which callers catch",
    "errors.EffortExceededError": "the documented error past an effort limit (CLI exit 3)",
    "errors.InternalError": "the documented error of a failed internal invariant",
    "cli.main": "the console script that pyproject.toml installs",
    "cli.run": "what main runs on argv: one single-shot command or a batch",
    "cli.run_batch": "the batch subcommand that run dispatches to",
    "cli.make_report": "the report record of run, of batch mode and of the bench client",
}


def qualified(name: str, obj, module: str) -> str:
    """"module.name" for obj bound to name in the package module ``module``:
    the module that defines it, by ``__module__`` for a function or a class,
    and for a constant the first of MODULES that binds the same object."""
    home = getattr(obj, "__module__", None) if callable(obj) else None
    if home is None:
        home = next((f"hassewitt.{m}" for m in MODULES
                     if getattr(importlib.import_module(f"hassewitt.{m}"), name, None) is obj), module)
    return f"{home.rsplit('.', 1)[-1]}.{name}"


def ledger_names() -> dict[str, object]:
    """"module.name" -> object, for the package's exports and the public
    functions of MODULES."""
    names = {}
    for name, obj in vars(hassewitt).items():
        if not name.startswith("_") and not inspect.ismodule(obj):
            names[qualified(name, obj, "hassewitt")] = obj
    for module_name in MODULES:
        module = importlib.import_module(f"hassewitt.{module_name}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(inspect.unwrap(obj)) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                names[f"{module_name}.{name}"] = obj
    return names


def tracer_layers() -> dict[str, tuple[str, ...]]:
    """``LAYERS`` of ``bench/tracing.py``, read from its source, not imported."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYERS")


def acceptance_imports() -> set[str]:
    """"module.name" for each name that ``tests/test_acceptance.py`` imports
    from the package, resolved to the module that defines it."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hassewitt":
            module = importlib.import_module(node.module)
            out.update(qualified(alias.name, getattr(module, alias.name), node.module) for alias in node.names)
    return out


def _record_commands() -> tuple[set, set]:
    """The code objects run, and the classes whose methods ran on an
    instance, over one request per command.  A cache hit runs no code, so
    the exported ``lru_cache`` functions start empty."""
    codes, classes = set(), set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("hassewitt"):
            codes.add(frame.f_code)
            if frame.f_code.co_varnames[:1] == ("self",) and "self" in frame.f_locals:
                classes.add(type(frame.f_locals["self"]))

    for obj in ledger_names().values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        for command, params in REQUESTS.items():
            cli.execute(command, params)
    finally:
        sys.setprofile(saved)
    return codes, classes


def _reached(obj, codes: set, classes: set) -> bool:
    if inspect.isclass(obj):
        return any(issubclass(cls, obj) for cls in classes)
    return getattr(inspect.unwrap(obj), "__code__", None) in codes


def classify() -> dict[str, str]:
    """"module.name" -> the first of "a", "b", "c", "d" that holds, "" if none."""
    codes, classes = _record_commands()
    imported = acceptance_imports()
    layers = {f"{module}.{fn}" for module, fns in tracer_layers().items() for fn in fns}
    out = {}
    for name, obj in ledger_names().items():
        if _reached(obj, codes, classes):
            out[name] = "a"
        elif name in imported:
            out[name] = "b"
        elif name in layers:
            out[name] = "c"
        else:
            out[name] = "d" if name in LEDGER else ""
    return out


def test_one_request_per_command_and_each_succeeds():
    assert REQUESTS.keys() == cli.COMMANDS.keys()
    for command, params in REQUESTS.items():
        outputs, _ = cli.execute(command, params)
        assert outputs, command


def test_every_export_and_public_function_is_in_the_ledger():
    classes = classify()
    assert sorted(name for name, cls in classes.items() if not cls) == []
    stale = sorted(name for name in LEDGER if classes.get(name) != "d")
    assert stale == []


def test_every_tracer_layer_resolves_to_a_function_of_its_module():
    layers = tracer_layers()
    assert layers
    for module_name, fns in layers.items():
        module = importlib.import_module(f"hassewitt.{module_name}")
        for fn in fns:
            assert inspect.isfunction(inspect.unwrap(getattr(module, fn, None))), f"{module_name}.{fn}"


def test_names_are_qualified_by_the_module_that_defines_them():
    assert qualified("legendre", hassewitt.legendre, "hassewitt") == "arith.legendre"
    assert qualified("INF", hassewitt.INF, "hassewitt") == "cohomology.INF"
    assert {"cli.execute", "cohomology.INF", "arith.squarefree_part"} <= acceptance_imports()
