"""Every public function of the library modules is used: exported from the
package, called or passed on by another function in it, or listed below
with the reason it stays."""

import ast
import importlib
import inspect
from pathlib import Path

import hassewitt

MODULES = ("arith", "cohomology", "forms", "numberfield", "obstructions", "motives")

# public functions that the package neither exports nor calls, and why each stays
ALLOWED = {
    "arith.padic_split": "a layer of the benchmark tracer (bench/tracing.py LAYERS)",
    "cohomology.relevant_places": "a layer of the benchmark tracer (bench/tracing.py LAYERS)",
}


def _used_functions(package_dir: Path) -> set[str]:
    """The functions, as "module.name", that the package's modules call or
    pass on, a function's use of itself excepted.  Names are resolved
    through each module's own definitions and relative imports, so a
    method or attribute that shares a function's name does not count."""
    used = set()
    for path in package_dir.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions, modules = {}, {}
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                functions[top.name] = f"{path.stem}.{top.name}"
            elif isinstance(top, ast.ImportFrom) and top.level == 1:
                for alias in top.names:
                    if top.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        functions[alias.asname or alias.name] = f"{top.module}.{alias.name}"
        for top in tree.body:
            owner = functions.get(getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    target = functions.get(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    module = modules.get(node.value.id)
                    target = module and f"{module}.{node.attr}"
                else:
                    continue
                if target and target != owner:
                    used.add(target)
    return used


def _unused_public_functions() -> set[str]:
    used = _used_functions(Path(hassewitt.__file__).parent)
    unused = set()
    for module_name in MODULES:
        module = importlib.import_module(f"hassewitt.{module_name}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
                    and getattr(hassewitt, name, None) is not obj and f"{module_name}.{name}" not in used):
                unused.add(f"{module_name}.{name}")
    return unused


def test_every_public_function_is_exported_called_or_allowed():
    assert _unused_public_functions() == set(ALLOWED)
