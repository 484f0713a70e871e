"""Work pins.  One request per ``cli.COMMANDS`` row, each on a cold memo,
makes an exact number of calls to each kernel below, and ``PINS`` holds
those numbers.  A refactor that computes a fact twice, or computes one that
no report reads, moves a pin.  A change that moves one on purpose updates
it and says which one and why.

Every namespace of the package that binds a kernel is patched, so a kernel
imported by name (``forms`` binds ``_hasse_exponent``, ``numberfield`` binds
``is_prime``) is counted wherever it is called from.  The memo is cleared
through the real ``lru_cache`` functions before they are patched.
"""

import importlib
import sys
from collections import Counter

import pytest

from hassewitt import cli

# one request per command, each answered ok: a rank-4 form, quartics whose
# discriminants have three primes (-23796 = -2^2 3^2 661, 6480 = 2^4 3^4 5),
# a tame 1^2,1^2 prime, which takes a Hilbert symbol at 11, and a delta pair
# with the entry 2^31 - 1, past trial division, which factor proves prime
REQUESTS = {
    "hilbert": {"a": "-5/7", "b": "6", "place": "2"},
    "form-invariants": {"gram": [[2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 5, 1], [0, 0, 1, -7]]},
    "form-isometric": {"gram1": [[1, 0, 0], [0, 2, 1], [0, 1, -3]], "gram2": [[2, 0, 0], [0, 7, 0], [0, 0, -5]]},
    "tracefield": {"poly": [6, 0, -5, 1, 1]},
    "embedding": {"poly": [3, 2, 0, 0, 1]},
    "jehanne": {"p": 11, "type": "1^2,1^2", "disc": 2 * 3 * 11 * 11},
    "hypersurface": {"n": 4, "degrees": "2,3"},
    "delta": {"gram_omega": [[1, 1, 0], [1, -2, 0], [0, 0, 15]],
              "gram_eta": [[3, 0, 0], [0, -35, 0], [0, 0, 2147483647]]},
}

KERNELS = (
    "arith.factor",
    "arith.is_prime",
    "cohomology._hasse_exponent",
    "forms._leading_minors",
    "numberfield._subresultant_psc",
    "numberfield._newton_sums",
    "numberfield._sign_count",
    "motives.euler_characteristic",
)

# command -> kernel -> calls; a kernel a command never calls is left out.
# No trace request counts real roots: the signature is read off the diagonal.
PINS = {
    "hilbert": {"arith.is_prime": 1, "cohomology._hasse_exponent": 1},
    "form-invariants": {"arith.factor": 1, "cohomology._hasse_exponent": 2, "forms._leading_minors": 1},
    "form-isometric": {"arith.factor": 2, "cohomology._hasse_exponent": 5, "forms._leading_minors": 2},
    "tracefield": {"arith.factor": 1, "cohomology._hasse_exponent": 3, "numberfield._subresultant_psc": 1,
                   "numberfield._newton_sums": 1},
    "embedding": {"arith.factor": 1, "cohomology._hasse_exponent": 5, "numberfield._subresultant_psc": 1},
    "jehanne": {"arith.is_prime": 1, "cohomology._hasse_exponent": 1},
    "hypersurface": {"motives.euler_characteristic": 1},
    "delta": {"arith.factor": 2, "arith.is_prime": 1, "cohomology._hasse_exponent": 13, "forms._leading_minors": 2},
}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hassewitt" or name.startswith("hassewitt."))]


def work(command: str, params: dict) -> Counter:
    """The kernel calls of one request, on a cold memo."""
    modules = _package_modules()
    for module in modules:
        for obj in list(vars(module).values()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    calls = Counter()

    def counted(kernel, real):
        def wrapper(*args, **kwargs):
            calls[kernel] += 1
            return real(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for kernel in KERNELS:
            home, name = kernel.split(".")
            real = getattr(importlib.import_module(f"hassewitt.{home}"), name)
            wrapper = counted(kernel, real)
            for module in modules:
                if vars(module).get(name) is real:
                    patch.setattr(module, name, wrapper)
        cli.execute(command, params)
    return calls


def test_requests_cover_the_command_table():
    assert REQUESTS.keys() == cli.COMMANDS.keys() == PINS.keys()


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_kernel_calls_match_the_pins(command):
    got = work(command, REQUESTS[command])
    assert work(command, REQUESTS[command]) == got, "the memo was not cold"
    bad = [f"{command}: {kernel} ran {got[kernel]} times, pinned {PINS[command].get(kernel, 0)}"
           for kernel in KERNELS if got[kernel] != PINS[command].get(kernel, 0)]
    assert not bad, "\n".join(bad)
