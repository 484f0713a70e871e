"""Every factoring and primality call does a bounded amount of work.

The inputs that ran without bound before Lehman's method and the ECM
ladder replaced Brent rho each end in ``ok`` or ``effort_exceeded`` within
the README's bound.  Each operand cap is tested at its limit and one bit
past it: in the library, in batch mode and in single-shot mode (exit 0, 1
or 3).  A call past a cap fails the same way every time, because the memos
keep only answers.  The ladder splits the semiprimes that rho split before
it, a smaller prime of 32-44 bits next to a 60-bit one.
"""

import json
import random
import time

import pytest

from hassewitt import arith
from hassewitt.arith import factor, is_prime
from hassewitt.cli import _process_request_line, dump_report, run
from hassewitt.errors import DomainError, EffortExceededError

# the README's bound on a request that runs p - 1 and the whole ECM ladder
# on a cofactor at the factoring cap (3.2 s on a 2-core VM), with room for a
# slower host
BOUND_S = 10.0

P2048 = 2**2048 - 1942289  # the largest prime below 2**2048
P100 = 2**100 - 15  # prime
Q100 = 2**100 + 277  # the first prime past 2**100
STAGE1_P = 36_845_569  # P - 1 = 2**11 * 3**2 * 1999, so p - 1 stage 1 finds P


def _next_prime(n: int) -> int:
    n |= 1
    while not is_prime(n):
        n += 2
    return n


def _random_prime(rng: random.Random, bits: int) -> int:
    return _next_prime(rng.getrandbits(bits) | 1 << (bits - 1))


# STAGE1_P times a prime, 256 and 257 bits: the first splits at once, the
# second is refused before any work although p - 1 would split it as fast
AT_FACTOR_CAP = STAGE1_P * _next_prime((1 << 255) // STAGE1_P + 1)
PAST_FACTOR_CAP = STAGE1_P * _next_prime((1 << 256) // STAGE1_P + 1)

RANK_7 = ("0,0,0,1421,0,216,89927877359334064089/18;0,-50/48,0,0,0,0,93/140;0,0,-17/87,0,34,6/40,0;"
          "1421,0,0,-3030/168,0,104/125,-2695;0,0,34,0,0,0,0;216,0,6/40,104/125,0,0,0;"
          "89927877359334064089/18,93/140,0,-2695,0,0,0")

UNBOUNDED_BEFORE = {
    # x^2 + c x + 1 with c of 3,000 digits: c^2 - 4 is past the primality cap
    "tracefield-3000-sevens": ("tracefield", {"poly": f"1,{'7' * 3000},1"}, "effort_exceeded"),
    # a 116-bit cofactor of a 57-bit and a 59-bit prime, past the whole ladder
    "tracefield-degree-8-116-bit": ("tracefield", {"poly": "0,27,1/5,-26/8,0,0,-20/11,-14/1,1"},
                                    "effort_exceeded"),
    # a 98-bit cofactor that the ladder splits
    "tracefield-degree-8-98-bit": ("tracefield", {"poly": "-11/9,8,0,9/10,-14/12,-6,-7,-23,1"}, "ok"),
    # a 136-bit cofactor with a 61-bit prime, past the whole ladder
    "form-invariants-rank-7": ("form-invariants", {"gram": RANK_7}, "effort_exceeded"),
    "form-invariants-4300-sevens": ("form-invariants", {"gram": "7" * 4300 + ",0;0,1"}, "effort_exceeded"),
    "hilbert-4300-digit-place": ("hilbert", {"a": 2, "b": 3, "place": "1" + "0" * 4298 + "7"}, "effort_exceeded"),
    "tracefield-two-100-bit-primes": ("tracefield", {"poly": f"-{P100 * Q100},0,1"}, "effort_exceeded"),
}


def _report(command: str, params: dict) -> dict:
    return _process_request_line(json.dumps({"command": command, "parameters": params}))


@pytest.mark.parametrize("name", UNBOUNDED_BEFORE)
def test_inputs_that_ran_without_bound_end_within_the_bound(name):
    command, params, status = UNBOUNDED_BEFORE[name]
    start = time.perf_counter()
    report = _report(command, params)
    assert time.perf_counter() - start < BOUND_S, name
    assert report["status"] == status, report.get("error")


def test_the_whole_ladder_at_the_factoring_cap_ends_within_the_bound():
    # two 128-bit primes: p - 1 and every curve of every rung run, then the
    # call is refused
    rng = random.Random(256)
    n = _random_prime(rng, 128) * _random_prime(rng, 128)
    assert n.bit_length() == 256
    start = time.perf_counter()
    with pytest.raises(EffortExceededError):
        factor(n)
    assert time.perf_counter() - start < BOUND_S


def test_the_ladder_splits_semiprimes_with_a_32_to_44_bit_prime():
    rng = random.Random(3244)
    for _ in range(100):
        p, q = _random_prime(rng, rng.randint(32, 44)), _random_prime(rng, 60)
        assert dict(factor(p * q)) == {p: 1, q: 1}, (p, q)


def test_effort_exceeded_is_a_domain_error():
    assert issubclass(EffortExceededError, DomainError)


def test_the_primality_cap_in_the_library():
    assert P2048.bit_length() == arith._PRIME_BITS == 2048
    assert is_prime(P2048)
    assert dict(factor(P2048)) == {P2048: 1}  # a prime cofactor needs no factoring cap
    for n in (2**2048 + 1, 2**2049):  # one bit past; even, the cap still comes first
        with pytest.raises(EffortExceededError):
            is_prime(n)


def test_the_factoring_cap_in_the_library(monkeypatch):
    assert AT_FACTOR_CAP.bit_length() == arith._FACTOR_BITS == 256
    assert PAST_FACTOR_CAP.bit_length() == 257
    assert dict(factor(AT_FACTOR_CAP)) == {STAGE1_P: 1, AT_FACTOR_CAP // STAGE1_P: 1}

    def refuse(m):
        raise AssertionError(f"p - 1 ran on {m}")

    monkeypatch.setattr(arith, "_pollard_pm1", refuse)
    for n in (PAST_FACTOR_CAP, -3 * PAST_FACTOR_CAP):
        with pytest.raises(EffortExceededError):
            factor(n)


def test_a_call_past_a_cap_fails_the_same_way_every_time(monkeypatch):
    # the memos keep answers, never failures: a one-curve ladder fails on
    # P100 * Q100 each time it is asked, and so does each cap
    monkeypatch.setattr(arith, "_ECM_RUNGS", ((1, 150, 10_000),))
    arith._factor_positive.cache_clear()
    for call, n in ((factor, P100 * Q100), (factor, PAST_FACTOR_CAP), (is_prime, 2**2048 + 1)):
        errors = []
        for _ in range(2):
            with pytest.raises(EffortExceededError) as caught:
                call(n)
            errors.append(str(caught.value))
        assert errors[0] == errors[1], errors
    assert arith._factor_positive.cache_info().currsize == 0


# (command, parameters, status, exit code) at each cap and one bit past it
AT_AND_PAST = [
    ("hilbert", {"a": "2", "b": "3", "place": str(P2048)}, "ok", 0),
    ("hilbert", {"a": "2", "b": "3", "place": str(2**2048 + 1)}, "effort_exceeded", 3),
    ("hilbert", {"a": "2", "b": "3", "place": str(2**2048 - 1)}, "input_error", 1),  # 3 divides it
    ("jehanne", {"p": str(P2048), "type": "1^4", "disc": "5"}, "ok", 0),
    ("jehanne", {"p": str(2**2048 + 1), "type": "1^4", "disc": "5"}, "effort_exceeded", 3),
    ("form-invariants", {"gram": str(AT_FACTOR_CAP)}, "ok", 0),
    ("form-invariants", {"gram": str(PAST_FACTOR_CAP)}, "effort_exceeded", 3),
]


def test_the_caps_in_batch_mode():
    for command, params, status, _ in AT_AND_PAST:
        report = _report(command, params)
        assert report["status"] == status, (command, report.get("error"))
        assert ("outputs" in report) == (status == "ok")


@pytest.mark.parametrize("command, params, status, code", AT_AND_PAST)
def test_the_caps_in_single_shot_mode(capsys, command, params, status, code):
    argv = command.split("-", 1) + [f"--{key}={value}" for key, value in params.items()] + ["--json"]
    assert run(argv) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert (out, err) == (dump_report(_report(command, params)) + "\n", "")
    else:
        assert out == "" and err == f"error: {_report(command, params)['error']}\n"
