import json
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassewitt import arith
from hassewitt.arith import factor, is_prime, legendre, padic_split, squarefree_part
from hassewitt.cli import run_batch
from hassewitt.errors import DomainError, EffortExceededError, InternalError

from oracles import montgomery_group_orders, naive_factor, naive_is_prime, naive_order, squares_mod
from test_cohomology_properties import CountedInt


def test_factor_basic():
    assert factor(12) == ((2, 2), (3, 1))
    assert factor(-283) == ((283, 1),)
    assert naive_is_prime(283)
    assert factor(2777) == ((2777, 1),)
    assert naive_is_prime(2777)
    assert factor(1) == ()
    assert factor(-1) == ()


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        factor(0)


def test_factor_returns_the_memos_pairs_once_they_reconstruct(monkeypatch):
    assert factor(-360) is arith._factor_positive(360)
    monkeypatch.setattr(arith, "_factor_positive", lambda n: ((2, 1),))
    assert factor(-2) == ((2, 1),)
    with pytest.raises(InternalError, match=r"^factorization of -6 does not reconstruct$"):
        factor(-6)


def test_factor_roundtrip_random():
    rng = random.Random(101)
    for _ in range(250):
        n = rng.randint(1, 10**12) * rng.choice([1, -1])
        fac = factor(n)
        assert prod(p**e for p, e in fac) == abs(n)
        for p, e in fac:
            assert e >= 1
            assert is_prime(p)
    # independent primality spot-check on moderate factors
    for n in (999999999989, 10**12 - 11, 87178291199):
        fac = factor(n)
        assert prod(p**e for p, e in fac) == n
        assert dict(fac) == naive_factor(n)


PSI12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI13 = 3317044064679887385961981


def test_is_prime_matches_naive():
    assert [n for n in range(20_001) if is_prime(n)] == [n for n in range(20_001) if naive_is_prime(n)]


def test_is_prime_rejects_pseudoprimes():
    carmichael = (561, 1105, 1729, 41041, 825265)
    strong_base2 = (2047, 3215031751)
    strong_lucas = (5459, 5777, 10877)
    # strong pseudoprimes to every prime base up to 23, 37 and 41 respectively
    multi_base = (3825123056546413051, PSI12, PSI13)
    for n in carmichael + strong_base2 + strong_lucas + multi_base:
        assert not is_prime(n), n
    for p in (2**61 - 1, 2**89 - 1, 2**127 - 1, 399165290221, 798330580441):
        assert is_prime(p), p


def test_is_prime_refuses_the_squares_of_the_wieferich_primes():
    # 1093**2 and 3511**2 are strong base-2 pseudoprimes with no factor in
    # the trial primes, so the square check of the Lucas test refuses them
    is_prime.cache_clear()
    for n in (1093**2, 3511**2):
        assert arith._strong_base2(n), n
        assert not is_prime(n), n


def test_factor_psi12():
    assert factor(PSI12) == ((399165290221, 1), (798330580441, 1))


def test_factor_matches_naive():
    rng = random.Random(55)
    for _ in range(80):
        n = rng.randint(2, 10**7)
        assert dict(factor(n)) == naive_factor(n)


def test_squarefree_part_examples():
    assert squarefree_part(18) == 2
    assert squarefree_part(-275) == -11
    assert squarefree_part(Fraction(1, 2)) == 2


def test_squarefree_part_properties():
    rng = random.Random(7)
    for _ in range(150):
        q = Fraction(rng.randint(1, 10**6) * rng.choice([1, -1]), rng.randint(1, 10**4))
        s = squarefree_part(q)
        ratio = q / s
        assert ratio > 0
        # ratio is the square of a rational
        assert _is_square(ratio.numerator) and _is_square(ratio.denominator)
        assert squarefree_part(s) == s
        assert (s < 0) == (q < 0)


def _is_square(n: int) -> bool:
    from math import isqrt

    return n >= 0 and isqrt(n) ** 2 == n


def test_squarefree_part_zero_rejected():
    with pytest.raises(DomainError):
        squarefree_part(0)
    with pytest.raises(DomainError):
        squarefree_part(Fraction(0))


def test_legendre_examples():
    # 283 = 3 mod 8, so 2 is a nonresidue by the second supplementary law
    assert legendre(2, 283) == -1
    assert legendre(4, 7) == 1
    assert legendre(283, 283) == 0


def test_legendre_against_exhaustive_squares():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        sq = squares_mod(p)
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in sq else -1)
        assert legendre(p, p) == 0
        assert legendre(-1, p) == (1 if (p - 1) // 2 % 2 == 0 else -1)


def test_legendre_multiplicative():
    rng = random.Random(11)
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13, 101, 283, 1009])
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        if a % p == 0 or b % p == 0:
            continue
        assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


def test_legendre_rejects_bad_modulus():
    for p in (2, 9, 15, 1, 0, -7, 2048):
        with pytest.raises(DomainError):
            legendre(3, p)


def test_padic_split_matches_naive_valuations():
    for q in (Fraction(12, 5), Fraction(-8), Fraction(1, 27)):
        for p in (2, 3, 5):
            v = naive_factor(q.numerator).get(p, 0) - naive_factor(q.denominator).get(p, 0)
            assert padic_split(q, p) == (v, q / Fraction(p) ** v), (q, p)
    # valuations known by construction, up to a thousand
    for p in (2, 3, 5):
        for v in (15, 16, 17, 1000, -1001):
            assert padic_split(Fraction(-7, 11) * Fraction(p) ** v, p) == (v, Fraction(-7, 11)), (p, v)


def test_padic_split_rejects_zero_and_non_primes():
    # p = 1 and p = -1 used to divide forever, and p = 0 by zero
    with pytest.raises(DomainError, match="^0 has no p-adic valuation$"):
        padic_split(Fraction(0), 3)
    for p in (-1, 0, 1, 4):
        with pytest.raises(DomainError, match=f"^{p} is not prime$"):
            padic_split(Fraction(5), p)


def test_factor_splits_a_cofactor_past_trial_division():
    n = 104729 * 1299709  # both prime and above 10**4, so Lehman's method splits n
    assert dict(factor(n)) == {104729: 1, 1299709: 1}
    assert dict(factor(2**4 * 104729)) == {2: 4, 104729: 1}


def test_trial_primes_are_the_odd_primes_below_ten_thousand():
    odd_primes = tuple(p for p in range(3, 10**4) if naive_is_prime(p))
    assert arith._TRIAL_PRIMES == odd_primes
    assert arith._PRIMORIAL == prod(odd_primes)


@pytest.mark.parametrize("powers, cofactor, trial", [
    ({3: 72000}, 1, "small"),
    ({5: 50000, 7: 3}, 1, "small"),  # 7 is the prime left in the gcd after the p * p > g break
    ({3: 72000}, 10007, "small"),
    ({101: 2000, 9973: 4000}, 1, "large"),
])
def test_divide_out_strips_each_prime_in_logarithmic_divisions(powers, cofactor, trial):
    # one division per unit of exponent would make 144,001 on 3**72000
    primes, product = {"small": (arith._SMALL_TRIAL, arith._SMALL_PRIMORIAL),
                       "large": (arith._LARGE_TRIAL, arith._PRIMORIAL)}[trial]
    n = cofactor * prod(p**e for p, e in powers.items())
    CountedInt.divisions = 0
    out: dict[int, int] = {}
    assert arith._divide_out(CountedInt(n), primes, product, out) == cofactor
    assert out == powers
    assert CountedInt.divisions <= sum(2 * (e.bit_length() + 2) for e in powers.values())


@pytest.mark.parametrize("n, want", [
    (1, {}),
    (9973, {9973: 1}),  # the largest prime below 10**4
    (10007, {10007: 1}),  # the smallest prime above it
    (9973**2, {9973: 2}),
    (10007**2, {10007: 2}),  # the smallest composite with no prime below 10**4
    (9973 * 10007, {9973: 1, 10007: 1}),
    (99_999_989, {99_999_989: 1}),  # the largest prime below 10**8
    (2**61 * 9973**3, {2: 61, 9973: 3}),
    (10007 * 10009, {10007: 1, 10009: 1}),  # between 10**8 and 10**10
])
def test_factor_trial_division_boundaries(n, want):
    assert dict(factor(n)) == want == naive_factor(n)


def test_factor_matches_naive_on_both_sides_of_the_small_trial_bound():
    # the first gcd takes out the primes below 100, the second those up to
    # 10**4 and only when the cofactor left is at least 100**2
    rng = random.Random(71)
    seeded = [rng.randrange(1, 10**6) for _ in range(400)]
    small = [p for p in range(3, 100) if naive_is_prime(p)]
    large = [p for p in range(101, 10**4) if naive_is_prime(p)]
    mixed = [rng.choice(small) ** rng.randint(1, 3) * rng.choice(large) ** rng.randint(1, 2)
             * rng.choice((1, 2, 8, rng.choice(large))) for _ in range(200)]
    edges = [97 * 101, 101**2, 101 * 103, 97**2 * 9973, 9_999, 10_000, 10_001, 3 * 10007, 99 * 10007 * 10009]
    for n in seeded + mixed + edges:
        assert dict(factor(n)) == naive_factor(n), n


def _next_prime(n: int) -> int:
    while not naive_is_prime(n):
        n += 1
    return n


DRAWN_PRIME = st.one_of(
    st.sampled_from([p for p in range(100) if naive_is_prime(p)]),
    st.sampled_from([p for p in range(9_900, 10_100) if naive_is_prime(p)]),
    st.integers(10**4, 99_990).map(_next_prime),
    st.integers(2**25, 2**30 - 100).map(_next_prime),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(DRAWN_PRIME, st.integers(1, 3)), min_size=1, max_size=4))
def test_factor_recovers_products_of_drawn_primes(parts):
    """Exact within the factoring limit; past it, exact or EffortExceededError."""
    want: dict[int, int] = {}
    for p, e in parts:
        want[p] = want.get(p, 0) + e
    n = prod(p**e for p, e in parts)
    try:
        got = dict(factor(n))
    except EffortExceededError:
        assert n.bit_length() > arith._FACTOR_BITS, parts
        return
    assert got == want


def _count_square_tests(monkeypatch, n: int) -> list[int]:
    """Record the isqrt calls of a _lehman(n) that are square tests: their
    argument is below n, while the ceilings of sqrt(4kn) are past it."""
    tests = []
    real = arith.isqrt

    def counted(x):
        if x < n:
            tests.append(x)
        return real(x)

    monkeypatch.setattr(arith, "isqrt", counted)
    return tests


def _lehman_bound(n: int) -> float:
    r = next(r for r in range(1, 10**4 + 2) if r**3 >= n)  # the ceiling of n**(1/3)
    return 1.5 * r + 2


def test_lehman_splits_semiprimes_below_the_pm1_floor(monkeypatch):
    # every composite that trial division leaves below 10**12 is p * q with
    # 10**4 < p <= 10**6: p just above 10**4 is Lehman's slowest case, and
    # balanced products near 10**12 have the most square tests to make
    rng = random.Random(13)
    low = [p for p in range(10**4, 10**4 + 400) if naive_is_prime(p)]
    cases = [(p, _next_prime(rng.randrange(10**7, 10**12 // p))) for p in rng.sample(low, 30)]
    for _ in range(10):
        p = _next_prime(rng.randrange(990_000, 999_000))
        q = 10**12 // p  # then the largest prime q with p * q < 10**12
        while not naive_is_prime(q):
            q -= 1
        cases.append((p, q))
    for p, q in cases:
        n = p * q
        assert n < arith._PM1_FLOOR and naive_factor(n) == {p: 1, q: 1}, (p, q)
        tests = _count_square_tests(monkeypatch, n)
        assert arith._lehman(n) in (p, q), (p, q)
        assert 0 < len(tests) <= _lehman_bound(n), (p, q, len(tests))
        monkeypatch.undo()


def test_lehman_scans_its_whole_range_on_a_prime_and_raises(monkeypatch):
    # on a prime no a**2 - 4kn is a square: every square test runs, within
    # the stated bound, and the method raises rather than loop
    n = 999_999_999_989  # the largest prime below 10**12
    assert naive_is_prime(n)
    tests = _count_square_tests(monkeypatch, n)
    with pytest.raises(InternalError):
        arith._lehman(n)
    assert len(tests) <= _lehman_bound(n) == 15_002


P100 = 2**100 - 15  # prime


def _count_strong_lucas(monkeypatch) -> list[int]:
    calls = []
    real = arith._strong_lucas

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "_strong_lucas", counted)
    return calls


def test_is_prime_memo_proves_a_prime_once(monkeypatch):
    is_prime.cache_clear()
    calls = _count_strong_lucas(monkeypatch)
    assert is_prime(P100) and is_prime(P100)
    assert calls == [P100]
    # typed: a float is not served the int's entry, and fails as it did unmemoized
    assert is_prime(53)
    with pytest.raises(TypeError):
        is_prime(53.0)


def test_is_prime_memo_keeps_pseudoprimes_composite():
    is_prime.cache_clear()
    for n in (PSI12, PSI13, 561, 2047, 5459):
        assert not is_prime(n), n
        assert not is_prime(n), n


def test_is_prime_memo_one_lucas_test_per_batch_place(monkeypatch, tmp_path):
    is_prime.cache_clear()
    calls = _count_strong_lucas(monkeypatch)
    infile, outfile = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    infile.write_text("".join(
        json.dumps({"id": i, "command": "hilbert", "parameters": {"a": 3 * P100 + i, "b": -i - 1, "place": P100}})
        + "\n" for i in range(50)))
    assert run_batch(str(infile), str(outfile)) == 0
    reports = [json.loads(line) for line in outfile.read_text().splitlines()]
    assert [r["status"] for r in reports] == ["ok"] * 50
    assert calls == [P100]


def test_pm1_exponent_is_lcm_up_to_b1():
    assert arith._PM1_EXPONENT == lcm(*range(1, arith._PM1_B1 + 1))


# primes with P - 1 = 2**11 * 3**2 * 1999, 2 * 3**3 * 7**3 * 1999,
# 2**3 * 3**2 * 5 * 7 * 11 * 13 * 197, 2**2 * 3**5 * 49999 and
# 2 * 11 * 31 * 49993 (B1 = 2,000, B2 = 50,000), and a safe prime whose
# Q - 1 = 2 * 268435631 is past B2
STAGE1_P = 36_845_569
STAGE1_OTHER = 37_025_479
STAGE1_EARLY = 70_990_921
STAGE2_P = 48_599_029
STAGE2_OTHER = 34_095_227
SAFE_Q = 536_871_263


def test_pm1_test_primes_have_the_stated_p_minus_1():
    for p in (STAGE1_P, STAGE1_OTHER, STAGE1_EARLY, STAGE2_P, STAGE2_OTHER, SAFE_Q):
        assert naive_is_prime(p), p
    assert naive_factor(STAGE1_P - 1) == {2: 11, 3: 2, 1999: 1}
    assert naive_factor(STAGE1_OTHER - 1) == {2: 1, 3: 3, 7: 3, 1999: 1}
    assert naive_factor(STAGE1_EARLY - 1) == {2: 3, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1, 197: 1}
    assert naive_factor(STAGE2_P - 1) == {2: 2, 3: 5, 49999: 1}
    assert naive_factor(STAGE2_OTHER - 1) == {2: 1, 11: 1, 31: 1, 49993: 1}
    assert naive_factor(SAFE_Q - 1) == {2: 1, 268435631: 1}
    # 1999, the last prime power of stage 1, divides the order of 2 mod
    # STAGE1_P and STAGE1_OTHER but not mod STAGE1_EARLY
    exponent = arith._PM1_EXPONENT
    assert arith._PM1_POWERS[-1] == 1999
    for p in (STAGE1_P, STAGE1_OTHER, STAGE1_EARLY):
        assert pow(2, exponent, p) == 1
        assert (pow(2, exponent // 1999, p) == 1) == (p == STAGE1_EARLY)
    # the order of 2 is divisible by 49999 mod STAGE2_P and by 49993 mod
    # STAGE2_OTHER, so stage 1 misses both; both primes share giant row
    # 238, at babies 13 and 19
    for p, q, u in ((STAGE2_P, 49999, 19), (STAGE2_OTHER, 49993, 13)):
        assert pow(2, exponent, p) != 1
        assert pow(2, exponent * q, p) == 1
        assert q == 238 * arith._W + u and arith._PAIRS[238 - 1][arith._BABIES.index(u)]


def test_pm1_stage_1_splits_a_smooth_semiprime():
    assert arith._pollard_pm1(STAGE1_P * SAFE_Q) == STAGE1_P


def test_pm1_stage_2_splits_past_b1():
    assert arith._pollard_pm1(STAGE2_P * SAFE_Q) == STAGE2_P


ECM_CURVES, ECM_B1, ECM_B2 = arith._ECM_RUNGS[0]
ECM_EXPONENT = arith._ECM_EXPONENTS[ECM_B1]


def _first_rung_only(monkeypatch):
    """Make every ECM ladder past the first rung's fail the test, so that
    p - 1 or the first rung is shown to split what factor() is given."""
    real = arith._ecm_ladder

    def guarded(x, a24, k, m):
        if k != ECM_EXPONENT:
            raise AssertionError(f"an ECM rung past the first ran on {m}")
        return real(x, a24, k, m)

    monkeypatch.setattr(arith, "_ecm_ladder", guarded)
    arith._factor_positive.cache_clear()


def test_pm1_finding_every_prime_falls_back_to_ecm(monkeypatch):
    # both orders of 2 need 1999, so even the replay takes in both at once
    # and p - 1 gives up; the first ECM rung then splits m
    m = STAGE1_P * STAGE1_OTHER
    assert arith._pollard_pm1(m) == 1
    _first_rung_only(monkeypatch)
    assert dict(factor(m)) == {STAGE1_P: 1, STAGE1_OTHER: 1}


def test_pm1_stage_1_replay_splits_when_both_primes_are_found(monkeypatch):
    # the stage-1 gcd is m; one prime power at a time, STAGE1_EARLY comes
    # out at 197 and STAGE1_P only at 1999
    m = STAGE1_P * STAGE1_EARLY
    assert gcd(pow(2, arith._PM1_EXPONENT, m) - 1, m) == m
    assert arith._pollard_pm1(m) == STAGE1_EARLY
    _first_rung_only(monkeypatch)
    assert dict(factor(-5 * m)) == {5: 1, STAGE1_P: 1, STAGE1_EARLY: 1}


def test_pm1_stage_1_replay_splits_primes_past_ecm_and_rho(monkeypatch):
    # 50- and 51-bit primes whose P - 1 are 2000-smooth: the stage-1 gcd is
    # m, and the replay finds LARGE_EARLY at 983, before LARGE_P's 1999.
    # The first ECM rung (B1 = 150, B2 = 10**4) finds neither prime
    LARGE_EARLY, LARGE_P = 960_204_910_910_339, 1_284_523_314_775_139
    assert naive_factor(LARGE_EARLY - 1) == {2: 1, 29: 1, 173: 1, 331: 1, 491: 1, 599: 1, 983: 1}
    assert naive_factor(LARGE_P - 1) == {2: 1, 37: 1, 79: 1, 229: 1, 677: 1, 709: 1, 1999: 1}
    assert is_prime(LARGE_EARLY) and is_prime(LARGE_P)
    m = LARGE_EARLY * LARGE_P
    assert gcd(pow(2, arith._PM1_EXPONENT, m) - 1, m) == m
    assert arith._pollard_pm1(m) == LARGE_EARLY
    monkeypatch.setattr(arith, "_ECM_RUNGS", arith._ECM_RUNGS[:1])
    assert arith._ecm(m) == 1
    monkeypatch.undo()
    _first_rung_only(monkeypatch)
    assert dict(factor(m)) == {LARGE_EARLY: 1, LARGE_P: 1}


def test_pm1_stage_2_replay_splits_a_batch_that_finds_both_primes(monkeypatch):
    # both primes come in on giant row 238, whose gcd is m; pair by pair,
    # baby 13 (49993) comes before baby 19 (49999)
    m = STAGE2_P * STAGE2_OTHER
    assert arith._pollard_pm1(m) == STAGE2_OTHER
    _first_rung_only(monkeypatch)
    assert dict(factor(3 * m)) == {3: 1, STAGE2_OTHER: 1, STAGE2_P: 1}


def test_pm1_runs_only_on_cofactors_of_at_least_10_to_the_12(monkeypatch):
    calls = []
    real = arith._pollard_pm1

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(arith, "_pollard_pm1", counted)
    arith._factor_positive.cache_clear()
    # Lehman's method splits the largest semiprimes below the floor; p - 1
    # runs on the product of the two primes below 2**20, which is past it
    below = 999_983 * 1_000_003
    above = 1_048_573 * 1_048_571
    assert below < arith._PM1_FLOOR == 10**12 < above
    assert dict(factor(3 * below)) == {3: 1, 999_983: 1, 1_000_003: 1}
    assert calls == []
    assert dict(factor(3 * above)) == {3: 1, 1_048_571: 1, 1_048_573: 1}
    assert calls == [above]
    calls.clear()
    assert dict(factor(7 * STAGE1_P * SAFE_Q)) == {7: 1, STAGE1_P: 1, SAFE_Q: 1}
    assert calls == [STAGE1_P * SAFE_Q]


def test_prime_powers_split_into_roots_without_p_minus_1(monkeypatch):
    # a cofactor r**k, k prime, splits into k roots before p - 1, ECM or the
    # 256-bit cap: M89**3 has 267 bits and M107**19 has 2,033
    def refuse(m):
        raise AssertionError(f"p - 1 or ECM ran on {m}")

    monkeypatch.setattr(arith, "_pollard_pm1", refuse)
    monkeypatch.setattr(arith, "_ecm", refuse)
    arith._factor_positive.cache_clear()
    m31, m61, m89, m107 = (2**e - 1 for e in (31, 61, 89, 107))  # Mersenne primes
    for n, want in ((m89**3, {m89: 3}), (m61**5, {m61: 5}), (m61**6, {m61: 6}), (m31**7, {m31: 7}),
                    (12 * m107**3, {2: 2, 3: 1, m107: 3}), (m107**19, {m107: 19})):
        assert dict(factor(n)) == want, want
    arith._factor_positive.cache_clear()


def test_factor_splits_seeded_semiprime_cofactors(monkeypatch):
    # p - 1 or the first ECM rung splits every one; both do the same work
    # on every call, and so return the same factor
    _first_rung_only(monkeypatch)
    rng = random.Random(23)
    small = [p for p in range(2, 10**4) if naive_is_prime(p)]
    for _ in range(200):
        s = rng.choice(small)
        P = Q = 0
        while P == Q:
            P, Q = (_next_prime(rng.getrandbits(bits) | 1 << (bits - 1))
                    for bits in (rng.randint(25, 30), rng.randint(25, 30)))
        assert dict(factor(s * P * Q)) == {s: 1, P: 1, Q: 1}, (s, P, Q)
        g = arith._ecm(P * Q)
        assert g in (P, Q) and arith._ecm(P * Q) == g, (P, Q)
        g = arith._pollard_pm1(P * Q)
        assert g in (1, P, Q) and arith._pollard_pm1(P * Q) == g, (P, Q)


def test_factor_splits_a_pm1_replay_collision_without_rho(monkeypatch):
    # the orders of 2 mod both primes have 389 as their largest prime
    # power, so the stage-1 replay takes in both at the same step
    P, Q = 751_510_657, 949_996_351
    assert naive_is_prime(P) and naive_is_prime(Q)
    assert arith._pollard_pm1(P * Q) == 1
    _first_rung_only(monkeypatch)
    assert dict(factor(7 * P * Q)) == {7: 1, P: 1, Q: 1}


# primes between 1,000 and 5,000 for the curve-order oracle
CURVE_PRIMES = (1009, 1499, 1997, 2503, 2999, 3511, 3989, 4507, 4903, 4999)


def _suyama_point_order(sigma: int, p: int) -> tuple[int, int, int | None]:
    """(x, a24, N) for Suyama's curve sigma mod p, with N the order of the
    group that holds its point (x : 1), or None if the curve is singular."""
    x, a24 = arith._suyama(sigma, p)
    A = (4 * a24 - 2) % p
    if A * A % p == 4:
        return x, a24, None
    on_curve, on_twist = montgomery_group_orders(A, p)
    # the point is on E or on its twist, by the Legendre symbol of
    # x**3 + A x**2 + x; a 2-torsion point, with 0, is on both
    f = (x ** 3 + A * x * x + x) % p
    return x, a24, on_twist if f and f not in squares_mod(p) else on_curve


def test_ecm_ladder_by_the_group_order_reaches_the_identity():
    for p in CURVE_PRIMES:
        assert naive_is_prime(p), p
        for sigma in range(6, 12):
            x, a24, order = _suyama_point_order(sigma, p)
            if order is None:
                continue
            assert order % 12 == 0, (p, sigma)  # Suyama's torsion
            assert arith._ecm_ladder(x, a24, order, p)[1] % p == 0, (p, sigma)
            # (order - 1) * P = -P, an affine point, has Z prime to p
            assert arith._ecm_ladder(x, a24, order - 1, p)[1] % p != 0, (p, sigma)


def test_ecm_stage_2_finds_an_order_one_prime_past_stage_1(monkeypatch):
    # mod P the group of curve sigma = 6 (on the twist, then on the curve)
    # has order N = q * (a divisor of lcm(1..B1)), q a prime in (B1, B2]
    # with 2q > B2: stage 1 leaves a point of order q, and only the pair
    # listed for q itself can find P; curve 6 finds nothing mod 2**61 - 1
    monkeypatch.setattr(arith, "_ECM_RUNGS", ((1, ECM_B1, ECM_B2),))
    for P, q in ((60017, 5023), (60617, 5021)):
        x, a24, order = _suyama_point_order(6, P)
        assert order % q == 0 and ECM_EXPONENT % (order // q) == 0, (P, order)
        assert ECM_B1 < q <= ECM_B2 < 2 * q and naive_is_prime(q)
        assert arith._ecm_ladder(x, a24, ECM_EXPONENT, P)[1] % P != 0
        assert arith._ecm(P * (2**61 - 1)) == P


def test_ecm_curves_are_defined_mod_every_cofactor():
    # the denominators of x and (A + 2)/4 divide a power of 16 u v: v has
    # no prime above the trial bound on any rung, and u none on the first,
    # so they are units mod any m that trial division leaves and that has
    # no prime of u (_ecm returns such a prime's gcd at once)
    curves = sum(count for count, _, _ in arith._ECM_RUNGS)
    for sigma in range(6, 6 + curves):
        u, v = sigma * sigma - 5, 4 * sigma
        assert max(naive_factor(16 * v)) < arith._TRIAL_BOUND, sigma
        if sigma < 6 + ECM_CURVES:
            assert max(naive_factor(u)) < arith._TRIAL_BOUND, sigma
    # sigma = 102 is on a later rung, and its u = 10399 is a prime past the bound
    assert 6 + ECM_CURVES <= 102 < 6 + curves and naive_is_prime(102**2 - 5)


def _stage2_calls(monkeypatch) -> list[tuple]:
    """Record the (babies, giants, v, m) of every _stage2 call, which finds nothing."""
    calls = []

    def record(babies, giants, v, m):
        calls.append((babies, giants, v, m))
        return 1

    monkeypatch.setattr(arith, "_stage2", record)
    return calls


def test_ecm_stage_2_pairs_cover_every_prime_once(monkeypatch):
    # the rows that each ECM rung and p - 1 read cover every prime in
    # (B1, B2] of their own stage 2 once; a listed pair is one with a prime
    # to _PM1_B2
    w, babies = arith._W, arith._BABIES
    assert babies == tuple(u for u in range(1, w // 2) if gcd(u, w) == 1)
    calls = _stage2_calls(monkeypatch)
    bounds = []
    for _, b1, b2 in arith._ECM_RUNGS:
        assert arith._ECM_EXPONENTS[b1] == lcm(*range(1, b1 + 1))
        monkeypatch.setattr(arith, "_ECM_RUNGS", ((1, b1, b2),))
        assert arith._ecm(STAGE2_P * SAFE_Q) == 1
        bounds.append((b1, b2))
    assert arith._pollard_pm1(STAGE2_P * SAFE_Q) == 1
    bounds.append((arith._PM1_B1, arith._PM1_B2))
    assert len(calls) == len(bounds)
    for (_, giants, first, _), (b1, b2) in zip(calls, bounds):
        count = len(giants)
        assert 1 <= first and first - 1 + count <= len(arith._PAIRS)
        covered: dict[int, int] = {}
        for v in range(first, first + count):
            for listed, u in zip(arith._PAIRS[v - 1], babies):
                hits = [q for q in (v * w + u, v * w - u) if q <= arith._PM1_B2 and naive_is_prime(q)]
                assert bool(listed) == bool(hits), (v, u)
                for q in hits:
                    if b1 < q <= b2:
                        covered[q] = covered.get(q, 0) + 1
        primes = [q for q in range(b1 + 1, b2 + 1) if naive_is_prime(q)]
        assert covered == dict.fromkeys(primes, 1), (b1, b2)


def test_pm1_stage_2_pairs_meet_the_order_of_x(monkeypatch):
    # V_vW - V_u = x**-vW (x**(vW + u) - 1)(x**(vW - u) - 1): a prime P
    # divides it exactly when the order of x mod P divides vW + u or vW - u
    calls = _stage2_calls(monkeypatch)
    w = arith._W
    primes = [p for p in range(11, 5000) if naive_is_prime(p)][::10] + [4007]  # 4007 = 2 * 2003 + 1
    for P in primes:
        for x in (2, 3, 5, 9, P - 1):
            assert arith._pm1_stage2(x, P * SAFE_Q) == 1
            babies, giants, first, _ = calls.pop()
            order = naive_order(x, P)
            for v, xv in enumerate(giants, start=first):
                for u, baby in zip(arith._BABIES, babies):
                    found = (xv - baby) % P == 0
                    assert found == ((v * w + u) % order == 0 or (v * w - u) % order == 0), (P, x, v, u)
