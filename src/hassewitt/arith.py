"""Exact integer and rational arithmetic primitives.

Everything downstream (symbols, forms, trace lattices) reduces to three
operations implemented here: integer factorization, extraction of the
squarefree part of a rational, and the quadratic residue symbol modulo an
odd prime.  All values are plain ``int`` / ``fractions.Fraction``; results
are exact.

Factorization strategy: a gcd with the product of the odd primes below
100 finds the small primes, and a second gcd with the product of the odd
primes below 10**4 runs only when the cofactor left is at least 100**2.
Each composite cofactor then meets one method, chosen by its size, that
does a bounded amount of work.  Below 10**12 it is p*q with both primes
above 10**4, and Lehman's method splits it in at most 1.5 n**(1/3) + 2
square tests.  From 10**12 up to 2**256 it meets Pollard's p - 1 method:
stage 1 is one modular power x = 2**lcm(1..2,000), replayed one prime
power at a time when its gcd takes in every prime at once.  What p - 1
leaves meets Lenstra's elliptic curve method on a fixed ladder of rungs,
180 Suyama curves, sigma = 6, 7, ..., the same on every call: 40 curves
with an x-only Montgomery ladder by lcm(1..150), 40 by lcm(1..500) and
100 by lcm(1..2,000).  All end in one baby-step giant-step stage 2, giant
step 210, on one table of pairs read off the sieve: p - 1 on
V_k = x**k + x**-k up to 50,000, ECM on x-coordinates of multiples of its
point up to 10**4 on the first rung and 50,000 on the others, with a gcd
per giant step, and a pair-by-pair replay of one that takes in every
prime.  A composite cofactor past 2**256, or one that the last rung does
not split, raises :class:`EffortExceededError` rather than running on.
Primality is decided by the Baillie-PSW test (a strong base-2 test plus a
strong Lucas test with Selfridge's parameters) at every size up to 2,048
bits, and a larger operand raises :class:`EffortExceededError`: the test
is exact below 2**64 and no composite passing it is known above.

Factorizations and primality answers are memoized per process, up to
8,192 of each; the memo only holds what the tests returned, never an
error, so no answer depends on it and a call that raises always does.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, islice
from math import gcd, isqrt, prod
from operator import or_

from .errors import DomainError, EffortExceededError, InternalError
from .values import Value

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_CACHE_SIZE = 8192  # entries in each per-process memo: primality and factorization
_TRIAL_BOUND = 10_000  # trial division finds every prime below this bound
_SMALL_BOUND = 100  # the first trial gcd takes out the odd primes below this bound
_PM1_B1 = 2_000  # p - 1 stage 1 finds P when P - 1 divides lcm(1..B1)
_PM1_B2 = 50_000  # stage 2 finds P when P - 1 is that times one prime in (B1, B2]
# below 10**12 a composite that trial division leaves is p*q with
# 10**4 < p <= 10**6, and Lehman's method splits it; p - 1 and ECM from here up
_PM1_FLOOR = 10**12
# ECM rungs (curves, B1, B2), sigma running on from rung to rung: stage 1 takes
# lcm(1..B1) times the point, stage 2 the primes in (B1, B2], B2 <= _PM1_B2
_ECM_RUNGS = ((40, 150, 10_000), (40, 500, 50_000), (100, 2_000, 50_000))
_PRIME_BITS = 2_048  # is_prime refuses a larger n: BPSW takes ~0.1 s at this size
_FACTOR_BITS = 256  # a composite cofactor past this size is refused before p - 1
_W = 210  # stage-2 giant step; the baby steps are the odd u < W/2 prime to W


def _prime_tables() -> tuple[tuple[int, ...], tuple[bytes, ...]]:
    """From one sieve of Eratosthenes to _PM1_B2: the odd primes below
    _TRIAL_BOUND and the stage-2 pairs: row v - 1, for v = 1, 2, ...,
    (_PM1_B2 + W/2) // W, holds for each baby u of _BABIES 1 if v*W + u or
    v*W - u is a prime up to _PM1_B2, else 0."""
    sieve = bytearray([1]) * (_PM1_B2 + 1)
    for p in range(3, isqrt(_PM1_B2) + 1, 2):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _PM1_B2 + 1, p)))
    # a prime q > W/2 is v*W + u or v*W - u for one v >= 1 and one baby u:
    # each baby's two columns are sieve slices of stride W
    rows = (_PM1_B2 + _W // 2) // _W
    columns = [map(or_, sieve[_W + u::_W].ljust(rows, b"\0"), sieve[_W - u::_W].ljust(rows, b"\0"))
               for u in _BABIES]
    return tuple(compress(range(3, _TRIAL_BOUND, 2), sieve[3:_TRIAL_BOUND:2])), tuple(map(bytes, zip(*columns)))


def _prime_powers(bound: int) -> tuple[int, ...]:
    """The largest power of each prime up to bound < _TRIAL_BOUND; their
    product is lcm(1..bound)."""
    powers = []
    for p in (2, *_TRIAL_PRIMES[:bisect(_TRIAL_PRIMES, bound)]):
        power = p
        while power * p <= bound:
            power *= p
        powers.append(power)
    return tuple(powers)


_BABIES = tuple(u for u in range(1, _W // 2, 2) if gcd(u, _W) == 1)
_TRIAL_PRIMES, _PAIRS = _prime_tables()
_PM1_POWERS = _prime_powers(_PM1_B1)
_PM1_EXPONENT = prod(_PM1_POWERS)
_ECM_EXPONENTS = {b1: prod(_prime_powers(b1)) for _, b1, _ in _ECM_RUNGS}  # lcm(1..B1) by B1
_PRIMORIAL = prod(_TRIAL_PRIMES)
_SMALL_TRIAL = tuple(p for p in _TRIAL_PRIMES if p < _SMALL_BOUND)
_LARGE_TRIAL = _TRIAL_PRIMES[len(_SMALL_TRIAL):]
_SMALL_PRIMORIAL = prod(_SMALL_TRIAL)


# a hit proves nothing new, like a _factor_positive hit: it is the bool BPSW
# returned for this n; typed, so is_prime(7.0) and is_prime(True) keep theirs
@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def is_prime(n: int) -> bool:
    """Baillie-PSW: small-prime trial division, then strong base-2 and strong
    Lucas tests.  EffortExceededError for n of more than _PRIME_BITS bits."""
    if n < 2:
        return False
    if n >> _PRIME_BITS:
        raise EffortExceededError(f"a {n.bit_length()}-bit integer is past the {_PRIME_BITS}-bit primality limit")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _strong_base2(n) and _strong_lucas(n)


def _odd_part(m: int) -> tuple[int, int]:
    """(d, s) with m = d * 2**s and d odd, for m > 0."""
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _strong_base2(n: int) -> bool:
    """Strong probable-prime test to base 2 for odd n > 2."""
    d, s = _odd_part(n - 1)
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 2 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    D = 5
    while _jacobi(D, n) != -1:
        if gcd(D, n) not in (1, n):
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = _odd_part(n + 1)
    half = (n + 1) // 2  # the inverse of 2 mod n
    # U_k, V_k, Q^k for k running through the binary prefixes of d
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (D * u + v) * half % n, qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _stage2(babies: list[int], giants: list[int], v: int, m: int) -> int:
    """Stage 2 of p - 1 and ECM on the giant rows v, v + 1, ... of _PAIRS,
    with giants[j] the value at row v + j and babies[i] at _BABIES[i]: a
    prime P of m is found at the first listed pair where P | giant - baby.
    A gcd per row, in place of a reduction, stops at the first row that
    finds a prime; a row whose gcd is m is replayed pair by pair.  A
    nontrivial factor of m, or 1: none found, or all at the same pair."""
    for xv, row in zip(giants, _PAIRS[v - 1:]):
        acc = 1
        for b in compress(babies, row):
            acc *= xv - b
        g = gcd(acc, m)
        if g != 1:
            if g == m:
                g = next(d for b in compress(babies, row) if (d := gcd(xv - b, m)) != 1)
            return g if g < m else 1
    return 1


def _pm1_stage2(x: int, m: int) -> int:
    """p - 1 stage 2 from the stage-1 power x, a unit mod m: _stage2 on
    V_k = x**k + x**-k over the rows of the primes in (_PM1_B1, _PM1_B2].
    P | V_vW - V_u = x**-vW (x**(vW + u) - 1)(x**(vW - u) - 1) when the
    order of x mod P divides vW + u or vW - u (Montgomery 1987, section 4)."""
    v1 = (x + pow(x, -1, m)) % m
    v2 = (v1 * v1 - 2) % m
    # V_1, V_3, ..., V_(W/2) by V_(u+2) = V_u V_2 - V_(u-2), with V_-1 = V_1
    odd = [v1, v1 * (v2 - 1) % m]
    for _ in range(5, _W // 2 + 1, 2):
        odd.append((odd[-1] * v2 - odd[-2]) % m)
    # V_vW for v = 0, 1, ... by V_((v+1)W) = V_vW V_W - V_((v-1)W)
    vw = (odd[-1] * odd[-1] - 2) % m
    giants = [2, vw]
    for _ in range((_PM1_B2 + _W // 2) // _W - 1):
        giants.append((giants[-1] * vw - giants[-2]) % m)
    first = (_PM1_B1 + _W // 2) // _W
    return _stage2([odd[u // 2] for u in _BABIES], giants[first:], first, m)


def _pollard_pm1(m: int) -> int:
    """A nontrivial factor of odd composite m by Pollard's p - 1 method, or 1.

    Stage 1 finds the primes P of m for which the order of 2 mod P divides
    lcm(1.._PM1_B1), replaying one prime power at a time from 2 a gcd that
    takes in every prime; stage 2 those where it is such a divisor times
    one prime in (_PM1_B1, _PM1_B2].  1: no prime was found, or all came in
    at one prime power or stage-2 pair, and m goes on to ECM.
    """
    x = pow(2, _PM1_EXPONENT, m)
    g = gcd(x - 1, m)
    if g == m:
        x = 2
        for q in _PM1_POWERS:
            x = pow(x, q, m)
            g = gcd(x - 1, m)
            if g != 1:
                break
    elif g == 1:
        return _pm1_stage2(x, m)
    return g if g < m else 1


def _ecm_double(X: int, Z: int, a24: int, m: int) -> tuple[int, int]:
    """x-only doubling on the Montgomery curve with (A + 2)/4 = a24."""
    s, d = (X + Z) ** 2 % m, (X - Z) ** 2 % m
    t = s - d
    return s * d % m, t * (d + a24 * t) % m


def _ecm_add(X: int, Z: int, X1: int, Z1: int, Xd: int, Zd: int, m: int) -> tuple[int, int]:
    """x-only P + P1 from P, P1 and their difference (Xd:Zd)."""
    a, b = (X - Z) * (X1 + Z1) % m, (X + Z) * (X1 - Z1) % m
    return Zd * (a + b) ** 2 % m, Xd * (a - b) ** 2 % m


def _ecm_ladder(x: int, a24: int, k: int, m: int) -> tuple[int, int]:
    """(X:Z) = k * (x:1) for k >= 1 by the Montgomery ladder, which keeps
    (X:Z) and (X1:Z1) = (X:Z) + (x:1) and adds with difference (x:1)."""
    X, Z = x, 1
    X1, Z1 = _ecm_double(x, 1, a24, m)
    for bit in bin(k)[3:]:
        # _ecm_add with difference (x:1) and _ecm_double of the point the
        # bit names, inlined and sharing the sums and differences
        s, d, s1, d1 = X + Z, X - Z, X1 + Z1, X1 - Z1
        a, b = d * s1 % m, s * d1 % m
        XA, ZA = (a + b) ** 2 % m, x * (a - b) ** 2 % m
        if bit == "1":
            s, d = s1 * s1 % m, d1 * d1 % m
        else:
            s, d = s * s % m, d * d % m
        t = s - d
        XD, ZD = s * d % m, t * (d + a24 * t) % m
        if bit == "1":
            X, Z, X1, Z1 = XA, ZA, XD, ZD
        else:
            X, Z, X1, Z1 = XD, ZD, XA, ZA
    return X, Z


def _suyama(sigma: int, m: int) -> tuple[int, int]:
    """(x, a24) of Suyama's curve for sigma mod m: u = sigma**2 - 5,
    v = 4 sigma, x = u**3 / v**3 and (A + 2)/4 = (v - u)**3 (3u + v) / (16 u**3 v).
    The group that holds the point has order divisible by 12.  Both
    denominators are units mod m when u is: m has no prime below
    _TRIAL_BOUND, and v has none above it (sigma < _TRIAL_BOUND)."""
    u, v = sigma * sigma - 5, 4 * sigma
    inverse = pow(16 * u ** 3 * v ** 4, -1, m)
    return 16 * u ** 6 * v * inverse % m, (v - u) ** 3 * (3 * u + v) * v ** 3 * inverse % m


def _ecm(m: int) -> int:
    """A nontrivial factor of odd composite m by Lenstra's elliptic curve
    method, or 1.  m has no prime below _TRIAL_BOUND.

    The curves are Suyama's, sigma = 6, 7, ..., rung by rung of _ECM_RUNGS,
    the same on every call.  Stage 1 takes Q = lcm(1..B1) * P by the x-only
    ladder, and finds the primes P of m where Q is the identity.  Stage 2
    finds those where the order of Q is a prime q in (B1, B2]: with
    q = v*W + u or v*W - u, x(vW Q) = x(u Q) mod P, and _stage2 finds P
    on the x-coordinates, after one batch inversion has made every Z one.
    The first gcd strictly between 1 and m is the answer; a gcd equal to m
    goes on to the next curve, and 1 after the last curve of the last rung
    means that m is refused.
    """
    sigmas = count(6)
    for curves, b1, b2 in _ECM_RUNGS:
        exponent = _ECM_EXPONENTS[b1]
        for sigma in islice(sigmas, curves):
            g = gcd(sigma * sigma - 5, m)  # a prime of u in m is a factor, found at once
            if g != 1:
                return g
            x, a24 = _suyama(sigma, m)
            X, Z = _ecm_ladder(x, a24, exponent, m)
            g = gcd(Z, m)
            if g != 1:
                if g < m:
                    return g
                continue
            # the odd multiples u Q, u = 1, 3, ..., W/2, by (u + 2)Q = uQ + 2Q
            X2, Z2 = _ecm_double(X, Z, a24, m)
            odd = [(X, Z), _ecm_add(X2, Z2, X, Z, X, Z, m)]
            for _ in range(5, _W // 2 + 1, 2):
                odd.append(_ecm_add(*odd[-1], X2, Z2, *odd[-2], m))
            # the giant steps v W Q, v = 1, 2, ..., by (v + 1)G = vG + G
            G = _ecm_double(*odd[-1], a24, m)
            giants = [G, _ecm_double(*G, a24, m)]
            for _ in range((b2 + _W // 2) // _W - 2):
                giants.append(_ecm_add(*giants[-1], *G, *giants[-2], m))
            points = [odd[u // 2] for u in _BABIES] + giants
            # batch inversion: prefix[i] is the product of the first i Z
            prefix = [1]
            for _, z in points:
                prefix.append(prefix[-1] * z % m)
            g = gcd(prefix[-1], m)
            if g != 1:
                if g < m:
                    return g
                continue
            inverse = pow(prefix[-1], -1, m)
            xs = [0] * len(points)
            for i in range(len(points) - 1, -1, -1):
                X, Z = points[i]
                xs[i] = X * prefix[i] * inverse % m
                inverse = inverse * Z % m
            g = _stage2(xs[:len(_BABIES)], xs[len(_BABIES):], 1, m)
            if g != 1:
                return g
    return 1


def _lehman(n: int) -> int:
    """A nontrivial factor of composite n > 21 with no prime at most
    n**(1/3), by Lehman's method (Math. Comp. 28, 1974): for some k in
    1..n**(1/3), some a with 0 <= a - sqrt(4kn) <= n**(1/6)/(4 sqrt k)
    makes a**2 - 4kn a square b**2, and gcd(a + b, n) splits n.  Squared,
    that range is b**2 <= n**(2/3) + n**(1/3)/(16k); with r the ceiling of
    n**(1/3), the ranges hold at most 1.5 r + 2 square tests in all (5,033
    on the prime 999,999,999,989, where r = 10**4)."""
    r = 1 << -(-n.bit_length() // 3)  # Newton from above to the floor of n**(1/3)
    while (s := (2 * r + n // (r * r)) // 3) < r:
        r = s
    r += r ** 3 < n
    for k in range(1, r + 1):
        four_kn = 4 * k * n
        a = isqrt(four_kn - 1) + 1  # the ceiling of sqrt(4kn)
        top = r * r + r // (16 * k) + 1
        while (b2 := a * a - four_kn) <= top:
            b = isqrt(b2)
            if b * b == b2:
                return gcd(a + b, n)
            a += 1
    raise InternalError(f"Lehman's method found no factor of {n}")


class Factorization(Value):
    """Signed prime factorization: sign * prod(p**e) reconstructs the input.

    factors holds the (prime, exponent) pairs, primes ascending."""

    _fields = ("sign", "factors")

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p ** e
        return n

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def _divide_out(n: int, primes: tuple[int, ...], product: int, out: dict[int, int]) -> int:
    """n without the primes of gcd(n, product), with their exponents put
    into out.  primes ascends and holds every one of those primes."""
    # g is squarefree: once p * p > g, what is left of g is 1 or a prime
    g = gcd(n, product)
    found: list[int] = []
    for p in primes:
        if p * p > g:
            break
        if g % p == 0:
            found.append(p)
            g //= p
    if g > 1:
        found.append(g)
    for p in found:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return n


@lru_cache(maxsize=_CACHE_SIZE)
def _factor_positive(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 into an ascending (prime, exponent) tuple."""
    n, s = _odd_part(n)
    out: dict[int, int] = {2: s} if s else {}
    n = _divide_out(n, _SMALL_TRIAL, _SMALL_PRIMORIAL, out)
    # every prime left is above _SMALL_BOUND, so below its square n is 1 or a prime
    if n >= _SMALL_BOUND * _SMALL_BOUND:
        n = _divide_out(n, _LARGE_TRIAL, _PRIMORIAL, out)
    # every prime left is above _TRIAL_BOUND, so a composite left is above its
    # square; Lehman's method, or p - 1 and ECM, and recursion finish the rest
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if isqrt(m) ** 2 == m:
            stack.extend((isqrt(m), isqrt(m)))
            continue
        if m < _PM1_FLOOR:
            g = _lehman(m)
        elif m >> _FACTOR_BITS:
            raise EffortExceededError(f"a {m.bit_length()}-bit composite is past the {_FACTOR_BITS}-bit factoring limit")
        elif (g := _pollard_pm1(m)) == 1 and (g := _ecm(m)) == 1:
            raise EffortExceededError(f"p - 1 and ECM found no factor of the {m.bit_length()}-bit cofactor {m}")
        stack.extend((g, m // g))
    return tuple(sorted(out.items()))


def factor(n: int) -> Factorization:
    """Factor a nonzero integer; keys are prime, exponents >= 1."""
    if n == 0:
        raise DomainError("cannot factor 0")
    sign = -1 if n < 0 else 1
    fac = Factorization(sign, _factor_positive(abs(n)))
    if fac.value() != n:
        raise InternalError(f"factorization of {n} does not reconstruct")
    return fac


def squarefree_part(q: int | Fraction) -> int:
    """The unique squarefree integer s with q/s a nonzero rational square.

    The sign of s matches the sign of q; squarefree_part(1/2) == 2 because
    1/2 = 2 * (1/2)**2.
    """
    q = Fraction(q)
    if q == 0:
        raise DomainError("0 has no squarefree part")
    n = q.numerator * q.denominator  # same square class as q
    s = -1 if n < 0 else 1
    for p, e in factor(n).factors:
        if e % 2:
            s *= p
    return s


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol (a/p) for an odd prime p; 0 iff p | a."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    return _jacobi(a, p)


def padic_split(q: Fraction, p: int) -> tuple[int, Fraction]:
    """Write q = p**v * u with u a p-adic unit; returns (v, u)."""
    if q == 0:
        raise DomainError("0 has no p-adic valuation")
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)
