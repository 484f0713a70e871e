"""Exact integer and rational arithmetic primitives.

Everything downstream (symbols, forms, trace lattices) reduces to three
operations implemented here: integer factorization, extraction of the
squarefree part of a rational, and the quadratic residue symbol modulo an
odd prime.  All values are plain ``int`` / ``fractions.Fraction``; results
are exact.

Factorization strategy: trial division (wheel mod 30), then Brent-cycle
Pollard rho on whatever survives.  Primality is decided by the
Baillie-PSW test (a strong base-2 test plus a strong Lucas test with
Selfridge's parameters) at every size: it is exact below 2**64 and no
composite passing it is known above.  Exceeding the rho budget raises
:class:`EffortExceededError` rather than returning a wrong answer.

Factorizations and primality answers are memoized per process, up to
8,192 of each; the memo only holds what the tests returned, so no answer
depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import DomainError, EffortExceededError, InternalError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_CACHE_SIZE = 8192  # entries in each per-process memo: primality and factorization


# a hit proves nothing new, like a _factor_positive hit: it is the bool BPSW
# returned for this n; typed, so is_prime(7.0) and is_prime(True) keep theirs
@lru_cache(maxsize=_CACHE_SIZE, typed=True)
def is_prime(n: int) -> bool:
    """Baillie-PSW: small-prime trial division, then strong base-2 and strong Lucas tests."""
    if n < 2:
        return False
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


def _brent_rho(n: int, budget: int) -> int:
    """One nontrivial factor of odd composite n, or raise on exhausted budget."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        count = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
                count += m
                if count > budget:
                    break
            r *= 2
            if count > budget:
                break
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                count += 1
                if count > budget:
                    break
        if 1 < g < n:
            return g
    raise EffortExceededError(f"factorization effort exhausted on {n}")


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: sign * prod(p**e) reconstructs the input."""

    sign: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p ** e
        return n

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


@lru_cache(maxsize=_CACHE_SIZE)
def _factor_positive(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 into an ascending (prime, exponent) tuple."""
    if n == 1:
        return ()
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel mod 30 starting at 7, with periodic primality checkpoints so a
    # large prime or semiprime cofactor falls through to rho early; past
    # 10**4 only cofactors up to 10**10 stay, so d never passes 10**5
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    d, i = 7, 0
    checkpoint = 1_000
    while n > 1 and d * d <= n:
        if d >= checkpoint:
            if is_prime(n):
                break
            if checkpoint >= 10_000 and n > 10**10:
                break  # rho splits survivors this size much faster
            checkpoint *= 10
        if n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
            # cheap exit once the cofactor is proven prime
            if n > 1 and is_prime(n):
                break
        else:
            d += steps[i]
            i = (i + 1) % 8
    # whatever is left: prime, or composite with no divisor below the stage
    # bound; rho plus recursion finishes it
    stack = [n] if n > 1 else []
    budget = 1 << 22
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if isqrt(m) ** 2 == m:
            stack.extend((isqrt(m), isqrt(m)))
            continue
        g = _brent_rho(m, budget)
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
