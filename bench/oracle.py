"""Reference arithmetic for checking reports, independent of hassewitt.

Nothing here imports the package under test.  Values whose factorization
the corpus generator chose are carried as ``Fac`` (sign plus a prime ->
exponent map), so every symbol below is evaluated from known prime data
and never factors anything.  Legendre symbols go through the Jacobi
reciprocity algorithm rather than Euler's criterion, and primality through
Miller-Rabin with bases drawn from a seeded generator.

Places are ``"inf"`` or a prime ``int``; place sets are ``frozenset``s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

INF = "inf"


def is_probable_prime(n: int, rounds: int = 32) -> bool:
    """Miller-Rabin with pseudo-random bases (error below 4**-rounds)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = random.Random(n)
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int, residue: int = 1, modulus: int = 2) -> int:
    """A prime in [lo, hi) congruent to residue mod modulus."""
    while True:
        n = rng.randrange(lo, hi)
        n += (residue - n) % modulus
        if lo <= n < hi and is_probable_prime(n):
            return n


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
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


@dataclass(frozen=True)
class Fac:
    """A nonzero rational sign * prod(p**e) with its factorization known."""

    sign: int
    exps: tuple[tuple[int, int], ...]  # (prime, exponent != 0), primes ascending

    @staticmethod
    def of(sign: int, exps: dict[int, int]) -> "Fac":
        return Fac(sign, tuple(sorted((p, e) for p, e in exps.items() if e)))

    def __mul__(self, other: "Fac") -> "Fac":
        out = dict(self.exps)
        for p, e in other.exps:
            out[p] = out.get(p, 0) + e
        return Fac.of(self.sign * other.sign, out)

    def value(self) -> Fraction:
        v = Fraction(self.sign)
        for p, e in self.exps:
            v *= Fraction(p) ** e
        return v

    def primes(self) -> set[int]:
        return {p for p, _ in self.exps}

    def square_class(self) -> int:
        s = self.sign
        for p, e in self.exps:
            if e % 2:
                s *= p
        return s

    def split(self, p: int) -> tuple[int, int]:
        """(v_p, the unit part reduced mod p, or mod 8 when p == 2)."""
        mod = 8 if p == 2 else p
        v, u = 0, self.sign % mod
        for q, e in self.exps:
            if q == p:
                v = e
            else:
                u = u * pow(q, e, mod) % mod
        return v, u


def fac_int(n: int) -> Fac:
    """Factor a nonzero integer by trial division; for generator-side use
    on numbers whose prime factors are known to be small."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return Fac.of(sign, out)


def _hilbert_units(alpha: int, u: int, beta: int, w: int, p: int) -> int:
    """(p**alpha u, p**beta w)_p from valuations and unit residues."""
    if p == 2:
        eps = lambda x: ((x - 1) // 2) % 2  # noqa: E731 - x odd residue mod 8
        omega = lambda x: ((x * x - 1) // 8) % 2  # noqa: E731
        e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if e % 2 else 1
    sym = -1 if (alpha * beta) % 2 and p % 4 == 3 else 1
    if beta % 2:
        sym *= jacobi(u, p)
    if alpha % 2:
        sym *= jacobi(w, p)
    return sym


def hilbert(a: Fac, b: Fac, v) -> int:
    """Local Hilbert symbol (a, b)_v of two factored rationals."""
    if v == INF:
        return -1 if a.sign < 0 and b.sign < 0 else 1
    alpha, u = a.split(v)
    beta, w = b.split(v)
    return _hilbert_units(alpha, u, beta, w, v)


def hilbert_plain(a: Fraction, b: Fraction, v) -> int:
    """(a, b)_v for rationals, by direct v-adic splitting (no factoring)."""
    if v == INF:
        return -1 if a < 0 and b < 0 else 1
    mod = 8 if v == 2 else v

    def split(q: Fraction) -> tuple[int, int]:
        num, den, val = q.numerator, q.denominator, 0
        while num % v == 0:
            num //= v
            val += 1
        while den % v == 0:
            den //= v
            val -= 1
        return val, num * pow(den, -1, mod) % mod

    alpha, u = split(a)
    beta, w = split(b)
    return _hilbert_units(alpha, u, beta, w, v)


def candidate_places(values) -> set:
    places = {INF, 2}
    for x in values:
        places |= x.primes()
    return places


def cup(a: Fac, b: Fac) -> frozenset:
    """Support of the cup product of two square classes."""
    return frozenset(v for v in candidate_places((a, b)) if hilbert(a, b, v) == -1)


def pair_sum(entries) -> frozenset:
    """Support of sum_{i<j} cup(a_i, a_j): the Hasse-Witt class w2."""
    out = frozenset()
    for a, b in combinations(entries, 2):
        out ^= cup(a, b)
    return out


def product(entries) -> Fac:
    out = Fac(1, ())
    for x in entries:
        out = out * x
    return out


@dataclass(frozen=True)
class FormData:
    """Classifying data of a diagonal form with factored entries."""

    rank: int
    signature: tuple[int, int]
    disc: Fac
    w2: frozenset

    @staticmethod
    def of(entries) -> "FormData":
        pos = sum(1 for a in entries if a.sign > 0)
        return FormData(len(entries), (pos, len(entries) - pos), product(entries), pair_sum(entries))

    @property
    def hasse_minus(self) -> frozenset:
        return frozenset(v for v in self.w2 if v != INF)

    def classifying(self) -> tuple:
        return (self.rank, self.signature, self.disc.square_class(), self.w2)


def delta_classes(a: FormData, b: FormData) -> tuple[int, frozenset]:
    """(delta1, delta2) of a pair of forms: w1 + w1' and
    w2 + w1.w1 + w1.w1' + w2'."""
    w1a, w1b = a.disc, b.disc
    delta1 = (w1a * w1b).square_class()
    delta2 = a.w2 ^ cup(w1a, w1a) ^ cup(w1a, w1b) ^ b.w2
    return delta1, delta2


# ---------------------------------------------------------------------------
# complete intersections, from the formulas they are defined by
# ---------------------------------------------------------------------------


def ci_euler(n: int, degrees: tuple[int, ...]) -> int:
    """deg * [h**n] (1+h)**(n+c+1) / prod(1 + d h), by series inversion."""
    c = len(degrees)
    denom = [1]
    for d in degrees:
        denom = [(denom[k] if k < len(denom) else 0) + d * (denom[k - 1] if k >= 1 else 0)
                 for k in range(len(denom) + 1)]
    inv = [0] * (n + 1)
    inv[0] = 1
    for k in range(1, n + 1):
        inv[k] = -sum(denom[j] * inv[k - j] for j in range(1, min(k, len(denom) - 1) + 1))
    coeff = sum(comb(n + c + 1, k) * inv[n - k] for k in range(n + 1))
    total = 1
    for d in degrees:
        total *= d
    return total * coeff


def motive_expected(n: int, degrees: tuple[int, ...]) -> dict:
    """The motive report as JSON-comparable values."""
    chi = ci_euler(n, degrees)
    if len(degrees) == 1:
        d = degrees[0]
        closed = n + 2 + ((1 - d) ** (n + 2) - 1) // d
        if chi != closed:
            raise AssertionError(f"oracle disagrees with closed form at n={n}, d={d}")
    total = 1
    for d in degrees:
        total *= d
    t = sum(1 for d in degrees if d % 2 == 0)
    binom_even = comb(n // 2 + t, t) % 2 == 0
    m = chi - n - (0 if binom_even else total)
    mp = m // 2
    minus_minus = [2, INF]
    out = {
        "chi": chi,
        "b_n": chi - n,
        "tau_mod8": 0 if binom_even else total % 8,
        "m": m,
        "m_prime": mp,
        "w1_qB": -1 if mp % 2 else 1,
        "w2_qB": minus_minus if (mp * (mp - 1) // 2) % 2 else [],
        "delta1": None,
        "delta2": None,
    }
    if len(degrees) == 1:
        d = degrees[0]
        if d % 2:
            sign = -1 if ((d - 1) // 2) % 2 else 1
            coeff = (d - 1) // 2
            extra = []
        else:
            sign = -1 if ((d // 2) * ((n + 2) // 2)) % 2 else 1
            if n % 4 == 0:
                coeff, extra = (n // 4) * (1 + d // 2), []
            else:
                coeff, extra = ((n + 2) // 4) * (1 + d // 2), ["(-1,disc_d(f))"]
        out["delta1"] = {"numeric": sign, "tokens": ["disc_d(f)"]}
        out["delta2"] = {"numeric": minus_minus if coeff % 2 else [], "tokens": ["w2(q_dR)"] + extra}
    return out


def jehanne_expected(p: int, type_name: str, disc: int) -> tuple[int, int]:
    """The local table for an odd prime p of a quartic field."""
    eight = -1 if ((p * p - 1) // 8) % 2 else 1
    four = -1 if p % 4 == 3 else 1
    table = {
        "unramified": (1, 1),
        "1^2,1,1": (eight, eight),
        "1^3,1": (1, 1),
        "1^2,2": (-eight, eight),
        "1^4": (four, eight),
        "2^2": (-four, 1),
    }
    if type_name == "1^2,1^2":
        return (four * hilbert_plain(Fraction(disc), Fraction(p), p), 1)
    return table[type_name]
