"""Etale Q-algebras presented by squarefree monic polynomials.

A polynomial f is held as c, the lcm of the reduced denominators of its
coefficients, and the integral coefficients of c*f; the CLI parses
coefficients straight into that pair, and the request path builds no
rational number.  :class:`Poly` is a value type with no arithmetic (coeffs,
degree, leading, is_monic, derivative, is_squarefree, integer_coeffs,
to_json).  The algebra Q[x]/(f) carries the symmetric pairing
(u, v) -> trace(u*v); its Gram matrix in the power basis is the Hankel
matrix of power sums of the roots.  Newton's identities give them without
ever touching a root, run in integers on the monic integral
g = c**d * f(x/c), whose roots are c times those of f, so that
p_k(f) = p_k(g) / c**k.  Resultants run through the subresultant
polynomial remainder sequence over the integers.  The discriminant and the
real signature come from one such sequence of (f, f'), run once per
algebra: its members are signed multiples of the Sturm sequence.  Residue
factorization patterns come from distinct-degree factorization over F_p,
which gives the degree and count of the factors: x**p mod f is computed
once per squarefree part, and the higher Frobenius powers x**(p**i) come
from the Frobenius matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd as igcd
from math import lcm
from typing import Iterable, Sequence

from .arith import is_prime
from .errors import DomainError, InternalError
from .forms import FormInvariants, QuadraticForm, _rat_json, invariants
from .cohomology import SquareClass


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial over Q, coefficients ascending by degree.

    It is held as c, the lcm of the reduced denominators of its
    coefficients, and the integral coefficients of c*f with trailing zeros
    trimmed; that pair is canonical, so equality and hashing compare it.
    A value type with no arithmetic, it offers ``coeffs`` (rebuilt from the
    pair on demand), ``is_zero``, ``degree``, ``leading``, ``is_monic``,
    ``derivative``, ``is_squarefree``, ``integer_coeffs`` and ``to_json``.
    """

    _scale: int
    _scaled: tuple[int, ...]

    def __init__(self, coeffs: Iterable):
        rats = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in coeffs]
        self._set([(x.numerator, x.denominator) for x in rats])

    @classmethod
    def _from_ratios(cls, pairs: Iterable[tuple[int, int]]) -> "Poly":
        """The polynomial with coefficients num/den, from (num, den) pairs in lowest terms."""
        f = object.__new__(cls)
        f._set(list(pairs))
        return f

    def _set(self, pairs: list[tuple[int, int]]) -> None:
        while pairs and pairs[-1][0] == 0:
            pairs.pop()
        scale = lcm(*[den for _, den in pairs])
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_scaled", tuple(num * (scale // den) for num, den in pairs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        scale = self._scale
        return tuple(Fraction(x, scale) for x in self._scaled)

    @property
    def is_zero(self) -> bool:
        return not self._scaled

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._scaled) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return Fraction(self._scaled[-1], self._scale)

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self._scaled[-1] == self._scale

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def is_squarefree(self) -> bool:
        # in characteristic 0, f is squarefree iff f and f' have no common root
        if self.is_zero:
            return False
        return self.degree <= 0 or resultant(self, self.derivative()) != 0

    def integer_coeffs(self) -> tuple[int, list[int]]:
        """(d, coeffs) with d > 0 minimal such that d * self has integer coefficients."""
        return self._scale, list(self._scaled)

    def to_json(self) -> list:
        return [_rat_json(x, self._scale) for x in self._scaled]

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, x in enumerate(self._scaled):
            if x:
                c = _rat_json(x, self._scale)
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "Poly(" + " + ".join(terms) + ")"


# ---------------------------------------------------------------------------
# resultants and discriminants
# ---------------------------------------------------------------------------


def _int_content(cs: Sequence[int]) -> int:
    g = 0
    for c in cs:
        g = igcd(g, abs(c))
    return g or 1


def _subresultant_res(a: list[int], b: list[int]) -> tuple[int, int]:
    """(Res(a, b), V(-inf) - V(+inf)) for nonzero integer polynomials by
    one subresultant PRS; the count needs deg a >= deg b and Res != 0.

    Member P_k is a multiple of sign eps_k of the Sturm member S_k (S_0 = a,
    S_1 = b, S_(k+1) = -rem(S_(k-1), S_k)), and V counts sign changes of the
    S_k.  P_(k+1) = prem(P_(k-1), P_k) / (g * h**delta) gives
    eps_(k+1) = -eps_(k-1) * sign(lc P_k)**(delta + 1) * sign(g * h**delta).
    For b = a' the count is the number of real roots of a (Sturm).
    """
    da, db = len(a) - 1, len(b) - 1
    sign = 1
    if da < db:
        a, b = b, a
        da, db = db, da
        if (da * db) % 2:
            sign = -1
    # signs of the Sturm members at +inf (hi) and -inf (lo); count is V(-inf) - V(+inf) so far
    hi_a, hi_b = (1 if a[-1] > 0 else -1), (1 if b[-1] > 0 else -1)
    lo_a, lo_b = hi_a * (-1) ** da, hi_b * (-1) ** db
    count = (lo_a != lo_b) - (hi_a != hi_b)
    if db == 0:
        return sign * b[0] ** da, count
    ca, cb = _int_content(a), _int_content(b)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    scale = ca**db * cb**da
    g = h = 1
    eps_a = eps_b = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if (da % 2) and (db % 2):
            sign = -sign
        # prem with the exact power lc(b)**(delta + 1)
        r = a[:]
        lb = b[-1]
        reductions = 0
        while len(r) - 1 >= db and any(r):
            dr = len(r) - 1
            coef = r[-1]
            r = [c * lb for c in r]
            for i in range(db + 1):
                r[dr - db + i] -= coef * b[i]
            while r and r[-1] == 0:
                r.pop()
            reductions += 1
        missing = delta + 1 - reductions
        if missing:
            r = [c * lb**missing for c in r]
        if not r:
            return 0, count
        denom = g * h**delta
        eps_a, eps_b = eps_b, -eps_a * (1 if lb > 0 or delta % 2 else -1) * (1 if denom > 0 else -1)
        a, b = b, [c // denom for c in r]
        hi = eps_b * (1 if b[-1] > 0 else -1)
        lo = hi if len(b) % 2 else -hi  # times (-1)**deg
        count += (lo != lo_b) - (hi != hi_b)
        lo_b, hi_b = lo, hi
        g = a[-1]
        if delta:
            num = g**delta
            h = num // h ** (delta - 1)
        if len(b) - 1 == 0:
            da = len(a) - 1
            res = b[0] ** da // h ** (da - 1) if da >= 1 else b[0]
            return sign * scale * res, count


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g), exact, with the Sylvester determinant sign convention."""
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of the zero polynomial")
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    if g.degree == 0:
        return g.coeffs[0] ** f.degree
    df, fi = f.integer_coeffs()
    dg, gi = g.integer_coeffs()
    res, _ = _subresultant_res(fi, gi)
    return Fraction(res, df**g.degree * dg**f.degree)


def _disc_and_real_roots(f: Poly) -> tuple[int, int, int]:
    """(num, den, number of real roots of f) with disc f = num / den, for
    deg f >= 1, from one PRS.  num = 0 exactly when f has a repeated root;
    the count is then void."""
    d, fi = f.integer_coeffs()
    res, count = _subresultant_res(fi, [i * c for i, c in enumerate(fi)][1:])
    n = f.degree
    # disc f = (-1)**(n(n-1)/2) * Res(f, f') / lc f, where
    # Res(d*f, d*f') = d**(2n - 1) * Res(f, f') and d * lc f = fi[-1]
    return (-res if (n * (n - 1) // 2) % 2 else res), d ** (2 * n - 2) * fi[-1], count


def discriminant(f: Poly) -> Fraction:
    """(-1)**(d(d-1)/2) * Res(f, f') for a monic polynomial of degree d.

    Equals the product of (x_i - x_j)**2 over the complex roots.
    """
    if f.is_zero or not f.is_monic:
        raise DomainError("discriminant requires a monic polynomial")
    if f.degree < 1:
        raise DomainError("discriminant requires degree >= 1")
    num, den, _ = _disc_and_real_roots(f)
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# etale algebras and trace forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EtaleAlgebra:
    """Q[x]/(f) for monic squarefree f; reducible f models a product of fields.

    disc f, kept as an integer pair and built as a rational only when read,
    and the real root count come from the constructor's one PRS."""

    poly: Poly
    real_roots: int = field(compare=False)
    _disc: tuple[int, int] = field(compare=False, repr=False)

    def __init__(self, poly: "Poly | Iterable"):
        if not isinstance(poly, Poly):
            poly = Poly(poly)
        if poly.is_zero or poly.degree < 1:
            raise DomainError("defining polynomial must have degree >= 1")
        if not poly.is_monic:
            raise DomainError("defining polynomial must be monic")
        num, den, real_roots = _disc_and_real_roots(poly)
        if num == 0:
            raise DomainError("defining polynomial must be squarefree")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "real_roots", real_roots)
        object.__setattr__(self, "_disc", (num, den))

    @property
    def disc(self) -> Fraction:
        return Fraction(*self._disc)

    @property
    def degree(self) -> int:
        return self.poly.degree

    def __repr__(self) -> str:
        return f"EtaleAlgebra(poly={self.poly!r}, disc={self.disc!r}, real_roots={self.real_roots!r})"


def _newton_sums(f: Poly, upto: int) -> list[int]:
    """p_0, ..., p_upto for the roots of g = c**d * f(x/c), where f is monic
    of degree d and c*f is the integral polynomial f holds, by Newton's
    identities in integers.

    g is monic and integral: its coefficient at x**i < x**d is
    (c*a_i) * c**(d-i-1).  Its roots are c times those of f, so
    p_k(f) = p_k(g) / c**k.
    """
    c, scaled = f._scale, f._scaled
    d = len(scaled) - 1
    # top[i] is the coefficient of g at x**(d-i)
    top = [1] + [scaled[d - i] * c ** (i - 1) for i in range(1, d + 1)]
    p = [d]
    for k in range(1, upto + 1):
        s = k * top[k] if k <= d else 0
        for i in range(1, min(k, d + 1)):
            s += top[i] * p[k - i]
        p.append(-s)
    return p


def power_sums(f: Poly, upto: int) -> list[Fraction]:
    """p_0, ..., p_upto for the roots of monic f, by Newton's identities."""
    if not f.is_monic:
        raise DomainError("power sums require a monic polynomial")
    c = f._scale
    return [Fraction(pk, c**k) for k, pk in enumerate(_newton_sums(f, upto))]


def trace_gram(algebra: EtaleAlgebra) -> QuadraticForm:
    """Gram matrix of (u, v) -> trace(u*v) in the power basis 1, x, ..., x^(d-1).

    Entry (i, j) is the power sum p_(i+j); squarefreeness of the defining
    polynomial is exactly nondegeneracy of this matrix.  The entries go to
    the form as the pairs (p_k(g), c**k) of :func:`_newton_sums` in lowest
    terms.
    """
    f = algebra.poly
    d, c = f.degree, f._scale
    ratios = []
    power = 1  # c**k
    for pk in _newton_sums(f, 2 * d - 2):
        g = igcd(pk, power)
        ratios.append((pk // g, power // g))
        power *= c
    return QuadraticForm._from_ratios([ratios[i : i + d] for i in range(d)])


@dataclass(frozen=True)
class TraceFormReport:
    """Trace form of an etale algebra together with its classifying data."""

    gram: QuadraticForm
    disc_field: SquareClass
    signature: tuple[int, int]
    form_invariants: FormInvariants

    def to_json(self) -> dict:
        return {
            "gram": self.gram.to_json(),
            "disc_field": self.disc_field.to_json(),
            "signature": list(self.signature),
            "invariants": self.form_invariants.to_json(),
        }


def trace_form_report(algebra: EtaleAlgebra) -> TraceFormReport:
    gram = trace_gram(algebra)
    inv = invariants(gram)
    r1, r2 = real_signature(algebra)
    # for monic f, det of the trace Gram matrix is disc(f) exactly: with
    # det = D_n / L**d and disc f = num / den, D_n * den = num * L**d
    num, den = algebra._disc
    det_num, det_den = gram.det_pair
    if det_num * den != num * det_den:
        raise InternalError("trace form discriminant mismatch")
    report = TraceFormReport(
        gram=gram,
        disc_field=inv.w1,
        signature=(r1 + r2, r2),
        form_invariants=inv,
    )
    if report.signature != inv.signature:
        raise InternalError("trace form signature mismatch")
    return report


# ---------------------------------------------------------------------------
# real root counting
# ---------------------------------------------------------------------------


def count_real_roots(f: Poly) -> int:
    """Number of real roots of a squarefree polynomial."""
    if f.is_zero or f.degree < 1:
        return 0
    num, _, count = _disc_and_real_roots(f)
    if num == 0:
        raise DomainError("real root count requires a squarefree polynomial")
    return count


def real_signature(algebra: EtaleAlgebra) -> tuple[int, int]:
    """(r1, r2): real roots and conjugate pairs of the defining polynomial."""
    r1 = algebra.real_roots
    d = algebra.degree
    if (d - r1) % 2:
        raise InternalError("parity of complex roots broken")
    return r1, (d - r1) // 2


# ---------------------------------------------------------------------------
# factorization patterns mod p
# ---------------------------------------------------------------------------
# Dense F_p polynomials as int lists, lowest degree first.


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = a[:]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    if len(a) - 1 < db:
        return [], _fp_trim(a)
    quo = [0] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] * inv % p
        quo[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] = (a[k + i] - c * b[i]) % p
    return _fp_trim(quo), _fp_trim(a)


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _fp_trim(a[:]), _fp_trim(b[:])
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_deriv(a: list[int], p: int) -> list[int]:
    return _fp_trim([(i * c) % p for i, c in enumerate(a)][1:])


def _fp_squarefree_parts(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Decompose monic f over F_p as a product of squarefree parts with
    multiplicities: returns (g, m) pairs with f = prod g**m, g squarefree."""
    out: list[tuple[list[int], int]] = []
    e = 1
    while len(f) - 1 > 0:
        fp = _fp_deriv(f, p)
        if not fp:
            # f = g(x^p) = g(x)**p over the prime field
            f = _fp_trim([f[i] for i in range(0, len(f), p)])
            e *= p
            continue
        c = _fp_gcd(f, fp, p)
        w = _fp_divmod(f, c, p)[0]
        i = 1
        while len(w) - 1 > 0:
            y = _fp_gcd(w, c, p)
            z = _fp_divmod(w, y, p)[0]
            if len(z) - 1 > 0:
                out.append((z, i * e))
            w = y
            if y != [1]:
                c = _fp_divmod(c, y, p)[0]
            i += 1
        f = c
    return out


def _fp_reduce(out: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of out modulo monic g over F_p.

    out holds unreduced integers (sums of products of residues) and is
    overwritten; each eliminated coefficient and each kept one is taken
    mod p exactly once.
    """
    n = len(g) - 1
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k] % p
        if c:
            base = k - n
            for i in range(n):
                out[base + i] -= c * g[i]
    return _fp_trim([c % p for c in out[:n]])


def _fp_mulmod(a: list[int], b: list[int], g: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fp_reduce(out, g, p)


def _fp_sqrmod(a: list[int], g: list[int], p: int) -> list[int]:
    if not a:
        return []
    n = len(a)
    out = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            out[2 * i] += x * x
            x2 = 2 * x
            for j in range(i + 1, n):
                out[i + j] += x2 * a[j]
    return _fp_reduce(out, g, p)


def _fp_xpow(e: int, g: list[int], p: int) -> list[int]:
    """x**e mod monic g over F_p for e >= 1, left to right: a set bit
    multiplies by x, which is a one-place shift."""
    result = _fp_reduce([0, 1], g, p)
    for bit in bin(e)[3:]:
        result = _fp_sqrmod(result, g, p)
        if bit == "1":
            result = _fp_reduce([0] + result, g, p)
    return result


def _fp_distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(product of irreducible factors, common degree) pairs, f squarefree monic.

    x**p mod f is computed once.  Row j of the Frobenius matrix is
    x**(j*p) mod f, so h -> h(x**p) mod f, which takes x**(p**i) to
    x**(p**(i+1)), is a vector-matrix product.  h stays reduced mod f rather
    than the shrinking g: g divides f, so gcd(g, h - x) is the same.
    """
    out = []
    n = len(f) - 1
    g = f[:]
    if n >= 2:
        xp = _fp_xpow(p, f, p)
        rows = [[1], xp]
        while len(rows) < n:
            rows.append(_fp_mulmod(rows[-1], xp, f, p))
        h = [0, 1]
        i = 1
        while len(g) - 1 >= 2 * i:
            acc = [0] * n
            for c, row in zip(h, rows):
                if c:
                    for k, r in enumerate(row):
                        acc[k] += c * r
            h = _fp_trim([c % p for c in acc])
            probe = h[:] + [0, 0]
            probe[1] = (probe[1] - 1) % p  # h - x
            probe = _fp_trim(probe)
            d = _fp_gcd(g, probe, p) if probe else g[:]
            if len(d) - 1 > 0:
                out.append((d, i))
                g = _fp_divmod(g, d, p)[0]
            i += 1
    if len(g) - 1 > 0:
        out.append((g, len(g) - 1))
    return out


def factor_pattern_mod_p(algebra: EtaleAlgebra, p: int) -> tuple[tuple[int, int], ...]:
    """Degrees and multiplicities of the irreducible factors of f mod p.

    Returned sorted as ((degree, multiplicity), ...) with repetitions, so
    x**2+1 mod 5 gives ((1, 1), (1, 1)).  When p does not divide disc(f)
    this is the splitting type of p in the algebra.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    f = algebra.poly
    # c is the lcm of the reduced denominators, so p | c iff p divides one of them
    if f._scale % p == 0:
        raise DomainError(f"coefficient denominator divisible by {p}")
    inv = pow(f._scale, -1, p)
    fp = _fp_trim([x * inv % p for x in f._scaled])
    if len(fp) - 1 != f.degree:
        raise InternalError("monic reduction lost its degree")
    pattern: list[tuple[int, int]] = []
    for part, mult in _fp_squarefree_parts(fp, p):
        for block, d in _fp_distinct_degree(part, p):
            pattern.extend([(d, mult)] * ((len(block) - 1) // d))
    pattern.sort()
    if sum(d * m for d, m in pattern) != f.degree:
        raise InternalError("factor pattern does not account for the degree")
    return tuple(pattern)
