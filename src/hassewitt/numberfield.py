"""Etale Q-algebras presented by squarefree monic polynomials.

A polynomial f is held as c, the lcm of the reduced denominators of its
coefficients, and the integral coefficients of c*f; the CLI parses
coefficients straight into that pair, and the request path builds no
rational number.  :class:`Poly` is a value type with no arithmetic (coeffs,
degree, is_monic, is_squarefree, integer_coeffs, to_json).  The algebra
Q[x]/(f) carries the symmetric pairing (u, v) -> trace(u*v); its Gram
matrix in the power basis is the Hankel matrix of power sums of the
roots.  Newton's identities give them without
ever touching a root, run in integers on the monic integral
g = c**d * f(x/c), whose roots are c times those of f, so that
p_k(f) = p_k(g) / c**k.  Resultants run through the subresultant polynomial
remainder sequence over the integers, whose members are the subresultants
themselves.  One such sequence of (g, g'), run once per algebra, gives the
leading principal minors of the trace form (Hermite's form), whose last
is disc g; Frobenius' rule turns them into a diagonal, zero minors
included, that the algebra carries and that gives the trace form's
invariants, with no Gram matrix built, and, as pos - neg, the real root
count.  Residue factorization patterns come from one distinct-degree
factorization of f over F_p, which gives the degree and count of the
factors and peels off their multiplicities by repeated gcds: x**p mod f is
computed once per polynomial, with each residue mod (f, p) packed into one
int, and the higher Frobenius powers x**(p**i) come from the Frobenius
matrix.  A packed coefficient is kept partly reduced, below A = 3p: a
product's slots (at most n(A-1)**2) go below A by one packed Barrett step,
the high half folds onto the low half by the packed rows x**(n+k) mod f,
themselves residues (to at most (A-1)(1 + n(A-1))), and a second Barrett
step brings the low slots below A again.  The slots are about 2 bitlen(p) +
2 bitlen(n) + 8 bits wide, room for the widest of these values and for the
Barrett products, so no slot carries into the next, and no coefficient is
taken mod p until it is unpacked.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .arith import is_prime
from .errors import DomainError, InternalError
from .forms import QuadraticForm, _rat_json, invariants
from .values import Value, setfield


class Poly(Value):
    """Univariate polynomial over Q, coefficients ascending by degree.

    It is held as c, the lcm of the reduced denominators of its
    coefficients, and the integral coefficients of c*f with trailing zeros
    trimmed; that pair is canonical, so equality and hashing compare it.
    A value type with no arithmetic, it offers ``coeffs`` (rebuilt from the
    pair on demand), ``is_zero``, ``degree``, ``is_monic``,
    ``is_squarefree``, ``integer_coeffs`` and ``to_json``.
    """

    _fields = ("_scale", "_scaled")

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
        setfield(self, "_scale", scale)
        setfield(self, "_scaled", tuple(num * (scale // den) for num, den in pairs))

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
    def is_monic(self) -> bool:
        return not self.is_zero and self._scaled[-1] == self._scale

    def is_squarefree(self) -> bool:
        # in characteristic 0, f is squarefree iff disc f != 0
        if self.is_zero:
            return False
        return self.degree <= 0 or _hankel_minors(_monic_integral(self)[1])[-1] != 0

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


def _subresultant_psc(a: list[int], b: list[int]) -> list[int]:
    """[psc_0, ..., psc_(deg b)], the principal subresultant coefficients
    of integer polynomials with deg a >= deg b >= 0, by one PRS; psc_0 is
    Res(a, b).  Dividing prem(a, b) by Brown's signed (-1)**(delta + 1) *
    g * h**delta (g = lc a, h = psc at deg a) makes each member the
    subresultant itself (Brown, J. ACM 18, 1971).  By the structure theorem
    (Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, Ch. 8) psc_j
    is 0 unless j is the degree of a member b, where it is
    lc(b)**e / h**(e - 1), e the degree drop to b.
    """
    psc = [0] * len(b)
    g = h = 1
    while True:
        delta = len(a) - len(b)
        psc_b = b[-1] ** delta // h ** (delta - 1) if delta else h  # delta = 0 only at the start
        psc[len(b) - 1] = psc_b
        if len(b) == 1:
            return psc
        # prem with the exact power lc(b)**(delta + 1)
        db = len(b) - 1
        r = a[:]
        lb = b[-1]
        reductions = 0
        while len(r) > db:  # members are trimmed, so r's top coefficient is nonzero
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
        if not r:  # b divides a: every lower psc is 0
            return psc
        beta = g * h**delta if delta % 2 else -g * h**delta
        a, b = b, [c // beta for c in r]
        g, h = a[-1], psc_b


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g), exact, with the Sylvester determinant sign convention."""
    if f.is_zero or g.is_zero:
        raise DomainError("resultant of the zero polynomial")
    df, fi = f.integer_coeffs()
    dg, gi = g.integer_coeffs()
    if f.degree >= g.degree:
        res = _subresultant_psc(fi, gi)[0]
    else:  # Res(f, g) = (-1)**(deg f deg g) Res(g, f)
        res = (-1) ** (f.degree * g.degree) * _subresultant_psc(gi, fi)[0]
    return Fraction(res, df**g.degree * dg**f.degree)


def _monic_integral(f: Poly) -> tuple[int, list[int]]:
    """(L, g) for deg f = n >= 1: L is the leading coefficient of c*f, and
    g = L**(n-1) * (c*f)(x/L) is monic and integral, with roots L times
    those of f.  For monic f, L = c and g = c**n * f(x/c)."""
    scaled = f._scaled
    lead, n = scaled[-1], len(scaled) - 1
    return lead, [x * lead ** (n - 1 - i) for i, x in enumerate(scaled[:-1])] + [1]


def _hankel_minors(g: list[int]) -> list[int]:
    """[D_1, ..., D_n] for g of degree n >= 1 from :func:`_monic_integral`:
    D_k, the k-th leading principal minor of the Hankel matrix (p_(i+j)) of
    g, is (-1)**(k(k-1)/2) psc_(n-k)(g, g') (Basu-Pollack-Roy, Ch. 4), and
    D_n = disc g is 0 iff g has a repeated root."""
    n = len(g) - 1
    psc = _subresultant_psc(g, [i * x for i, x in enumerate(g)][1:])
    return [-psc[n - k] if k * (k - 1) // 2 % 2 else psc[n - k] for k in range(1, n + 1)]


def _frobenius_diagonal(minors: list[int]) -> list[tuple[int, int]]:
    """A diagonal, as (num, den) pairs, of a form congruent to the Hankel
    form with leading principal minors D_1, ..., D_n != 0, by Frobenius'
    rule (Gantmacher, The Theory of Matrices I, Ch. X): a run D_(k+1) =
    ... = D_(k+m-1) = 0 between nonzero D_k and D_(k+m), D_0 = 1, is m // 2
    hyperbolic planes <1, -1>, plus <(-1)**(m(m-1)/2) D_(k+m)/D_k> for odd
    m (Jacobi's pivot for m = 1)."""
    diagonal = []
    prev, m = 1, 0  # the last nonzero minor, and the steps since it
    for d in minors:
        m += 1
        if d:
            diagonal += [(1, 1), (-1, 1)] * (m // 2)
            if m % 2:
                diagonal.append((d, prev) if m % 4 == 1 else (-d, prev))
            prev, m = d, 0
    return diagonal


def _sign_count(diagonal: list[tuple[int, int]]) -> int:
    """pos - neg; of a trace form's diagonal, the real root count (Sylvester-Hermite)."""
    return sum(1 if (num > 0) == (den > 0) else -1 for num, den in diagonal)


def discriminant(f: Poly) -> Fraction:
    """(-1)**(d(d-1)/2) * Res(f, f') for a monic polynomial of degree d.

    Equals the product of (x_i - x_j)**2 over the complex roots, so it is
    disc g / c**(d(d-1)) for g = c**d * f(x/c).
    """
    if f.is_zero or not f.is_monic:
        raise DomainError("discriminant requires a monic polynomial")
    if f.degree < 1:
        raise DomainError("discriminant requires degree >= 1")
    c, g = _monic_integral(f)
    return Fraction(_hankel_minors(g)[-1], c ** (f.degree * (f.degree - 1)))


# ---------------------------------------------------------------------------
# etale algebras and trace forms
# ---------------------------------------------------------------------------


class EtaleAlgebra(Value):
    """Q[x]/(f) for monic squarefree f; reducible f models a product of fields.

    The constructor's one PRS gives the leading minors of the trace form
    of g = c**d * f(x/c), congruent to that of f by diag(c**-i), and from
    them disc f = disc g / c**(d(d-1)) and a diagonal of the trace form as
    integer pairs, and the real root count, pos - neg of that diagonal.
    It keeps (c, g) for the power sums of :func:`trace_form_report`.
    Equality and hashing compare poly alone."""

    _fields = ("poly",)

    def __init__(self, poly: "Poly | Iterable"):
        if not isinstance(poly, Poly):
            poly = Poly(poly)
        if poly.is_zero or poly.degree < 1:
            raise DomainError("defining polynomial must have degree >= 1")
        if not poly.is_monic:
            raise DomainError("defining polynomial must be monic")
        c, g = _monic_integral(poly)
        minors = _hankel_minors(g)
        if minors[-1] == 0:
            raise DomainError("defining polynomial must be squarefree")
        diagonal = _frobenius_diagonal(minors)
        setfield(self, "poly", poly)
        setfield(self, "_monic", (c, g))
        setfield(self, "real_roots", _sign_count(diagonal))
        setfield(self, "_disc", (minors[-1], c ** (poly.degree * (poly.degree - 1))))
        setfield(self, "_diagonal", diagonal)
        setfield(self, "_support", abs(minors[-1]) // gcd(*self._disc) * gcd(minors[-1], c))  # see forms.invariants

    @property
    def disc(self) -> Fraction:
        return Fraction(*self._disc)

    @property
    def degree(self) -> int:
        return self.poly.degree

    def __repr__(self) -> str:
        return f"EtaleAlgebra(poly={self.poly!r}, disc={self.disc!r}, real_roots={self.real_roots!r})"


def _newton_sums(g: list[int], upto: int) -> list[int]:
    """p_0, ..., p_upto for the roots of monic integral g, by Newton's identities."""
    d = len(g) - 1
    top = g[::-1]  # top[i] is the coefficient of g at x**(d-i)
    terms = [(i, t) for i, t in enumerate(top) if i and t]  # each sum runs over these alone
    p = [d]
    for k in range(1, upto + 1):
        s = k * top[k] if k <= d else 0
        for i, t in terms:
            if i >= k:
                break
            s += t * p[k - i]
        p.append(-s)
    return p


def power_sums(f: Poly, upto: int) -> list[Fraction]:
    """p_0, ..., p_upto for the roots of monic f: p_k(f) = p_k(g) / c**k for
    g = c**d * f(x/c), whose roots are c times those of f."""
    if not f.is_monic:
        raise DomainError("power sums require a monic polynomial")
    c, g = _monic_integral(f)
    return [Fraction(pk, c**k) for k, pk in enumerate(_newton_sums(g, upto))]


def trace_gram(algebra: EtaleAlgebra) -> QuadraticForm:
    """Gram matrix of (u, v) -> trace(u*v) in the power basis 1, x, ..., x^(d-1).

    Entry (i, j) is the power sum p_(i+j) of :func:`power_sums`.  The form
    is built with the algebra's diagonal and det = disc f, so no
    elimination runs; ``QuadraticForm(trace_gram(A).gram)`` runs one."""
    d = algebra.degree
    c, g = algebra._monic  # p_k(f) = p_k(g) / c**k, as in power_sums
    sums = map(Fraction, _newton_sums(g, 2 * d - 2), (c**k for k in range(2 * d - 1)))
    ratios = [(x.numerator, x.denominator) for x in sums]
    return QuadraticForm._from_ratios([ratios[i : i + d] for i in range(d)], (algebra._diagonal, algebra._disc))


class TraceFormReport(Value):
    """Trace form of an etale algebra, held as its power sums p_0, ..., p_(2n-2),
    each an int or "num/den" in lowest terms, and its classifying data."""

    _fields = ("power_sums", "disc_field", "signature", "form_invariants")

    def to_json(self) -> dict:
        sums, n = self.power_sums, self.form_invariants.rank
        return {
            "gram": [list(sums[i : i + n]) for i in range(n)],
            "disc_field": self.disc_field.to_json(),
            "signature": list(self.signature),
            "invariants": self.form_invariants.to_json(),
        }


def trace_form_report(algebra: EtaleAlgebra) -> TraceFormReport:
    """The trace form, printed from its power sums p_k(f) = p_k(g) / c**k,
    and ``invariants(algebra)``: det = disc f and signature (r1 + r2, r2)."""
    c, g = algebra._monic
    sums, power = [], 1
    for pk in _newton_sums(g, 2 * algebra.degree - 2):
        sums.append(_rat_json(pk, power))
        power *= c
    inv = invariants(algebra)
    return TraceFormReport(tuple(sums), inv.w1, inv.signature, inv)


# ---------------------------------------------------------------------------
# real root counting
# ---------------------------------------------------------------------------


def count_real_roots(f: Poly) -> int:
    """Number of real roots of a squarefree polynomial: pos - neg of a
    diagonal of the trace form of g = _monic_integral(f) (Sylvester-Hermite).
    A nonzero constant has none; the zero polynomial is refused."""
    if f.is_zero:
        raise DomainError("real root count requires a squarefree polynomial")
    if f.degree < 1:
        return 0
    minors = _hankel_minors(_monic_integral(f)[1])
    if minors[-1] == 0:
        raise DomainError("real root count requires a squarefree polynomial")
    return _sign_count(_frobenius_diagonal(minors))


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
    # the coefficients of a stay unreduced, each below (db + 1) * p**2 in
    # size: a leading one is reduced when it is read, the remainder once
    quo = [0] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] * inv % p
        quo[k] = c
        if c:
            for i in range(db):
                a[k + i] -= c * b[i]
    return _fp_trim(quo), _fp_trim([r % p for r in a[:db]])


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _fp_trim(a[:]), _fp_trim(b[:])
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


class _FpQuotient:
    """F_p[x]/(f) for monic f of degree n >= 1.  A residue is one int whose
    w-bit slot i holds its coefficient of x**i, partly reduced: congruent
    to it mod p and below the bound A = 3p.

    ``reduce`` takes a packed polynomial of degree < 2n whose slots are at
    most n(A-1)**2, which bounds a product of two residues (times x is a
    shift by one slot) and the Frobenius sum h(x**p) for h reduced mod p.
    It runs one packed Barrett step on all 2n slots, which leaves each
    below A; folds slot n + k onto the low n slots by adding it times the
    packed row x**(n+k) mod f, itself a residue, so a low slot reaches at
    most S = (A-1)(1 + n(A-1)); and runs a second Barrett step on the n
    low slots, which leaves each below A again.

    A Barrett step (Barrett, CRYPTO '86), with 2**t <= p < 2**(t+1),
    2**K > S and m = 2**K // p, estimates the quotient by p of every slot s
    at once, q = (s >> t) * m >> (K - t), and subtracts q*p.  On the packed
    int, the mask m1 keeps the w - t bits of each slot that s >> t leaves
    in it, and m2 keeps the w - K + t bits of q below what the next slot's
    product shifts in.  The estimate is q <= s // p, so no slot borrows,
    and s - q*p < 2**t + 2p - 2 < A.  The widest value a slot ever holds
    is S or the product (s >> t) * m, so w = bitlen(max(S, (S >> t) * m)),
    about 2 bitlen(p) + 2 bitlen(n) + 8 bits once p has a few bits, leaves
    no carry between slots at any stage.
    """

    def __init__(self, f: list[int], p: int):
        n = len(f) - 1
        self.f, self.p, self.n = f, p, n
        self.bound = bound = 3 * p
        top = (bound - 1) * (1 + n * (bound - 1))  # S
        self.t = t = p.bit_length() - 1
        self.k = k = top.bit_length()
        self.m = m = (1 << k) // p
        self.w = w = max(top, (top >> t) * m).bit_length()
        self.mask, self.low = (1 << w) - 1, (1 << n * w) - 1
        ones = ((1 << 2 * n * w) - 1) // self.mask  # 1 in each of 2n slots
        self.m1, self.m2 = ((1 << w - t) - 1) * ones, ((1 << w - k + t) - 1) * ones
        self.rows = [sum(-c % p << i * w for i, c in enumerate(f[:n]))]  # x**n mod f
        while len(self.rows) < n:  # x * x**(n+k-1): only its slot n folds, by x**n
            self.rows.append(self.reduce(self.rows[-1] << w))

    def unpack(self, a: int) -> list[int]:
        """The coefficients, each mod p, of a packed sum whose slots hold no carry."""
        w, mask, p = self.w, self.mask, self.p
        return _fp_trim([(a >> i * w & mask) % p for i in range(self.n)])

    def reduce(self, s: int) -> int:
        """The residue of s, a packed polynomial of degree < 2n whose slots
        are at most n(A-1)**2, with every slot below A."""
        n, w, mask, t, p = self.n, self.w, self.mask, self.t, self.p
        m, m1, m2, shift = self.m, self.m1, self.m2, self.k - t
        s -= ((s >> t & m1) * m >> shift & m2) * p
        hi, acc = s >> n * w, s & self.low
        for row in self.rows:
            acc += (hi & mask) * row
            hi >>= w
        return acc - ((acc >> t & m1) * m >> shift & m2) * p

    def xpow(self, e: int) -> int:
        """x**e for e >= 1, left to right: a set bit of e shifts the square
        by one slot (times x) before its one reduction."""
        a = self.reduce(1 << self.w)
        for bit in bin(e)[3:]:
            s = a * a
            if bit == "1":
                s <<= self.w
            a = self.reduce(s)
        return a


def _fp_pattern(f: list[int], p: int) -> list[tuple[int, int]]:
    """(degree, multiplicity) of each irreducible factor of monic f over F_p,
    by one distinct-degree pass over f itself.

    x**p mod f is computed once, in the packed ring :class:`_FpQuotient`,
    where each squaring is one bigint product and one packed reduction:
    two Barrett steps of a fixed number of bigint operations on all slots
    at once, around a fold of n row products, with no per-coefficient loop.
    Row j of the Frobenius matrix is x**(j*p) mod f, a product in the same
    ring with slots below A, so h -> h(x**p) mod f, which takes x**(p**i)
    to x**(p**(i+1)), is the sum of the packed rows scaled by the
    coefficients of h, each below p: its slots are at most
    n(p-1)(A-1) < n(A-1)**2, which the slot width holds, and the sum is
    unpacked once, each coefficient taken mod p there.  g is what is left
    of f, and at step i it has no factor of degree below i, so
    d = gcd(g, h - x) is the product of its distinct degree-i factors (h
    stays reduced mod f: g divides f).  Dividing d out of g and taking
    gcd(g, d) again leaves the factors of higher multiplicity, one
    multiplicity at a time.
    """
    out = []
    n = len(f) - 1
    g = f[:]
    if n >= 2:
        ring = _FpQuotient(f, p)
        xp = ring.xpow(p)
        rows = [1, xp]
        while len(rows) < n:
            rows.append(ring.reduce(rows[-1] * xp))
        h = [0, 1]
        i = 1
        while len(g) - 1 >= 2 * i:
            h = ring.unpack(sum(c * row for c, row in zip(h, rows)))
            probe = h[:] + [0, 0]
            probe[1] = (probe[1] - 1) % p  # h - x
            probe = _fp_trim(probe)
            d = _fp_gcd(g, probe, p) if probe else g[:]
            m = 1
            while len(d) - 1 > 0:
                g, r = _fp_divmod(g, d, p)
                if r:
                    raise InternalError(f"inexact division in the distinct-degree pass mod {p}")
                rest = _fp_gcd(g, d, p)
                out.extend([(i, m)] * ((len(d) - len(rest)) // i))
                d = rest
                m += 1
            i += 1
    # deg g < 2i and g has no factor of degree below i: g is irreducible
    if len(g) - 1 > 0:
        out.append((len(g) - 1, 1))
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
    pattern = sorted(_fp_pattern(fp, p))
    if sum(d * m for d, m in pattern) != f.degree:
        raise InternalError("factor pattern does not account for the degree")
    return tuple(pattern)
