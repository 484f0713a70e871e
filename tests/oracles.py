"""Independent oracles used by the test suite.

Each of these recomputes a quantity by a route disjoint from the library
implementation: naive trial division instead of Lehman, p - 1 and ECM,
Sylvester determinants instead of remainder sequences, a Fraction Sturm chain
instead of the trace form's diagonal from the integer subresultant sequence,
a Fraction determinant of each leading block of the Hankel matrix instead
of the principal subresultant coefficients,
companion matrix powers instead of Newton recursions, exhaustive squaring
instead of Euler's criterion, Montgomery curve group orders counted point
by point for the ECM ladder, full series convolution, the O(c n) series
recurrence and, for one degree, the closed form instead of one divided
difference on integer nodes, Hirzebruch's signature series in t = tanh h
instead of the parity of one binomial coefficient for the index, the
parity table of delta1 and delta2 instead of the comparison formula on
the Betti classes, a fresh
x**(p**i) mod g per degree instead of the Frobenius matrix, x**e mod f by right-to-left schoolbook products
on coefficient lists instead of the packed ring, Fraction pivots and a Hilbert symbol per pair of diagonal
entries instead of leading minors and the closed-form exponent
over all pairs, a Fraction p-adic split with Euler's criterion instead of
the valuation parities and units of integer representatives.  Products,
remainders and gcds of polynomials, used to build test inputs and by the
Sturm chain, run on Fraction coefficient lists here; the distinct-degree
oracle divides and takes gcds over F_p with its own long division.  Test
inputs that the library has no builder for (derivatives, diagonal forms and
orthogonal sums) are built here too.
"""

from fractions import Fraction
from math import comb, gcd, lcm, prod
import random

from hassewitt.cohomology import INF, Place, SquareClass
from hassewitt.errors import DomainError
from hassewitt.forms import QuadraticForm
from hassewitt.numberfield import Poly


def naive_factor(n: int) -> dict[int, int]:
    """Plain trial division, no primality shortcuts."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_order(x: int, p: int) -> int:
    """The multiplicative order of x mod the prime p, by repeated multiplication."""
    y, k = x % p, 1
    while y != 1:
        y, k = y * x % p, k + 1
    return k


def naive_euler_characteristic(n: int, degrees: list[int]) -> int:
    """d1...dc times the coefficient of h**n in (1+h)**(n+c+1) / prod(1 + d_i h),
    each division done as a full O(n**2) convolution with sum (-d)**k h**k."""
    c = len(degrees)
    series = [comb(n + c + 1, k) for k in range(n + 1)]
    for d in degrees:
        out = [0] * (n + 1)
        for k in range(n + 1):
            acc = 0
            power = 1
            for j in range(k, -1, -1):
                acc += series[j] * power
                power *= -d
            out[k] = acc
        series = out
    return prod(degrees) * series[n]


def series_euler_characteristic(n: int, degrees: list[int]) -> int:
    """d1...dc [t**n] 1/((1-t)**2 prod(1 + (d_i-1) t)), the O(c n) series
    recurrence: the coefficients of 1/(1-t)**2 are k + 1, and dividing by
    1 + (d-1) t is the pass out[k] = series[k] - (d-1) out[k-1]."""
    series = list(range(1, n + 2))
    for d in degrees:
        prev = 0
        for k in range(n + 1):
            prev = series[k] - (d - 1) * prev
            series[k] = prev
    return prod(degrees) * series[n]


def hypersurface_chi_closed_form(n: int, d: int) -> int:
    """n + 2 + ((1-d)**(n+2) - 1)/d, the codimension-1 closed form for chi."""
    value = Fraction((1 - d) ** (n + 2) - 1, d)
    assert value.denominator == 1, "closed form is not an integer"
    return n + 2 + int(value)


def hirzebruch_index(n: int, degrees: list[int]) -> int:
    """The index tau of the middle lattice, from Hirzebruch's signature
    theorem: tau = d1...dc [h**n] (h/tanh h)**(n+c+1) prod tanh(d h)/(d h).
    With t = tanh h, dh = dt/(1 - t**2) and the powers of h cancel:

        tau = [t**(n+c)] prod N_d(t)/D_d(t) * 1/(1 - t**2),

    N_d the odd and D_d the even part of (1 + t)**d.  D_d(0) = 1, so each
    division, truncated after t**(n+c), stays in the integers."""
    top = n + len(degrees)
    series = [1] + [0] * top
    for d in degrees:
        # times N_d, then divided by D_d in place, low coefficients first
        series = [sum(comb(d, j) * series[k - j] for j in range(1, min(k, d) + 1, 2)) for k in range(top + 1)]
        for k in range(top + 1):
            series[k] -= sum(comb(d, j) * series[k - j] for j in range(2, min(k, d) + 1, 2))
    return sum(series[top::-2])


def parity_delta_classes(n: int, d: int) -> tuple[dict, dict]:
    """The JSON of (delta1, delta2) for the degree-d hypersurface from the
    parity table, without the Betti classes or epsilon':

        delta1 = (-1)**((d-1)/2) disc_d(f)                          d odd
        delta1 = (-1)**((d/2)((n+2)/2)) disc_d(f)                   d even
        delta2 = ((d-1)/2) (-1,-1) + w2(q_dR)                       d odd
        delta2 = (n/4)(1 + d/2) (-1,-1) + w2(q_dR)                  d even, n = 0 mod 4
        delta2 = ((n+2)/4)(1 + d/2) (-1,-1) + w2(q_dR) + (-1,disc_d(f))   d even, n = 2 mod 4
    """
    extra = []
    if d % 2:
        sign = (d - 1) // 2
        coeff = (d - 1) // 2
    else:
        sign = (d // 2) * ((n + 2) // 2)
        if n % 4 == 0:
            coeff = (n // 4) * (1 + d // 2)
        else:
            coeff = ((n + 2) // 4) * (1 + d // 2)
            extra = ["(-1,disc_d(f))"]
    delta1 = {"numeric": -1 if sign % 2 else 1, "tokens": ["disc_d(f)"]}
    delta2 = {"numeric": [2, "inf"] if coeff % 2 else [], "tokens": ["w2(q_dR)", *extra]}
    return delta1, delta2


# every decomposition type of the quartic local table, written out so that a
# type dropped or renamed in the library fails the tests that draw from it
JEHANNE_TYPES = ("unramified", "1^2,1,1", "1^3,1", "1^2,2", "1^4", "2^2", "1^2,1^2")


def squares_mod(p: int) -> set[int]:
    return {x * x % p for x in range(1, p)}


def montgomery_group_orders(A: int, p: int) -> tuple[int, int]:
    """(#E(F_p), order of the quadratic twist) for E: y**2 = x**3 + A x**2 + x
    over an odd prime p, by counting the y over every x: each x gives
    1 + chi(x**3 + A x**2 + x) points of E and 1 - chi of the twist, plus
    the point at infinity on each, with chi from exhaustive squaring."""
    squares = squares_mod(p)
    total = 0
    for x in range(p):
        f = (x * x * x + A * x * x + x) % p
        total += 0 if f == 0 else 1 if f in squares else -1
    return p + 1 + total, p + 1 - total


def sylvester_resultant(f: Poly, g: Poly) -> Fraction:
    """Resultant as the determinant of the Sylvester matrix, by fraction
    Gaussian elimination."""
    m, n = f.degree, g.degree
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    matrix = [[Fraction(0)] * size for _ in range(size)]
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        for j, c in enumerate(fc):
            matrix[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(gc):
            matrix[n + i][i + j] = c
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if matrix[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            det = -det
        det *= matrix[col][col]
        inv = 1 / matrix[col][col]
        for r in range(col + 1, size):
            if matrix[r][col]:
                factor = matrix[r][col] * inv
                for c in range(col, size):
                    matrix[r][c] -= factor * matrix[col][c]
    return det


# Fraction polynomials as coefficient lists, lowest degree first, with no
# trailing zeros; the library's Poly has no arithmetic of its own.


def poly_mul(*factors) -> list[Fraction]:
    """The product of coefficient lists."""
    out = [Fraction(1)]
    for f in factors:
        prod_ = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod_[i + j] += a * b
        out = prod_
    return out


def poly_rem(a, b) -> list[Fraction]:
    """The remainder of a by nonzero b, by long division."""
    r = [Fraction(x) for x in a]
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        for i, x in enumerate(b):
            r[len(r) - len(b) + i] -= c * x
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def poly_gcd(a, b) -> list[Fraction]:
    """A gcd of a and b by Euclid's algorithm, up to a unit."""
    while b:
        a, b = b, poly_rem(a, b)
    return list(a)


def derivative(f: Poly) -> Poly:
    """f', term by term."""
    return Poly([i * c for i, c in enumerate(f.coeffs)][1:])


def naive_count_real_roots(f: Poly) -> int:
    """Real roots of a squarefree polynomial by a Fraction Sturm chain
    S_0 = f, S_1 = f', S_(k+1) = -(S_(k-1) mod S_k), each member rescaled
    by a positive rational, with sign variations counted at -inf and +inf."""

    def primitive(cs: list[Fraction]) -> list[Fraction]:
        den = lcm(*(x.denominator for x in cs))
        ints = [int(x * den) for x in cs]
        c = gcd(*ints)
        return [Fraction(x, c) for x in ints]

    cs = list(f.coeffs)
    chain = [primitive(cs), primitive([i * c for i, c in enumerate(cs)][1:])]
    while len(chain[-1]) > 1:
        r = poly_rem(chain[-2], chain[-1])
        if not r:
            raise ValueError("Sturm chain requires a squarefree polynomial")
        chain.append(primitive([-c for c in r]))

    def variations(positive: bool) -> int:
        signs = [(1 if p[-1] > 0 else -1) * (1 if positive or len(p) % 2 else -1) for p in chain]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)


def naive_hankel_minors(sums, n: int) -> list[Fraction]:
    """D_1, ..., D_n of the Hankel matrix (s_(i+j)), each by its own
    Fraction Gaussian elimination with row swaps."""

    def det(rows) -> Fraction:
        m = [[Fraction(x) for x in row] for row in rows]
        out = Fraction(1)
        for k in range(len(m)):
            pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != k:
                m[k], m[pivot] = m[pivot], m[k]
                out = -out
            out *= m[k][k]
            for i in range(k + 1, len(m)):
                t = m[i][k] / m[k][k]
                m[i] = [a - t * b for a, b in zip(m[i], m[k])]
        return out

    return [det([[sums[i + j] for j in range(k)] for i in range(k)]) for k in range(1, n + 1)]


def companion_power_traces(f: Poly, upto: int) -> list[Fraction]:
    """Traces of powers of the companion matrix of monic f, by exact
    matrix multiplication."""
    d = f.degree
    companion = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        companion[i][i - 1] = Fraction(1)
    for i in range(d):
        companion[i][d - 1] = -f.coeffs[i]
    traces = [Fraction(d)]
    power = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for _ in range(upto):
        power = [
            [sum(power[i][k] * companion[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
        traces.append(sum(power[i][i] for i in range(d)))
    return traces


def naive_eliminate(rows) -> tuple[Fraction, ...]:
    """Pivots of a symmetric Gaussian elimination in Fraction arithmetic:
    a congruent diagonal.

    A zero pivot with a nonzero off-diagonal entry in its row is repaired
    by the congruence e_i <- e_i +- e_j.  Every move has determinant 1, so
    the product of the pivots is the determinant.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)

    def add_into(i: int, j: int, s: int) -> None:
        for k in range(n):
            m[i][k] += s * m[j][k]
        for k in range(n):
            m[k][i] += s * m[k][j]

    entries = []
    for i in range(n):
        if m[i][i] == 0:
            for j in range(i + 1, n):
                if m[i][j] != 0:
                    # one of the two signs always produces a nonzero pivot
                    s = 1 if m[i][i] + 2 * m[i][j] + m[j][j] != 0 else -1
                    add_into(i, j, s)
                    break
            else:
                raise DomainError("Gram matrix is degenerate")
        pivot = m[i][i]
        for j in range(i + 1, n):
            if m[j][i]:
                f = m[j][i] / pivot
                for k in range(n):
                    m[j][k] -= f * m[i][k]
                for k in range(n):
                    m[k][j] -= f * m[k][i]
        entries.append(m[i][i])
    return tuple(entries)


def naive_valuation(x: int, p: int) -> tuple[int, int]:
    """(v, u) with x = p**v * u and p not dividing u, for nonzero x: one
    division by p at a time."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def naive_hilbert_symbol(a, b, v: Place) -> int:
    """(a, b)_v from the p-adic split a = p**alpha * u of each Fraction
    entry (Serre, A Course in Arithmetic, Ch. III, Thm. 1), with Legendre
    symbols by Euler's criterion and 2-adic units read mod 8."""
    a = Fraction(a.rep if isinstance(a, SquareClass) else a)
    b = Fraction(b.rep if isinstance(b, SquareClass) else b)
    if a == 0 or b == 0:
        raise DomainError("Hilbert symbol needs nonzero entries")
    if v.is_infinite:
        return -1 if (a < 0 and b < 0) else 1
    p = v.prime

    def padic_split(x: Fraction) -> tuple[int, Fraction]:
        """x = p**e * u with u a p-adic unit, as (e, u)."""
        e = 0
        while x.numerator % p == 0:
            x, e = x / p, e + 1
        while x.denominator % p == 0:
            x, e = x * p, e - 1
        return e, x

    alpha, u = padic_split(a)
    beta, w = padic_split(b)

    def residue(x: Fraction, m: int) -> int:
        return x.numerator * pow(x.denominator, -1, m) % m

    if p == 2:
        def eps(x):
            return 0 if residue(x, 4) == 1 else 1

        def omega(x):
            return 0 if residue(x, 8) in (1, 7) else 1

        e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if e % 2 else 1

    def euler(x):
        return 1 if pow(residue(x, p), (p - 1) // 2, p) == 1 else -1

    sym = -1 if (alpha * beta) % 2 and (p - 1) // 2 % 2 else 1
    if beta % 2:
        sym *= euler(u)
    if alpha % 2:
        sym *= euler(w)
    return sym


def naive_form_invariants(rows) -> dict:
    """The `form-invariants` report of a Gram matrix from naive_eliminate's
    diagonal: the Hasse unit at each place as the product of (a_i, a_j)_v
    over all pairs i < j, at inf, 2 and every prime of some entry, and the
    determinant class as the sign of det times the primes of odd exponent
    in det.  Each numerator and denominator is factored by naive_factor on
    its own: their product can hold two primes of 27 bits."""
    diag = naive_eliminate(rows)
    neg = sum(1 for a in diag if a < 0)
    exponents: dict[int, int] = {}  # the parity of each is its parity in det
    for a in diag:
        for part in (a.numerator, a.denominator):
            for p, e in naive_factor(part).items():
                exponents[p] = exponents.get(p, 0) + e
    disc = -1 if neg % 2 else 1
    for p, e in exponents.items():
        if e % 2:
            disc *= p
    places = {2, *exponents}
    units = {}
    for v in [Place.finite(p) for p in places] + [INF]:
        units[v] = prod(naive_hilbert_symbol(diag[i], diag[j], v)
                        for i in range(len(diag)) for j in range(i + 1, len(diag)))
    w2 = sorted(v for v, s in units.items() if s == -1)
    hasse = {v: s for v, s in units.items()
             if not v.is_infinite and (v.prime == 2 or s == -1 or disc % v.prime == 0)}
    return {
        "rank": len(diag),
        "signature": [len(diag) - neg, neg],
        "disc": disc,
        "w1": disc,
        "w2": [v.to_json() for v in w2],
        "hasse_local": {repr(v): s for v, s in sorted(hasse.items())},
    }


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> list[list[int]]:
    """Product of elementary integer operations: determinant +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            for k in range(n):
                m[i][k] = -m[i][k]
    return m


def diagonal_form(entries, pivots: bool = False) -> QuadraticForm:
    """The form <a_1, ..., a_n>.  With pivots, it is built with its entries
    as its diagonal, since a diagonal matrix's Jacobi pivots are its
    entries: O(n^2), where the Bareiss route costs seconds at n = 400."""
    entries = list(entries)
    if pivots:
        pairs = [(x.numerator, x.denominator) for x in map(Fraction, entries)]
        det = prod(map(Fraction, entries))
        rows = [[x if i == j else (0, 1) for j in range(len(pairs))] for i, x in enumerate(pairs)]
        return QuadraticForm._from_ratios(rows, (pairs, (det.numerator, det.denominator)))
    return QuadraticForm([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])


def orthogonal_sum(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    """The block-diagonal sum of q1 and q2."""
    n1, n2 = q1.rank, q2.rank
    return QuadraticForm([list(row) + [0] * n2 for row in q1.gram] + [[0] * n1 + list(row) for row in q2.gram])


def congruent_form(q: QuadraticForm, p: list[list[int]]) -> QuadraticForm:
    """P^T G P for an invertible integer matrix P."""
    n = q.rank
    g = q.gram
    gp = [[sum(g[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ptgp = [[sum(p[k][i] * gp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return QuadraticForm(ptgp)


def random_nondegenerate_symmetric(rng: random.Random, n: int, bound: int) -> QuadraticForm:
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
        try:
            return QuadraticForm(rows)
        except Exception:
            continue  # degenerate draw, resample


def brute_factor_pattern(coeffs: list[int], p: int) -> tuple[tuple[int, int], ...]:
    """Factor a monic polynomial over F_p by exhaustive trial division with
    monic irreducibles enumerated by brute force.  Only sane for tiny p and
    degree."""

    def poly_mod(a, b):
        a = a[:]
        while len(a) >= len(b):
            if a[-1] % p:
                c = a[-1] * pow(b[-1], -1, p) % p
                for i in range(len(b)):
                    a[len(a) - len(b) + i] = (a[len(a) - len(b) + i] - c * b[i]) % p
            del a[-1]
        while a and a[-1] % p == 0:
            a.pop()
        return a

    def poly_div_exact(a, b):
        q = [0] * (len(a) - len(b) + 1)
        a = a[:]
        for k in range(len(q) - 1, -1, -1):
            c = a[k + len(b) - 1] * pow(b[-1], -1, p) % p
            q[k] = c
            for i in range(len(b)):
                a[k + i] = (a[k + i] - c * b[i]) % p
        assert all(x % p == 0 for x in a[: len(b) - 1])
        return q

    def all_monic(deg):
        from itertools import product

        for tail in product(range(p), repeat=deg):
            yield list(tail) + [1]

    irreducibles = []
    for deg in range(1, 5):
        for candidate in all_monic(deg):
            # reducible iff some irreducible of degree <= deg/2 divides it
            if all(poly_mod(candidate, g) for g in irreducibles if 2 * (len(g) - 1) <= deg):
                irreducibles.append(candidate)

    f = [c % p for c in coeffs]
    pattern = []
    for g in irreducibles:
        mult = 0
        while len(f) >= len(g) and not poly_mod(f, g):
            f = poly_div_exact(f, g)
            mult += 1
        if mult:
            pattern.append((len(g) - 1, mult))
    assert len(f) == 1  # fully factored
    expanded = []
    for d, m in pattern:
        expanded.append((d, m))
    return tuple(sorted(expanded))


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p by schoolbook long division,
    for b with a leading coefficient that is a unit mod p."""
    a = [c % p for c in a]
    inv = pow(b[-1], -1, p)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = a[k + len(b) - 1] * inv % p
        quo[k] = c
        for i, x in enumerate(b):
            a[k + i] = (a[k + i] - c * x) % p
    return _trim(quo), _trim(a[: len(b) - 1])


def fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p by Euclid's algorithm; [] for gcd(0, 0)."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    return [c * pow(a[-1], -1, p) % p for c in a] if a else []


def fp_xpow(e: int, f: list[int], p: int) -> list[int]:
    """x**e mod monic f over F_p, right to left, by schoolbook Fraction
    products and this module's long division."""
    result, base = [1], fp_divmod([0, 1], f, p)[1]
    while e:
        if e & 1:
            result = fp_divmod([int(c) for c in poly_mul(result, base)], f, p)[1]
        base = fp_divmod([int(c) for c in poly_mul(base, base)], f, p)[1]
        e >>= 1
    return result


def naive_distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(product of irreducible factors, common degree) pairs for squarefree
    monic f over F_p, raising h to the p-th power mod the remaining g by
    repeated squaring at every degree, each product reduced mod p term by
    term, with this module's own F_p division and gcd."""

    def mul(a, b):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        return _trim(out)

    def powmod(base, e, mod):
        result = [1]
        base = fp_divmod(base, mod, p)[1]
        while e:
            if e & 1:
                result = fp_divmod(mul(result, base), mod, p)[1]
            base = fp_divmod(mul(base, base), mod, p)[1]
            e >>= 1
        return result

    out = []
    h = [0, 1]
    i = 1
    g = f[:]
    while len(g) - 1 >= 2 * i:
        h = powmod(h, p, g)
        probe = h[:] + [0, 0]
        probe[1] = (probe[1] - 1) % p  # h - x
        probe = _trim(probe)
        d = fp_gcd(g, probe, p) if probe else g[:]
        if len(d) - 1 > 0:
            out.append((d, i))
            g = fp_divmod(g, d, p)[0]
            h = fp_divmod(h, g, p)[1]
        i += 1
    if len(g) - 1 > 0:
        out.append((g, len(g) - 1))
    return out
