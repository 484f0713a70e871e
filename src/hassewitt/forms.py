"""Nondegenerate quadratic forms over Q and their complete invariants.

A form is a symmetric rational Gram matrix.  With L the lcm of its
denominators, L*Gram is integral, and the constructor runs one
fraction-free (Bareiss) symmetric elimination on it, keeping the leading
principal minors D_1, ..., D_n of a congruent copy.  By Jacobi, the form
is congruent to <D_1/L, D_2/(L D_1), ..., D_n/(L D_(n-1))>, so every
classifying datum (rank, signature, determinant class, degree-1 and
degree-2 classes, local Hasse units) is read off the integers L and D_i:
each local symbol comes from their valuations and unit residues, and no
rational arithmetic runs.  Two forms over Q are isometric iff all of it
matches, which is what :func:`isometric` decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .arith import _jacobi, factor
from .cohomology import INF, TWO, CohClass2, Place, SquareClass
from .errors import DomainError

Rat = Fraction


def _to_fraction_rows(rows: Iterable[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric rational Gram matrix with nonzero determinant.

    Besides the matrix it keeps L, the lcm of its denominators, and the
    leading principal minors D_1, ..., D_n of a congruent copy of the
    integral matrix L*gram (see :func:`_leading_minors`).
    """

    gram: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Sequence]):
        gram = _to_fraction_rows(rows)
        n = len(gram)
        if n == 0 or any(len(row) != n for row in gram):
            raise DomainError("Gram matrix must be square and nonempty")
        scale = lcm(*(x.denominator for row in gram for x in row))
        m = [[x.numerator * (scale // x.denominator) for x in row] for row in gram]
        for i in range(n):
            for j in range(i):
                if m[i][j] != m[j][i]:
                    raise DomainError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_minors", _leading_minors(m))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def det(self) -> Fraction:
        """The determinant, D_n / L**n."""
        return Fraction(self._minors[-1], self._scale ** self.rank)

    def to_json(self) -> list[list]:
        return [[_rat_json(x) for x in row] for row in self.gram]

    def __repr__(self) -> str:
        return f"QuadraticForm({[list(map(str, r)) for r in self.gram]})"


def _rat_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class DiagonalForm:
    """Diagonal representative <a_1, ..., a_n>, all entries nonzero."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable):
        ent = tuple(Fraction(x) for x in entries)
        if not ent or any(x == 0 for x in ent):
            raise DomainError("diagonal entries must be nonzero")
        object.__setattr__(self, "entries", ent)

    def form(self) -> QuadraticForm:
        n = len(self.entries)
        rows = [[self.entries[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        return QuadraticForm(rows)


def diagonal_form(entries: Iterable) -> QuadraticForm:
    """Shorthand for the form with the given diagonal Gram entries."""
    return DiagonalForm(entries).form()


def standard_form(n: int) -> QuadraticForm:
    """Sum of n squares."""
    if n < 1:
        raise DomainError("rank must be positive")
    return diagonal_form([1] * n)


def _leading_minors(m: list[list[int]]) -> tuple[int, ...]:
    """Leading principal minors D_1, ..., D_n of an integral symmetric
    matrix congruent to m by a determinant-1 change of basis, all nonzero.

    Symmetric Bareiss elimination, in place: after step k the trailing
    block holds the bordered minors on rows and columns 0..k plus one
    more, which is D_(k+1) times the Schur complement, so every division
    is exact.  A zero pivot with a nonzero entry in its row is repaired by
    the congruence e_k <- e_k +- e_j on the trailing block; one of the two
    signs always gives a nonzero pivot.  The block is a nonzero multiple
    of the Schur complement, so the repair makes the same choice as one
    done on rational pivots, and D_k / D_(k-1) are exactly those pivots.
    """
    n = len(m)
    minors = []
    prev = 1
    for k in range(n):
        row = m[k]
        if row[k] == 0:
            for j in range(k + 1, n):
                if row[j]:
                    s = 1 if 2 * row[j] + m[j][j] else -1
                    for c in range(k, n):
                        row[c] += s * m[j][c]
                    for r in range(k, n):
                        m[r][k] += s * m[r][j]
                    break
            else:
                raise DomainError("Gram matrix is degenerate")
        pivot = row[k]
        for i in range(k + 1, n):
            mi, a = m[i], m[i][k]
            for j in range(i, n):
                mi[j] = m[j][i] = (pivot * mi[j] - a * m[j][k]) // prev
        minors.append(pivot)
        prev = pivot
    return tuple(minors)


def diagonalize(q: QuadraticForm) -> DiagonalForm:
    """Entries of a diagonal form congruent to q over Q: the pivots
    D_i / (L D_(i-1)) of the constructor's elimination, with D_0 = 1."""
    scale, minors = q._scale, q._minors
    return DiagonalForm(Fraction(d, scale * prev) for prev, d in zip((1,) + minors, minors))


def _square_class_at(x: int, p: int) -> int:
    """The class of the nonzero integer x = p**v * u in Q_p^x / (Q_p^x)^2,
    packed as bits over F_2 so that products of classes are XORs: bit 0 is
    v mod 2; at odd p bit 1 says u is not a square mod p; at p = 2 bits 1
    and 2 are eps(u) = (u - 1)/2 and omega(u) = (u**2 - 1)/8 mod 2."""
    if p == 2:
        v = (x & -x).bit_length() - 1
        u = (x >> v) % 8
        return (v & 1) | (u % 4 == 3) << 1 | (u in (3, 5)) << 2
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return (v & 1) | (_jacobi(x, p) == -1) << 1


def _symbol_exponent(a: int, b: int, p: int) -> int:
    """e with (a, b)_p = (-1)**e, for classes packed by _square_class_at
    (Serre, A Course in Arithmetic, Ch. III, Thm. 1)."""
    va, vb = a & 1, b & 1
    if p == 2:
        return (a >> 1 & b >> 1 & 1) ^ (va & b >> 2) ^ (vb & a >> 2)
    return (va & vb & p >> 1) ^ (va & b >> 1) ^ (vb & a >> 1)


def _local_hasse(scale: int, minors: tuple[int, ...], p: int) -> tuple[int, int]:
    """(Hasse unit, v_p(det) mod 2) at the finite prime p.

    The Hasse unit of <a_1, ..., a_n> is the product over j of
    (a_1 ... a_(j-1), a_j)_p.  With a_j = D_j / (L D_(j-1)), up to squares
    the prefix is L**(j-1) D_(j-1) and a_j is L D_(j-1) D_j.
    """
    cl = _square_class_at(scale, p)
    e = 0
    prev = 0  # the class of D_0 = 1
    for j, d in enumerate(minors):  # d = D_(j+1)
        cur = _square_class_at(d, p)
        if j:
            e ^= _symbol_exponent(prev ^ (cl if j % 2 else 0), cl ^ prev ^ cur, p)
        prev = cur
    return -1 if e else 1, (prev ^ (cl if len(minors) % 2 else 0)) & 1


@dataclass(frozen=True)
class FormInvariants:
    """Full classifying data of a rational form.

    disc and w1 are both the square class of the determinant (no sign
    twist is applied) and therefore coincide; both are reported.
    hasse_local carries the Hasse unit, the product of local symbols over
    pairs of diagonal entries, at 2, at the odd primes of disc and at the
    finite places of w2; it is +1 everywhere else.  That key set depends
    only on the isometry class, so isometric forms serialize identically.
    """

    rank: int
    signature: tuple[int, int]
    disc: SquareClass
    w1: SquareClass
    w2: CohClass2
    hasse_local: dict[Place, int]

    @property
    def hasse_minus_places(self) -> frozenset[Place]:
        return frozenset(v for v, s in self.hasse_local.items() if s == -1)

    def __hash__(self) -> int:
        return hash((self.rank, self.signature, self.disc, self.w2))

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "signature": list(self.signature),
            "disc": self.disc.to_json(),
            "w1": self.w1.to_json(),
            "w2": self.w2.to_json(),
            "hasse_local": {repr(v): s for v, s in sorted(self.hasse_local.items())},
        }


def invariants(q: QuadraticForm) -> FormInvariants:
    """rank, signature, determinant class, w1, w2 and local Hasse units.

    L*q is integral, and an integral form whose determinant is a unit at
    an odd p has trivial Hasse unit at p (Serre, A Course in Arithmetic,
    Ch. IV).  So local symbols are needed only at 2, inf and the primes of
    L*|numerator(det q)|.  The pivot D_i / (L D_(i-1)) is negative when
    D_(i-1) and D_i differ in sign.
    """
    scale, minors = q._scale, q._minors
    n = len(minors)
    neg = sum(1 for prev, d in zip((1,) + minors, minors) if (prev < 0) != (d < 0))
    det_num = minors[-1] // gcd(minors[-1], scale ** n)
    primes = [p for p, _ in factor(scale * abs(det_num)).factors]
    disc_rep = -1 if det_num < 0 else 1
    units = {}
    for p in [2] + [p for p in primes if p != 2]:
        units[Place.finite(p)], odd = _local_hasse(scale, minors, p)
        if odd:
            disc_rep *= p
    units[INF] = -1 if neg * (neg - 1) // 2 % 2 else 1
    w2 = CohClass2(v for v, s in units.items() if s == -1)
    del units[INF]
    hasse = {v: s for v, s in units.items() if v == TWO or s == -1 or disc_rep % v.prime == 0}
    disc = SquareClass.from_squarefree(disc_rep)
    return FormInvariants(
        rank=n,
        signature=(n - neg, neg),
        disc=disc,
        w1=disc,
        w2=w2,
        hasse_local=hasse,
    )


def isometric(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Isometry over Q (Hasse-Minkowski): same rank, signature,
    determinant class and local Hasse unit at every place."""
    return q1.rank == q2.rank and invariants(q1) == invariants(q2)


def orthogonal_sum(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    """Block-diagonal sum."""
    n1, n2 = q1.rank, q2.rank
    zero = Fraction(0)
    rows = []
    for i in range(n1):
        rows.append(list(q1.gram[i]) + [zero] * n2)
    for i in range(n2):
        rows.append([zero] * n1 + list(q2.gram[i]))
    return QuadraticForm(rows)


def scale(q: QuadraticForm, c) -> QuadraticForm:
    """The form c * q."""
    c = Fraction(c)
    if c == 0:
        raise DomainError("scaling factor must be nonzero")
    return QuadraticForm([[c * x for x in row] for row in q.gram])
