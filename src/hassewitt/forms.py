"""Nondegenerate quadratic forms over Q and their complete invariants.

A form is a symmetric rational Gram matrix, held as L, the lcm of its
reduced denominators, and the integral matrix L*Gram; the CLI parses
Gram entries straight into that pair.  The constructor runs one
fraction-free (Bareiss) symmetric elimination on L*Gram, keeping the
leading principal minors D_1, ..., D_n of a congruent copy.  By Jacobi,
the form is congruent to <D_1/L, D_2/(L D_1), ..., D_n/(L D_(n-1))>, so
every classifying datum (rank, signature, determinant class, degree-1 and
degree-2 classes, local Hasse units) is read off the integers L and D_i:
at each place they are split once into valuation parity and unit, and the
Hasse unit is the closed form of ``cohomology`` on the pivots they give,
with no rational arithmetic.  Two forms over Q are isometric iff all of
it matches, which is what :func:`isometric` decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .arith import factor
from .cohomology import INF, TWO, CohClass2, Place, SquareClass, _hasse_exponent, _split
from .errors import DomainError


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric rational Gram matrix with nonzero determinant.

    It is held as L, the lcm of the reduced denominators of its entries,
    and the integral matrix L*gram; that pair is canonical, so equality and
    hashing compare it, and ``gram`` is rebuilt from it on demand.  The
    constructor also keeps the leading principal minors D_1, ..., D_n of a
    congruent copy of L*gram (see :func:`_leading_minors`).
    """

    _scale: int
    _scaled: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Sequence]):
        rats = ([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows)
        self._set([[(x.numerator, x.denominator) for x in row] for row in rats])

    @classmethod
    def _from_ratios(cls, rows: list[list[tuple[int, int]]]) -> "QuadraticForm":
        """The form with entries num/den, from (num, den) pairs in lowest terms."""
        q = object.__new__(cls)
        q._set(rows)
        return q

    def _set(self, rows: list[list[tuple[int, int]]]) -> None:
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DomainError("Gram matrix must be square and nonempty")
        scale = lcm(*[den for row in rows for _, den in row])
        m = [[num * (scale // den) for num, den in row] for row in rows]
        scaled = tuple(map(tuple, m))
        if tuple(zip(*scaled)) != scaled:
            raise DomainError("Gram matrix must be symmetric")
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_scaled", scaled)
        object.__setattr__(self, "_minors", _leading_minors(m))

    @property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        scale = self._scale
        return tuple(tuple(Fraction(x, scale) for x in row) for row in self._scaled)

    @property
    def rank(self) -> int:
        return len(self._scaled)

    @property
    def det_pair(self) -> tuple[int, int]:
        """(D_n, L**n): the determinant as a pair of integers, not in lowest terms."""
        return self._minors[-1], self._scale ** self.rank

    @property
    def det(self) -> Fraction:
        """The determinant, D_n / L**n."""
        return Fraction(*self.det_pair)

    def to_json(self) -> list[list]:
        return [[_rat_json(x, self._scale) for x in row] for row in self._scaled]

    def __repr__(self) -> str:
        return f"QuadraticForm({[list(map(str, r)) for r in self.gram]})"


def _rat_json(num: int, den: int):
    g = gcd(num, den)
    return num // g if den == g else f"{num // g}/{den // g}"


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
        return QuadraticForm([[x if i == j else 0 for j in range(n)] for i, x in enumerate(self.entries)])


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
    D_(i-1) and D_i differ in sign, and at p it is L D_(i-1) D_i up to
    squares: its valuation parity is a sum and its unit a product of the
    splits of L and the D_i.  v_p(det) mod 2 is the sum of the pivot parities.
    """
    scale, minors = q._scale, q._minors
    n = len(minors)
    neg = sum(1 for prev, d in zip((1,) + minors, minors) if (prev < 0) != (d < 0))
    det_num = minors[-1] // gcd(minors[-1], scale ** n)
    # factor() has proved these primes, so their places take no second test
    places = [TWO] + [Place.from_prime(p) for p, _ in factor(scale * abs(det_num)).factors if p != 2]
    disc_rep = -1 if det_num < 0 else 1
    units = {}
    for v in places:
        p = v.prime
        odd_l, unit_l = _split(scale, p)
        splits = [(0, 1)] + [_split(d, p) for d in minors]  # D_0 = 1
        pivots = [(odd_l ^ a ^ b, unit_l * u * w) for (a, u), (b, w) in zip(splits, splits[1:])]
        units[v] = -1 if _hasse_exponent(pivots, p) else 1
        if (odd_l & n) ^ splits[-1][0]:  # the pivot parities sum to n v_p(L) + v_p(D_n)
            disc_rep *= p
    units[INF] = -1 if neg * (neg - 1) // 2 % 2 else 1
    w2 = CohClass2(v for v, s in units.items() if s == -1)
    del units[INF]
    hasse = {v: s for v, s in units.items() if v == TWO or s == -1 or disc_rep % v.prime == 0}
    disc = SquareClass.from_squarefree(disc_rep)
    return FormInvariants(rank=n, signature=(n - neg, neg), disc=disc, w1=disc, w2=w2, hasse_local=hasse)


def isometric(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Isometry over Q (Hasse-Minkowski): same rank, signature,
    determinant class and local Hasse unit at every place."""
    return q1.rank == q2.rank and invariants(q1) == invariants(q2)


def orthogonal_sum(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    """Block-diagonal sum."""
    n1, n2 = q1.rank, q2.rank
    return QuadraticForm([list(row) + [0] * n2 for row in q1.gram] + [[0] * n1 + list(row) for row in q2.gram])


def scale(q: QuadraticForm, c) -> QuadraticForm:
    """The form c * q."""
    c = Fraction(c)
    if c == 0:
        raise DomainError("scaling factor must be nonzero")
    return QuadraticForm([[c * x for x in row] for row in q.gram])
