"""Nondegenerate quadratic forms over Q and their complete invariants.

A form is a symmetric rational Gram matrix.  Congruence diagonalization is
done once per form, by symmetric Gaussian elimination in exact arithmetic;
the classifying data (rank, signature, determinant class, degree-1 and
degree-2 classes, local Hasse units) is read off that diagonal and does
not depend on it.  Two forms over Q are isometric iff all of it matches,
which is what :func:`isometric` decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

from .arith import factor, padic_split
from .cohomology import INF, TWO, CohClass2, Place, SquareClass, pairwise_symbol
from .errors import DomainError

Rat = Fraction


def _to_fraction_rows(rows: Iterable[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    out = []
    for row in rows:
        out.append(tuple(Fraction(x) for x in row))
    return tuple(out)


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric rational Gram matrix with nonzero determinant."""

    gram: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Sequence]):
        gram = _to_fraction_rows(rows)
        n = len(gram)
        if n == 0 or any(len(row) != n for row in gram):
            raise DomainError("Gram matrix must be square and nonempty")
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise DomainError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_pivots", _eliminate(gram))

    @property
    def rank(self) -> int:
        return len(self.gram)

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


def _eliminate(gram: tuple[tuple[Fraction, ...], ...]) -> tuple[Fraction, ...]:
    """Pivots of a symmetric elimination of gram: a congruent diagonal.

    A zero pivot with a nonzero off-diagonal entry in its row is repaired
    by the congruence e_i <- e_i +- e_j, which keeps the arithmetic
    rational and exact.  Every move has determinant 1, so the product of
    the pivots is det(gram).
    """
    n = len(gram)
    m = [list(row) for row in gram]

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


def diagonalize(q: QuadraticForm) -> DiagonalForm:
    """Entries of a diagonal form congruent to q over Q: the pivots of the
    elimination the constructor ran."""
    return DiagonalForm(q._pivots)


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

    With L the lcm of the Gram denominators, L*q is integral, and an
    integral form whose determinant is a unit at an odd p has trivial Hasse
    unit at p (Serre, A Course in Arithmetic, Ch. IV).  So local symbols
    are needed only at 2, inf and the primes of L*|numerator(det q)|.
    """
    diag = diagonalize(q).entries
    pos = sum(1 for a in diag if a > 0)
    neg = len(diag) - pos
    det = prod(diag)
    denominators = lcm(*(x.denominator for row in q.gram for x in row))
    primes = [p for p, _ in factor(denominators * abs(det.numerator)).factors]
    disc_rep = -1 if det < 0 else 1
    for p in primes:
        if padic_split(det, p)[0] % 2:
            disc_rep *= p
    places = [TWO] + [Place.finite(p) for p in primes if p != 2] + [INF]
    units = {v: pairwise_symbol(diag, v) for v in places}
    w2 = CohClass2(v for v, s in units.items() if s == -1)
    del units[INF]
    hasse = {v: s for v, s in units.items() if v == TWO or s == -1 or disc_rep % v.prime == 0}
    disc = SquareClass.from_squarefree(disc_rep)
    return FormInvariants(
        rank=len(diag),
        signature=(pos, neg),
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
