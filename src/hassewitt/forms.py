"""Nondegenerate quadratic forms over Q and their complete invariants.

A form is a symmetric rational Gram matrix, held as L, the lcm of its
reduced denominators, and the integral matrix L*Gram; the CLI parses
Gram entries straight into that pair.  Each form is built with one exact
diagonal of a congruent form.  A Gram matrix gets it from one
fraction-free (Bareiss) symmetric elimination on L*Gram, whose leading
principal minors D_i give, by Jacobi, <D_1/L, D_2/(L D_1), ...,
D_n/(L D_(n-1))>; a trace form brings the diagonal of its algebra's one
PRS (``numberfield.trace_gram``).  Every classifying datum (rank,
signature, determinant class, degree-1 and degree-2 classes, local Hasse
units) is read off that diagonal's integers the same way for every form,
with no rational arithmetic, and :func:`isometric` compares all of it.
:func:`invariants` of an etale algebra reads its trace form's diagonal."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Sequence

from .cohomology import INF, CohClass2, SquareClass, _hasse_exponent, _places_of
from .errors import DomainError
from .values import Value, setfield

if TYPE_CHECKING:
    from .numberfield import EtaleAlgebra


class QuadraticForm(Value):
    """Symmetric rational Gram matrix with nonzero determinant.

    It is held as L, the lcm of the reduced denominators of its entries,
    and the integral matrix L*gram; that pair is canonical, so equality and
    hashing compare it, and ``gram`` is rebuilt from it on demand.
    ``_diagonal`` and ``_det`` hold a congruent diagonal form's entries and
    determinant as (num, den) pairs, from :func:`_leading_minors` (which
    rejects a degenerate matrix) unless the builder passes them in, and
    ``_support`` is L*|num|/gcd(num, den) of that determinant."""

    _fields = ("_scale", "_scaled")

    def __init__(self, rows: Iterable[Sequence]):
        rats = ([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows)
        self._set([[(x.numerator, x.denominator) for x in row] for row in rats])

    @classmethod
    def _from_ratios(cls, rows: list[list[tuple[int, int]]], diagonal: tuple | None = None) -> "QuadraticForm":
        """The form with entries num/den, from (num, den) pairs in lowest
        terms; diagonal, if known, is (``_diagonal``, ``_det``)."""
        q = object.__new__(cls)
        q._set(rows, diagonal)
        return q

    def _set(self, rows: list[list[tuple[int, int]]], diagonal: tuple | None = None) -> None:
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DomainError("Gram matrix must be square and nonempty")
        scale = lcm(*[den for row in rows for _, den in row])
        m = [[num * (scale // den) for num, den in row] for row in rows]
        scaled = tuple(map(tuple, m))
        if tuple(zip(*scaled)) != scaled:
            raise DomainError("Gram matrix must be symmetric")
        if diagonal is None:  # Jacobi's pivots D_i / (L D_(i-1)), D_0 = 1
            minors = _leading_minors(m)
            diagonal = [(d, scale * prev) for prev, d in zip((1,) + minors, minors)], (minors[-1], scale**n)
        setfield(self, "_scale", scale)
        setfield(self, "_scaled", scaled)
        setfield(self, "_diagonal", diagonal[0])
        setfield(self, "_det", diagonal[1])
        setfield(self, "_support", scale * abs(diagonal[1][0]) // gcd(*diagonal[1]))

    @property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        scale = self._scale
        return tuple(tuple(Fraction(x, scale) for x in row) for row in self._scaled)

    @property
    def rank(self) -> int:
        return len(self._scaled)

    @property
    def det(self) -> Fraction:
        return Fraction(*self._det)

    def to_json(self) -> list[list]:
        return [[_rat_json(x, self._scale) for x in row] for row in self._scaled]

    def __repr__(self) -> str:
        return f"QuadraticForm({[list(map(str, r)) for r in self.gram]})"


def _rat_json(num: int, den: int):
    g = gcd(num, den)
    return num // g if den == g else f"{num // g}/{den // g}"


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


def diagonalize(q: QuadraticForm) -> tuple[Fraction, ...]:
    """Entries of a diagonal form congruent to q over Q, all nonzero: the
    diagonal the form was built with."""
    return tuple(Fraction(num, den) for num, den in q._diagonal)


class FormInvariants(Value):
    """Full classifying data of a rational form.

    w1 is the square class of the determinant (no sign twist is applied),
    so it is also the discriminant class; ``to_json`` reports it under
    both the "disc" and the "w1" key.  hasse_local carries the Hasse unit,
    the product of local symbols over pairs of diagonal entries, at 2, at
    the odd primes of w1 and at the finite places of w2; it is +1
    everywhere else.  That key set depends
    only on the isometry class, so isometric forms serialize identically.
    """

    _fields = ("rank", "signature", "w1", "w2", "hasse_local")

    def __hash__(self) -> int:
        # hasse_local, a dict, is left out
        return hash((self.rank, self.signature, self.w1, self.w2))

    def to_json(self) -> dict:
        w1 = self.w1.to_json()
        return {
            "rank": self.rank,
            "signature": list(self.signature),
            "disc": w1,
            "w1": w1,
            "w2": self.w2.to_json(),
            "hasse_local": {repr(v): s for v, s in sorted(self.hasse_local.items())},
        }


def invariants(q: QuadraticForm | EtaleAlgebra) -> FormInvariants:
    """rank, signature, determinant class, w1, w2 and local Hasse units of
    a form, or of the trace form of an etale algebra.

    An integral form whose determinant is a unit at an odd p has trivial
    Hasse unit at p (Serre, A Course in Arithmetic, Ch. IV), so local
    symbols are needed only at 2, inf and the primes of ``_support``:
    L*|numerator(det q)| for L*q integral; for an algebra, whose trace form
    is congruent to g's Hankel form by diag(c**-i), |numerator(disc f)| *
    gcd(disc g, c): the primes of disc g, none past its power in c.  A
    diagonal entry num/den is num*den up to squares; per place, one kernel
    call gives the Hasse exponent e and k, the odd-valuation entry count.
    """
    pivots = [num * den for num, den in q._diagonal]
    n = len(pivots)
    neg = sum(1 for x in pivots if x < 0)
    disc_rep = -1 if neg % 2 else 1
    w2 = [INF] if neg * (neg - 1) // 2 % 2 else []
    hasse = {}
    for v in _places_of((q._support,)):
        p = v.prime
        e, k = _hasse_exponent(pivots, p)
        if e:
            w2.append(v)
        if k & 1:
            disc_rep *= p
        if p == 2 or e or k & 1:
            hasse[v] = -1 if e else 1
    return FormInvariants(n, (n - neg, neg), SquareClass.from_squarefree(disc_rep), CohClass2(w2), hasse)


def isometric(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Isometry over Q (Hasse-Minkowski): same rank, signature,
    determinant class and local Hasse unit at every place."""
    return q1.rank == q2.rank and invariants(q1) == invariants(q2)

