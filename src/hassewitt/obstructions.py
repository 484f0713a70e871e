"""Embedding-problem obstructions for quartic fields and orthogonal data.

For the permutation representation attached to an etale algebra Q[x]/(f)
the two degree-2 invariants that control the classical embedding problems
are computed here from exact data alone:

    spinor class      sp2 = (2) cup (disc f)
    lifting class     sw2 = w2(trace form) + sp2

and the two problems are solvable exactly when the corresponding class
vanishes: the twisted one when w2(trace form) = 0, the constant-group one
when sw2 = 0.  A local table for quartic fields (indexed by how an odd
ramified prime decomposes) gives the same local data without touching the
trace form, and serves as an independent cross-check.

Also here: the addition formula for sums of quadratic characters, the real
place closed forms, and the degree-1/2 comparison classes of a pair of
forms of equal rank.
"""

from __future__ import annotations

from typing import Iterable, Union

from . import arith
from .cohomology import (
    CohClass2,
    INF,
    MINUS_ONE,
    Place,
    SquareClass,
    cup,
    cup_sum,
    hilbert_symbol,
)
from .errors import DomainError
from .forms import QuadraticForm, invariants
from .numberfield import EtaleAlgebra, trace_gram
from .values import Value, setfield

QUARTIC_ASSUMPTIONS = (
    "defining quartic is irreducible over Q with Galois closure of group S4",
    "stated local decomposition types are valid only under that hypothesis",
)


def sp2_permutation(algebra: EtaleAlgebra) -> CohClass2:
    """Spinor class of the permutation representation: (2) cup (disc f)."""
    return cup(SquareClass(2), SquareClass(algebra.disc))


def sw2_permutation(algebra: EtaleAlgebra) -> CohClass2:
    """Second Stiefel-Whitney class of the permutation representation.

    Computed as w2 of the trace form plus the spinor class, which is the
    comparison formula solved for sw2.
    """
    w2_trace = invariants(trace_gram(algebra)).w2
    return w2_trace + sp2_permutation(algebra)


# ---------------------------------------------------------------------------
# decomposition types and the local table for quartic fields
# ---------------------------------------------------------------------------

_RAMIFIED_TYPES = {
    "1^2,1,1": ((2, 1), (1, 1), (1, 1)),
    "1^3,1": ((3, 1), (1, 1)),
    "1^2,2": ((2, 1), (1, 2)),
    "1^4": ((4, 1),),
    "2^2": ((2, 2),),
    "1^2,1^2": ((2, 1), (2, 1)),
}


class DecompositionType(Value):
    """How a prime decomposes in a quartic field: one of the six ramified
    shapes, or unramified (with an optional residue-degree pattern)."""

    _fields = ("name", "pattern")  # pattern: residue degrees when unramified

    def __init__(self, name: str, pattern: tuple[int, ...] | None = None):
        if name == "unramified":
            if pattern is not None and sum(pattern) != 4:
                raise DomainError("unramified residue degrees must sum to 4")
        elif name not in _RAMIFIED_TYPES:
            raise DomainError(f"unknown decomposition type {name!r}")
        setfield(self, "name", name)
        setfield(self, "pattern", pattern)

    @staticmethod
    def parse(text: str) -> "DecompositionType":
        return DecompositionType(text.strip())


def jehanne_local(p: int, t: DecompositionType, d_f: int) -> tuple[int, int]:
    """Local pair (w_{2,p} of the trace form, (2, d_F)_p) for a quartic
    field in which the odd prime p decomposes as t.

    d_f is the field discriminant, never 0.  The table excludes p = 2.
    """
    if p == 2:
        raise DomainError("the local table excludes the prime 2")
    if not arith.is_prime(p):
        raise DomainError(f"{p} must be an odd prime")
    if d_f == 0:
        raise DomainError("the field discriminant must be nonzero")
    eight = -1 if ((p * p - 1) // 8) % 2 else 1  # (-1)**((p^2-1)/8)
    four = -1 if ((p - 1) // 2) % 2 else 1       # (-1)**((p-1)/2)
    name = t.name
    if name == "unramified":
        return (1, 1)
    if name == "1^2,1,1":
        return (eight, eight)
    if name == "1^3,1":
        return (1, 1)
    if name == "1^2,2":
        return (-eight, eight)
    if name == "1^4":
        return (four, eight)
    if name == "2^2":
        return (-four, 1)
    if name == "1^2,1^2":
        sym = hilbert_symbol(d_f, p, Place.from_prime(p))
        return (four * sym, 1)
    raise DomainError(f"unknown decomposition type {name!r}")


# ---------------------------------------------------------------------------
# lifting decisions for quartic fields
# ---------------------------------------------------------------------------


class LiftReport(Value):
    """Solvability report for the two embedding problems of a quartic.

    lift_solvable decides the twisted problem (w2 of the trace form must
    vanish), lift_delta_solvable the constant-group problem (sw2 must
    vanish).  local_table records, per place, the pair (localized w2 of the
    trace form, local symbol (2, d_F)) in the +-1 convention.
    """

    _fields = (
        "field_disc",
        "sw2",
        "sp2",
        "w2_trace",
        "lift_solvable",
        "lift_delta_solvable",
        "local_table",
        "assumptions",
    )
    _defaults = {"assumptions": QUARTIC_ASSUMPTIONS}

    def to_json(self) -> dict:
        return {
            "field_disc": self.field_disc.to_json(),
            "sw2": self.sw2.to_json(),
            "sp2": self.sp2.to_json(),
            "w2_trace": self.w2_trace.to_json(),
            "lift_solvable": self.lift_solvable,
            "lift_delta_solvable": self.lift_delta_solvable,
            "local_table": {repr(v): list(pair) for v, pair in sorted(self.local_table.items())},
            "assumptions": list(self.assumptions),
        }


def lifting_decisions(algebra: EtaleAlgebra) -> LiftReport:
    """Decide both embedding problems for a quartic field from class
    vanishing alone."""
    if algebra.degree != 4:
        raise DomainError("lifting decisions are defined for quartics only")
    inv = invariants(trace_gram(algebra))
    disc_class, w2_trace = inv.w1, inv.w2  # det of the trace form is disc f
    # {inf} and the hasse_local keys cover 2, the finite places of w2 and
    # the odd primes of disc f, so they hold the supports of w2 and sp2
    table = {}
    for v in sorted({INF, *inv.hasse_local}):
        table[v] = (-1 if v in w2_trace else 1, hilbert_symbol(2, disc_class, v))
    sp2 = CohClass2(v for v, (_, sym) in table.items() if sym == -1)
    sw2 = w2_trace + sp2
    return LiftReport(disc_class, sw2, sp2, w2_trace, w2_trace.is_zero, sw2.is_zero, table, QUARTIC_ASSUMPTIONS)


# ---------------------------------------------------------------------------
# character sums and the real place
# ---------------------------------------------------------------------------


class CharacterSum(Value):
    """A sum of quadratic characters, each given by its square class; the
    class of 1 is the trivial character."""

    _fields = ("chars",)

    def __init__(self, chars: Iterable[Union[int, SquareClass]]):
        cs = tuple(SquareClass(c) for c in chars)
        if not cs:
            raise DomainError("character sum must be nonempty")
        setfield(self, "chars", cs)


def sw2_character_sum(cs: CharacterSum) -> CohClass2:
    """sw2 of a sum of quadratic characters: sum of pairwise cups.

    Single characters have trivial sw2, and each addition contributes the
    cup of the two determinants, so only the pairs survive.
    """
    return cup_sum(cs.chars)


def real_place_sw2(b_minus: int) -> int:
    """sw2 at the real place of a representation whose minus eigenspace has
    dimension b_minus: the parity of b_minus choose 2."""
    if b_minus < 0:
        raise DomainError("dimension must be nonnegative")
    return (b_minus * (b_minus - 1) // 2) % 2


# ---------------------------------------------------------------------------
# comparison classes of a pair of forms
# ---------------------------------------------------------------------------


class DeltaPair(Value):
    """Degree-1 and degree-2 comparison classes of an ordered pair of forms."""

    _fields = ("delta1", "delta2")

    def to_json(self) -> dict:
        return {"delta1": self.delta1.to_json(), "delta2": self.delta2.to_json()}


def delta_comparison(q_base: QuadraticForm, q_twist: QuadraticForm) -> DeltaPair:
    """Comparison classes of two forms of equal rank:

        delta1 = w1(q) + w1(q')
        delta2 = w2(q) + w1(q).w1(q) + w1(q).w1(q') + w2(q')

    written additively in the mod-2 cohomology ring.  By bilinearity and
    (x, x) = (x, -1), the two cups are the one cup w1(q).(-w1(q')).
    """
    if q_base.rank != q_twist.rank:
        raise DomainError("comparison requires forms of equal rank")
    a = invariants(q_base)
    b = invariants(q_twist)
    delta1 = a.w1 * b.w1
    delta2 = a.w2 + b.w2 + cup(a.w1, MINUS_ONE * b.w1)
    return DeltaPair(delta1, delta2)
