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

Also here: the addition formula for sums of quadratic characters
(:func:`sw2_character_sum` takes the characters themselves, as nonzero
rationals or square classes, and factors each once), the real place
closed forms, and the degree-1/2 comparison classes of a pair of
forms of equal rank.
"""

from __future__ import annotations

from typing import Iterable

from . import arith
from .cohomology import CohClass2, INF, Place, Rat, SquareClass, _cup_sum_at, cup_sum, hilbert_symbol
from .errors import DomainError
from .forms import FormInvariants, QuadraticForm, invariants
from .numberfield import EtaleAlgebra
from .values import Value

QUARTIC_ASSUMPTIONS = (
    "defining quartic is irreducible over Q with Galois closure of group S4",
    "stated local decomposition types are valid only under that hypothesis",
)


def sp2_permutation(algebra: EtaleAlgebra) -> CohClass2:
    """Spinor class of the permutation representation: (2) cup (disc f)."""
    return _sp2(invariants(algebra))


def _sp2(inv: FormInvariants) -> CohClass2:
    """(2) cup w1 (= disc f) at the hasse_local keys: 2 and the primes of w1."""
    return _cup_sum_at((2, inv.w1.rep), inv.hasse_local)


def sw2_permutation(algebra: EtaleAlgebra) -> CohClass2:
    """Second Stiefel-Whitney class of the permutation representation.

    Computed as w2 of the trace form plus the spinor class, which is the
    comparison formula solved for sw2.
    """
    inv = invariants(algebra)
    return inv.w2 + _sp2(inv)


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


def jehanne_local(p: int, name: str, d_f: int) -> tuple[int, int]:
    """Local pair (w_{2,p} of the trace form, (2, d_F)_p) for a quartic
    field in which the odd prime p decomposes as the type name: "unramified",
    or one of the six ramified shapes "1^2,1,1", "1^3,1", "1^2,2", "1^4",
    "2^2" and "1^2,1^2".

    d_f is the field discriminant, never 0.  The table excludes p = 2.
    """
    if name != "unramified" and name not in _RAMIFIED_TYPES:
        raise DomainError(f"unknown decomposition type {name!r}")
    if p == 2:
        raise DomainError("the local table excludes the prime 2")
    if not arith.is_prime(p):
        raise DomainError(f"{p} must be an odd prime")
    if d_f == 0:
        raise DomainError("the field discriminant must be nonzero")
    eight = -1 if ((p * p - 1) // 8) % 2 else 1  # (-1)**((p^2-1)/8)
    four = -1 if ((p - 1) // 2) % 2 else 1       # (-1)**((p-1)/2)
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
    sym = hilbert_symbol(d_f, p, Place.from_prime(p))  # 1^2,1^2
    return (four * sym, 1)


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
    )

    def to_json(self) -> dict:
        return {
            "field_disc": self.field_disc.to_json(),
            "sw2": self.sw2.to_json(),
            "sp2": self.sp2.to_json(),
            "w2_trace": self.w2_trace.to_json(),
            "lift_solvable": self.lift_solvable,
            "lift_delta_solvable": self.lift_delta_solvable,
            "local_table": {repr(v): list(pair) for v, pair in sorted(self.local_table.items())},
        }


def lifting_decisions(algebra: EtaleAlgebra) -> LiftReport:
    """Decide both embedding problems for a quartic field from class
    vanishing alone."""
    if algebra.degree != 4:
        raise DomainError("lifting decisions are defined for quartics only")
    inv = invariants(algebra)
    w2_trace, sp2 = inv.w2, _sp2(inv)
    # {inf} and the hasse_local keys hold the supports of w2 and sp2
    table = {v: (-1 if v in w2_trace else 1, -1 if v in sp2 else 1) for v in sorted({INF, *inv.hasse_local})}
    sw2 = w2_trace + sp2
    return LiftReport(inv.w1, sw2, sp2, w2_trace, w2_trace.is_zero, sw2.is_zero, table)


# ---------------------------------------------------------------------------
# character sums and the real place
# ---------------------------------------------------------------------------


def sw2_character_sum(chars: Iterable[Rat | SquareClass]) -> CohClass2:
    """sw2 of a sum of quadratic characters, each given by a nonzero
    rational or its square class (1 is the trivial character): the sum of
    the pairwise cups.

    Single characters have trivial sw2, and each addition contributes the
    cup of the two determinants, so only the pairs survive.
    """
    chars = list(chars)
    if not chars:
        raise DomainError("character sum must be nonempty")
    return cup_sum(chars)


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
    delta2 = a.w2 + b.w2 + _cup_sum_at((a.w1.rep, -b.w1.rep), {*a.hasse_local, *b.hasse_local})
    return DeltaPair(delta1, delta2)
