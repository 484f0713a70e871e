"""Middle-cohomology invariants of smooth even-dimensional complete
intersections.

Everything is driven by integer data (the dimension n and the multidegree):
the Euler characteristic is one divided difference of a power of x on the
integer nodes 1, 1 and 1 - d_i, in which every division is exact; the
middle Betti number is chi - n, and the index of the intersection lattice
is pinned mod 8 by the parity of one binomial coefficient.  That is enough
to evaluate the degree-1 and degree-2 classes of the Betti form exactly.
For a hypersurface the comparison classes follow from the comparison
formula delta1 = w1(q_B) w1(q_dR), delta2 = w2(q_B) + w1(q_B).w1(q_B) +
w1(q_B).w1(q_dR) + w2(q_dR) with w1(q_dR) = epsilon'(n, d) disc_d(f): the
Betti classes are evaluated in the place-set model, and the de Rham side
stays symbolic, as a fixed token vocabulary (``disc_d(f)``, ``w2(q_dR)``,
``(-1,disc_d(f))``).
"""

from __future__ import annotations

from math import comb, prod
from typing import Union

from .cohomology import INF, MINUS_ONE, ONE, CohClass2, Place, SquareClass
from .errors import DomainError, InternalError
from .values import Value, setfield

TOKEN_DISC = "disc_d(f)"
TOKEN_W2_DR = "w2(q_dR)"
TOKEN_MINUS_ONE_DISC = "(-1,disc_d(f))"

_CLASS_MINUS_ONE_MINUS_ONE = CohClass2([Place.finite(2), INF])

# Input limits: they bound the size of every report (chi has O(n log d)
# bits) and the time of euler_characteristic.
MAX_DIMENSION = 4096
MAX_CODIMENSION = 8
MAX_DEGREE = 10**4


class CompleteIntersectionSpec(Value):
    """Even dimension 2 <= n <= MAX_DIMENSION and the multidegree
    (d_1, ..., d_c), with 1 <= c <= MAX_CODIMENSION and
    1 <= d_i <= MAX_DEGREE.  n and every d_i must be ``int`` (not
    ``bool``); nothing is coerced, so 2.5 or "3" is a DomainError."""

    _fields = ("n", "degrees")

    def __init__(self, n: int, degrees):
        degrees = tuple(degrees)
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (n, *degrees)):
            raise DomainError("dimension and degrees must be integers")
        if n < 2 or n % 2:
            raise DomainError("dimension must be even and >= 2")
        if not degrees or any(d < 1 for d in degrees):
            raise DomainError("degrees must be a nonempty list of integers >= 1")
        if n > MAX_DIMENSION:
            raise DomainError(f"dimension must be <= {MAX_DIMENSION}")
        if len(degrees) > MAX_CODIMENSION:
            raise DomainError(f"codimension must be <= {MAX_CODIMENSION}")
        if any(d > MAX_DEGREE for d in degrees):
            raise DomainError(f"degrees must be <= {MAX_DEGREE}")
        setfield(self, "n", n)
        setfield(self, "degrees", degrees)

    @property
    def codimension(self) -> int:
        return len(self.degrees)

    @property
    def total_degree(self) -> int:
        return prod(self.degrees)


class SymbolicClass(Value):
    """A cohomology class split into an evaluated numeric part and formal
    tokens from the fixed vocabulary, with coefficients mod 2."""

    _fields = ("numeric", "tokens")

    def __init__(self, numeric: Union[SquareClass, CohClass2], tokens: tuple[str, ...]):
        if not set(tokens) <= {TOKEN_DISC, TOKEN_W2_DR, TOKEN_MINUS_ONE_DISC}:
            raise InternalError(f"token outside the vocabulary: {tokens}")
        setfield(self, "numeric", numeric)
        setfield(self, "tokens", tokens)

    def to_json(self) -> dict:
        return {"numeric": self.numeric.to_json(), "tokens": list(self.tokens)}

    def __repr__(self) -> str:
        parts = [repr(self.numeric)] + list(self.tokens)
        return " + ".join(parts)


def euler_characteristic(spec: CompleteIntersectionSpec) -> int:
    """chi = d1...dc [h**n] (1+h)**(n+c+1) / prod(1 + d_i h)  (Hirzebruch).

    After h = t/(1-t) this is d1...dc [t**n] 1/((1-t)**2 prod(1 + (d_i-1) t)),
    the complete homogeneous polynomial h_n at the nodes 1, 1 and 1 - d_i
    (a node 1 - 1 = 0 adds nothing, so a degree-1 equation has none).  With
    N nodes, h_n is the divided difference of x**(n+N-1) on them (de Boor,
    "Divided differences", 2005).  Every entry of the table is h_j of
    integer nodes, so each division is exact; where the k+1 nodes of an
    entry coincide it is the derivative term C(n+N-1, k) x**(n+N-1-k)."""
    nodes = sorted([1, 1] + [1 - d for d in spec.degrees if d != 1])
    m = spec.n + len(nodes) - 1
    column = [x**m for x in nodes]
    for k in range(1, len(nodes)):
        column = [comb(m, k) * x ** (m - k) if x == y else (b - a) // (y - x)
                  for x, y, a, b in zip(nodes, nodes[k:], column, column[1:])]
    return spec.total_degree * column[0]


def betti_middle(spec: CompleteIntersectionSpec) -> int:
    """Middle Betti number chi - n."""
    return euler_characteristic(spec) - spec.n


def _binomial_is_even(spec: CompleteIntersectionSpec) -> bool:
    """Whether C(n/2 + t, t) is even, t the number of even degrees.  By
    Kummer's theorem C(a + b, b) is odd exactly when a & b == 0."""
    t = sum(1 for d in spec.degrees if d % 2 == 0)
    return (spec.n // 2) & t != 0


def _index_shift(spec: CompleteIntersectionSpec) -> int:
    """0 when the controlling binomial is even, the total degree otherwise:
    the index is this mod 8, and m = chi - n - this."""
    return 0 if _binomial_is_even(spec) else spec.total_degree


def tau_mod8(spec: CompleteIntersectionSpec) -> int:
    """Index of the middle lattice mod 8: 0 when the controlling binomial
    is even, the total degree otherwise."""
    return _index_shift(spec) % 8


def betti_w_invariants(spec: CompleteIntersectionSpec) -> tuple[int, int, SquareClass, CohClass2]:
    """(m, m', w1, w2) of the Betti form.

    m is chi - n, shifted by the total degree when the binomial parity
    forces a nonzero index; m is always even, m' = m/2, and

        w1 = m'(-1),    w2 = C(m', 2)(-1,-1).
    """
    return _betti_w(euler_characteristic(spec) - spec.n - _index_shift(spec))


def _betti_w(m: int) -> tuple[int, int, SquareClass, CohClass2]:
    if m % 2:
        raise InternalError("middle lattice shift is odd")
    m_prime = m // 2
    w1 = MINUS_ONE if m_prime % 2 else ONE
    w2 = _CLASS_MINUS_ONE_MINUS_ONE if (m_prime * (m_prime - 1) // 2) % 2 else CohClass2.zero()
    return m, m_prime, w1, w2


def hypersurface_w(n: int, d: int) -> tuple[SquareClass, CohClass2]:
    """Closed-form (w1, w2) of the Betti form of a degree-d hypersurface:

        w1 = (n/2)(d-1) (-1)
        w2 = ((d-1)/2) (-1,-1)                   d odd
        w2 = floor((n+2)/4) (1 + d/2) (-1,-1)    d even
    """
    CompleteIntersectionSpec(n, [d])  # validate
    w1 = MINUS_ONE if ((n // 2) * (d - 1)) % 2 else ONE
    if d % 2:
        coeff = (d - 1) // 2
    else:
        coeff = ((n + 2) // 4) * (1 + d // 2)
    w2 = _CLASS_MINUS_ONE_MINUS_ONE if coeff % 2 else CohClass2.zero()
    return w1, w2


def _delta_classes(n: int, d: int, w1: SquareClass, w2: CohClass2) -> tuple[SymbolicClass, SymbolicClass]:
    """The comparison formula on the Betti classes (w1, w2).  The cups vanish
    unless w1 = (-1), which forces d even, n = 2 mod 4 and epsilon' = -1:
    then (-1,-1) + (-1, -disc_d(f)) = (-1, disc_d(f))."""
    sign = w1.rep * epsilon_prime(n, d)  # w1 of the Betti form is (1) or (-1)
    delta1 = SymbolicClass(MINUS_ONE if sign < 0 else ONE, (TOKEN_DISC,))
    extra = () if w1.is_trivial else (TOKEN_MINUS_ONE_DISC,)
    return delta1, SymbolicClass(w2, (TOKEN_W2_DR,) + extra)


def epsilon_prime(n: int, d: int) -> int:
    """Sign relating w1(q_dR) to the divided discriminant: (-1)**((d-1)/2)
    for odd d and (-1)**((1+n/2)(1+d/2)+1) for even d."""
    if d % 2:
        e = (d - 1) // 2
    else:
        e = (1 + n // 2) * (1 + d // 2) + 1
    return -1 if e % 2 else 1


def cubic_surface_refinement(n: int = 2, d: int = 3) -> int:
    """The mod-16 index refinement available for the cubic surface: the
    rank-7 lattice with index 3 mod 8 and d + 8 mod 16 has index exactly
    -5.  Unsupported for any other (n, d)."""
    if (n, d) != (2, 3):
        raise DomainError("index refinement is only supported for the cubic surface")
    return -5


class MotiveReport(Value):
    """Invariant bundle of the middle-cohomology motive of a complete
    intersection; the symbolic classes are present only for hypersurfaces,
    where the divided-discriminant vocabulary applies."""

    _fields = ("chi", "b_n", "tau_mod8", "m", "m_prime", "w1_qB", "w2_qB", "delta1", "delta2")

    def to_json(self) -> dict:
        return {
            "chi": self.chi,
            "b_n": self.b_n,
            "tau_mod8": self.tau_mod8,
            "m": self.m,
            "m_prime": self.m_prime,
            "w1_qB": self.w1_qB.to_json(),
            "w2_qB": self.w2_qB.to_json(),
            "delta1": self.delta1.to_json() if self.delta1 else None,
            "delta2": self.delta2.to_json() if self.delta2 else None,
        }


def motive_report(spec: CompleteIntersectionSpec) -> MotiveReport:
    chi = euler_characteristic(spec)
    shift = _index_shift(spec)
    m, m_prime, w1, w2 = _betti_w(chi - spec.n - shift)
    if spec.codimension == 1:
        delta1, delta2 = _delta_classes(spec.n, spec.degrees[0], w1, w2)
    else:
        delta1 = delta2 = None
    return MotiveReport(chi, chi - spec.n, shift % 8, m, m_prime, w1, w2, delta1, delta2)
