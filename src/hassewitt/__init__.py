"""Exact computation of quadratic form invariants over Q, trace forms of
number fields, embedding-problem obstructions, and middle-cohomology
invariants of complete intersections."""

from .arith import factor, is_prime, legendre, squarefree_part
from .cohomology import (
    INF,
    CohClass2,
    Place,
    SquareClass,
    cup,
    cup_sum,
    hilbert_symbol,
    localize,
)
from .errors import DomainError, EffortExceededError, InternalError
from .forms import (
    FormInvariants,
    QuadraticForm,
    diagonalize,
    invariants,
    isometric,
)
from .motives import (
    CompleteIntersectionSpec,
    MotiveReport,
    SymbolicClass,
    betti_middle,
    betti_w_invariants,
    cubic_surface_refinement,
    euler_characteristic,
    hypersurface_w,
    motive_report,
    tau_mod8,
)
from .numberfield import (
    EtaleAlgebra,
    Poly,
    count_real_roots,
    discriminant,
    factor_pattern_mod_p,
    power_sums,
    resultant,
    trace_form_report,
    trace_gram,
)
from .obstructions import (
    LiftReport,
    delta_comparison,
    jehanne_local,
    lifting_decisions,
    real_place_sw2,
    sp2_permutation,
    sw2_character_sum,
    sw2_permutation,
)

__version__ = "0.1.0"
