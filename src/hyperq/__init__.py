"""Exact ranks, signatures, and restriction bounds of Hermitian forms,
with constructive maps between hyperquadrics.

Everything computes over exact rational (or Gaussian rational)
arithmetic; randomized operations take explicit seeds and report
Schwartz-Zippel style failure bounds instead of hoping.
"""

from types import ModuleType as _ModuleType

from .combinat import (
    MacaulayRep,
    compose_K,
    green_G,
    green_K,
    hermitian_R,
    macaulay_lower,
    macaulay_rep,
    rigidity_bound,
    stability_region,
)
from .errors import (
    ConjugateMismatch,
    DimensionMismatch,
    HyperqError,
    IndexOutOfRange,
    NoNegativeComponent,
    NoPivotMonomial,
    NotAdmissible,
    NotReached,
    NotVanishing,
    NonRealDiagonal,
    ParseError,
)
from .formats import (
    dump_form,
    dump_map,
    dump_realpoly,
    load_form,
    load_map,
    load_realpoly,
    parse_form,
    parse_map,
    parse_realpoly,
)
from .forms import (
    HermitianForm,
    SignaturePair,
    WeightedHoloMap,
    compose_linear,
    decompose,
    form_from_entries,
    form_from_real_poly,
    form_inertia,
    form_rank,
    norm_difference,
)
from .quadrics import (
    QuadricMap,
    SignedRealPoly,
    construct_map,
    corner_move,
    dehomogenize,
    grow,
    identity_map,
    is_admissible,
    map_from_form,
    reachable_signatures,
    s_poly,
    tensor_extend,
    verify_map,
)
from .restrict import (
    AffineEmbedding,
    cayley_unitary,
    embedding,
    generic_restriction_rank,
    max_affine_rank,
    quadric_subspace,
    restrict_form,
    sz_failure_bound,
)
from .scalars import GaussianRational, gr

# each public name is written once, in the imports above: every bound name without `_` that is no submodule
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType))
