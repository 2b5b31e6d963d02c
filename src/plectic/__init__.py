"""Plectic Hodge structures, complex tori with real multiplication,
refined Hodge theory on flat tori, and plectic Abel-Jacobi maps.

The flat-torus spectral model (`plectic.flat`) is imported on first use
of `plectic.flat` or of one of the names in `_FLAT_NAMES`, so the exact
and mpmath layers load without paying for its import.
"""

import importlib

from .config import DEFAULT_PRECISION, default_tolerance, get_precision, set_precision
from .errors import DegenerateInputError, InputError, PlecticError, SearchExhaustedError
from .lattices import (
    IntMatrix,
    hermite_normal_form,
    smith_normal_form,
    torsion_free_quotient,
)
from .hodge import (
    Bidegree,
    PlecticHodgeStructure,
    check_morphism,
    elliptic_h1,
    hodge_filtration,
    is_effective_weight_one,
    jacobian_is_abelian_certificate,
    orthogonality_check,
    plectic_jacobian,
    refine_to_classical,
    tensor,
    validate,
)
from .numberfields import FieldOrder, FractionalIdealRep
from .tori import (
    AlgebraizationResult,
    ComplexTorus,
    RMStructure,
    algebraize_rm,
    construct_rm_torus,
    detect_rm,
    dual_torus,
    endomorphisms,
    enlarge_to_maximal,
    steinitz_decompose,
    tori_isomorphic,
)
from .shimura import (
    CupOperator,
    StronglyPrimitiveDatum,
    build_plectic_from_frobenii,
    character_decompose,
    nu_hodge_structure,
    plectic_jacobian_qsv,
    strongly_primitive,
)
from .abeljacobi import (
    PlecticCycle,
    QuotientDatum,
    abel_jacobi,
    iterated_integral,
    period_lattice,
    relift,
    theorem_b_harness,
)

__version__ = "0.1.0"

_FLAT_NAMES = frozenset({
    "FlatTorus",
    "FourierFormSpace",
    "OperatorMatrix",
    "adjoint",
    "build_space",
    "d_operator",
    "extract_plectic_structure",
    "harmonic_space",
    "metric_independence_check",
    "verify_laplacian_sum",
    "verify_refined_identities",
    "xi_operator",
})


def __getattr__(name):
    # importlib, not `from . import flat`: the latter asks hasattr(plectic,
    # "flat") first, which lands back here.
    if name == "flat" or name in _FLAT_NAMES:
        flat = importlib.import_module(".flat", __name__)
        return flat if name == "flat" else getattr(flat, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _FLAT_NAMES | {"flat"})
