"""Absolute-compatibility relations and linear-preserver checks on
finite-dimensional C*-algebras (direct sums of complex matrix blocks)."""

from types import ModuleType as _ModuleType

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    adjoint,
    is_contraction,
    is_positive,
    jordan,
    triple,
    unit,
    zero,
)
from .linalg import (
    HermitianEig,
    PolarDecomposition,
    abs_value,
    apply_function,
    herm_eig,
    op_norm,
    polar,
    range_projection,
)
from .preservers import (
    LinearMap,
    PreservationReport,
    Provenance,
    TripleHomClassification,
    Witness,
    build_block_map,
    build_sandwich,
    build_star_anti_hom,
    build_star_hom,
    classify_triple_hom,
    fuzz_counterexample,
    identity_map,
    is_contractive_sampled,
    is_triple_hom,
    preserves_compat_sampled,
    range_version_adapter,
    scale_map,
    transpose_map,
)
from .relations import (
    CompatKind,
    IntervalBoundary,
    check_orth_characterization,
    check_p00_equivalences,
    check_tripotent_characterization,
    commutative_compat_check,
    compat_defect,
    is_orthogonal,
    is_partial_isometry,
    is_projection,
    spectral_tripotent,
)
from .reports import ConsistencyReport, RelationReport
from .sampling import (
    PairGenerator,
    PairStrategy,
    compatible_positive_pair_2x2,
    crossed_isometry_pair_2x2,
    generate_compat_pair,
    known_witness_pairs,
    partial_isometry_from_projections,
)
from .tolerance import DEFAULT_TOL, ToleranceConfig

__version__ = "0.1.0"

# every public name imported above; the submodules are not exported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
