"""Exact-arithmetic bookkeeping for critical L-value period identities over CM fields."""

from .cmfield import (
    CMFieldModel,
    CMType,
    EmbFamilyModel,
    conjugate_cm_type,
    conjugate_signature,
    cyclic_model,
    dihedral_model,
    displacement_sign,
    displacement_sign_invariance,
    klein_model,
    regular_family,
)
from .hecke import InfinityType, conjugate_infinity_type
from .hodge import (
    ArchParams,
    HodgeData,
    InstanceAnalysis,
    analyze_instance,
    archimedean_params,
    critical_points_satisfy_bounds,
    critical_range,
    doubling_bounds_check,
    hodge_exponents,
    hodge_from_arch_params,
    hodge_of_character,
    signature_from_arch,
    signature_from_hodge,
    split_indices,
    tensor_hodge,
    weight_from_arch_params,
)
from .periods import (
    Level,
    PeriodGenerator,
    PeriodMonomial,
    RelationLattice,
    compare_automorphic_motivic,
    deligne_period_prediction,
    equivalent_mod,
    mono_inv,
    mono_mul,
    mono_pow,
    normalizing_factor_closed,
    normalizing_factor_product,
    rankin_lvalue_period,
    refined_lvalue_period,
    standard_lvalue_period,
    standard_relations,
    standard_vs_refined,
)
from .weights import (
    Signature,
    WeightParam,
    conjugate_weight,
    doubling_weight,
    dual_weight,
    is_block_dominant,
    is_dominant,
    sharp_dual_composite,
    sharp_dual_weight,
)

__version__ = "0.1.0"
