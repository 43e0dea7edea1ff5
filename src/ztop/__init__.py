"""ztop: exact arithmetic for circle-group rotations, balanced pivot
decompositions, and neighbourhood/convergence analysis of the uniform and
linear group topologies a divisibility chain induces on the integers."""

from ztop.convergence import (
    FAMILIES,
    BlockStatistics,
    IntegerSequence,
    PeakDecayReport,
    Verdict,
    Witness,
    block_statistics,
    eval_sequence,
    falsify_uniform,
    make_sequence,
    peak_decay_report,
    prefix_test,
)
from ztop.decomposition import (
    CoefficientCheck,
    PivotCoefficients,
    coefficients_from_digits,
    decompose,
    nearest_int,
    recompose_and_check,
)
from ztop.duality import (
    Character,
    KernelCheck,
    WindowCheck,
    char_eval,
    character,
    continuity_window_check,
    generated_member,
    kernel_check,
)
from ztop.neighborhoods import (
    DiscretenessWitness,
    Linear,
    NeighborhoodSpec,
    Uniform,
    coeff_bound_test,
    discreteness_witness,
    iter_members,
    member,
    member_direct,
    member_linear,
    member_partial_sums,
)
from ztop.pivots import (
    BitBudgetExceeded,
    MultiplierChain,
    PivotSequence,
    TwoPowerExponent,
    make_pivots,
    parse_descriptor,
)
from ztop.torus import TorusPoint, add, canonicalize, in_arc, int_scale, parse_rational, rat_str

__version__ = "0.1.0"

KERNEL_BACKEND = "python"  # the kernels in ztop._kernels are pure Python

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    # torus
    "TorusPoint",
    "canonicalize",
    "add",
    "int_scale",
    "in_arc",
    "parse_rational",
    "rat_str",
    # pivots
    "TwoPowerExponent",
    "MultiplierChain",
    "PivotSequence",
    "BitBudgetExceeded",
    "make_pivots",
    "parse_descriptor",
    # decomposition
    "PivotCoefficients",
    "CoefficientCheck",
    "nearest_int",
    "decompose",
    "recompose_and_check",
    "coefficients_from_digits",
    # neighborhoods
    "Uniform",
    "Linear",
    "NeighborhoodSpec",
    "member_direct",
    "member_partial_sums",
    "coeff_bound_test",
    "member_linear",
    "member",
    "iter_members",
    "DiscretenessWitness",
    "discreteness_witness",
    # convergence
    "FAMILIES",
    "IntegerSequence",
    "make_sequence",
    "eval_sequence",
    "prefix_test",
    "falsify_uniform",
    "block_statistics",
    "peak_decay_report",
    "Verdict",
    "Witness",
    "BlockStatistics",
    "PeakDecayReport",
    # duality
    "Character",
    "character",
    "char_eval",
    "kernel_check",
    "KernelCheck",
    "generated_member",
    "continuity_window_check",
    "WindowCheck",
]
