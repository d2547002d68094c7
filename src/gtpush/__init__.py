"""Blocking/pushing particle dynamics on Gelfand-Tsetlin cones.

Exact construction of the marginal generators/kernels and their two-row
couplings, exact verification of the intertwinings between them, trajectory
simulators for the three dynamics, and the pathwise noise couplings to
conditioned walks and last passage times.
"""
from .patterns import (
    Pattern,
    STANDARD,
    SYMPLECTIC,
    branching,
    enumerate_patterns,
    interlace_nest,
    interlace_shift,
    is_valid,
    sample_pattern,
    weight,
)
# NB: the bare name `schur` stays bound to the submodule (kernels and the
# samplers import it as such); the evaluator itself is gtpush.schur.schur.
from . import schur
from .schur import schur_oracle, sp_schur
from .kernels import (
    GEOMETRIC,
    LambdaKernel,
    POISSON,
    SparseGenerator,
    StepKernel,
    WALL_EVEN_ODD,
    WALL_ODD_EVEN,
    coupling_generator,
    coupling_kernel_geometric,
    kernel_geometric,
    q_charlier,
    q_symplectic,
)
from .intertwine import (
    VerificationReport,
    semigroup,
    semigroup_intertwining_gap,
    verify_conservative,
    verify_generator_intertwining,
    verify_kernel_intertwining,
)
from .dynamics import simulate, zero_pattern
from .couplings import (
    GeometricPanel,
    PoissonPanel,
    WallPanel,
    geometric_panel,
    left_edge_from_walk,
    lpp_G,
    poisson_panel,
    right_edge_equals_lpp,
    wall_panel,
    wall_sup_functional,
)
from .harness import ExperimentConfig, Pmf, chi_square_gof, tv_distance

__all__ = [
    # patterns
    "Pattern", "STANDARD", "SYMPLECTIC", "branching", "enumerate_patterns", "interlace_nest",
    "interlace_shift", "is_valid", "sample_pattern", "weight",
    # schur
    "schur", "schur_oracle", "sp_schur",
    # kernels
    "GEOMETRIC", "LambdaKernel", "POISSON", "SparseGenerator", "StepKernel",
    "WALL_EVEN_ODD", "WALL_ODD_EVEN", "coupling_generator", "coupling_kernel_geometric",
    "kernel_geometric", "q_charlier", "q_symplectic",
    # intertwine
    "VerificationReport", "semigroup", "semigroup_intertwining_gap", "verify_conservative",
    "verify_generator_intertwining", "verify_kernel_intertwining",
    # dynamics
    "simulate", "zero_pattern",
    # couplings
    "GeometricPanel", "PoissonPanel", "WallPanel", "geometric_panel", "left_edge_from_walk",
    "lpp_G", "poisson_panel", "right_edge_equals_lpp", "wall_panel", "wall_sup_functional",
    # harness
    "ExperimentConfig", "Pmf", "chi_square_gof", "tv_distance",
]
__version__ = "0.1.0"
