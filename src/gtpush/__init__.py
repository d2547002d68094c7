"""Blocking/pushing particle dynamics on Gelfand-Tsetlin cones.

Exact construction of the marginal generators/kernels and their two-row
couplings, exact verification of the intertwinings between them, trajectory
simulators for the three dynamics, and the pathwise noise couplings to
conditioned walks and last passage times, one submodule each; importing
gtpush loads them all and re-exports no name of theirs.
"""
from . import couplings, dynamics, harness, intertwine, kernels, patterns, schur

__version__ = "0.1.0"
