"""Exact arithmetic for juggler's friezes.

Friezes shaped by juggling functions, their determinant and duality
checks, the twist-based construction from unimodular matrices, and the
associated linear recurrences with superperiodic solutions.
"""

from .juggling import (JugglingFunction, SiteswapError, parse_siteswap,
                       format_siteswap, residue)
from .matrices import Matrix, cyclic_submatrix
from .frieze import (PeriodicFrieze, FriezeReport, is_prefrieze, check_frieze,
                     is_frieze, dual_frieze, is_sl_frieze, is_positive,
                     frieze_from_quiddity, enumerate_sl2_positive)
from .construct import (UnimodularCertificate, is_consecutively_unimodular,
                        is_pi_unimodular, twist, inverse_twist,
                        positive_complement, frieze_entry, build_frieze_det,
                        build_frieze_twist, frieze_to_matrix)
from .recurrence import SolutionWindow, residual, solution_matrix

__all__ = [
    "JugglingFunction", "SiteswapError", "parse_siteswap", "format_siteswap",
    "residue",
    "Matrix", "cyclic_submatrix",
    "PeriodicFrieze", "FriezeReport", "is_prefrieze", "check_frieze",
    "is_frieze", "dual_frieze", "is_sl_frieze", "is_positive",
    "frieze_from_quiddity", "enumerate_sl2_positive",
    "UnimodularCertificate", "is_consecutively_unimodular",
    "is_pi_unimodular", "twist", "inverse_twist", "positive_complement",
    "frieze_entry", "build_frieze_det", "build_frieze_twist",
    "frieze_to_matrix",
    "SolutionWindow", "residual", "solution_matrix",
]

__version__ = "0.1.0"
