"""Exact computations with the relation families and finite quotient models of
instanton homology rings of a circle times a surface with marked points."""

__version__ = "0.1.0"

from .poly import LaurentU, Poly, RingDescriptor, ring  # noqa: F401
from .quotient import QuotientSpec, canonical_rep  # noqa: F401
from .relations import (EtaChoice, GeneratorSet, igen, jgen_n1, kprime_gen,  # noqa: F401
                        r_poly, rho_proj, rho_series, w_skeleton, xi)
from .floer import (EigenReport, HilbertReport, QuotientModel,  # noqa: F401
                    decomposition_identity_check,
                    eigen_verify, gamma_power_witness, graded_ideal_dims,
                    hilbert_compare, model_for, solve_subleading)
