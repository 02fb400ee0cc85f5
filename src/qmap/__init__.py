"""Exact-arithmetic toolkit for q-semiclassical orthogonal polynomial
sequences related by the power substitution p_{kn}(x) = q_n(x^k).

The package works over Q(w) (w a primitive cube root of unity) with truncated
moment functionals and formal Stieltjes series, and ships a catalog of the
thirteen cubic cases together with their expected classes and canonical
distributional pairs.
"""

from .scalars import CycScalar, OMEGA, ONE, QParam, ZERO, embed_complex, format_scalar, parse_scalar
from .polyalg import Poly, compose, compose_xk, dilate_poly, divrem, hahn_poly, hahn_poly_qinv, poly_gcd, simple_set_decompose, theta0
from .functionals import (
    MomentFunctional,
    PearsonPair,
    act,
    dilate_functional,
    hahn_functional,
    left_mul,
    pearson_moments,
    pearson_residual,
    sigma_star,
    u_poly,
)
from .opseq import BlockView, OPSequence, Recurrence, delta_det, ops_from_recurrence, orthogonality_check, recurrence_from_moments
from .mapping import MappingData, build_mapping, check_conditions, lift_functional, lift_power, verify_interleave
from .stieltjes import (
    ACDTriple,
    LaurentSeries,
    acd_from_pearson,
    acd_mapped,
    series_from_functional,
    stieltjes_residual,
    verify_susvq,
)
from .classifier import ClassReport, ascend_pearson, class_bounds_check, class_from_acd, classify, descend_pearson, phi_psi_from_acd, reduce_acd
from .families import little_q_jacobi_acd, little_q_jacobi_pair, little_q_laguerre_acd, little_q_laguerre_pair

__version__ = "0.1.0"
