"""Exact q-Euler numbers and polynomials, their alternating power-sum
identities, and the associated q-zeta and q-L functions.

Identity-level values are exact rationals (``fractions.Fraction``); real
and complex evaluations carry a certified decimal precision.
"""

from .errors import DomainError, NonConvergence, NotExactPower
from .exactnum import (DEFAULT_PRECISION, ComplexP, RealP, format_rational,
                       parse_rational, rat_pow, tolerance)
from .classical import (alt_power_sum, alt_power_sum_closed, bernoulli_number,
                        euler_number, euler_poly, power_sum, power_sum_closed)
from .qnumbers import (QBase, QPower, alt_q_power_sum, alt_q_power_sum_closed,
                       distribution_sum, partial_zeta_special_value,
                       q_euler_number, q_euler_poly, q_euler_poly_via_numbers,
                       q_euler_star_number, q_euler_star_poly, q_int,
                       weighted_alt_q_power_sum,
                       weighted_alt_q_power_sum_closed)
from .qzeta import ZetaQuery, l_function, partial_zeta, zeta
from .cvz import zeta_euler_transform
from .characters import (DirichletCharacter, character, characters_mod,
                         generalized_q_euler)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "NonConvergence", "NotExactPower",
    "DEFAULT_PRECISION", "ComplexP", "RealP", "format_rational",
    "parse_rational", "rat_pow", "tolerance",
    "alt_power_sum", "alt_power_sum_closed", "bernoulli_number",
    "euler_number", "euler_poly", "power_sum", "power_sum_closed",
    "QBase", "QPower", "alt_q_power_sum", "alt_q_power_sum_closed",
    "distribution_sum", "q_euler_number", "q_euler_poly",
    "q_euler_poly_via_numbers", "q_euler_star_number", "q_euler_star_poly",
    "q_int", "weighted_alt_q_power_sum", "weighted_alt_q_power_sum_closed",
    "ZetaQuery", "partial_zeta", "partial_zeta_special_value", "zeta",
    "zeta_euler_transform",
    "DirichletCharacter", "character", "characters_mod",
    "generalized_q_euler",
    "l_function",
]
