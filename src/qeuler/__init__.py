"""Exact q-Euler numbers and polynomials, their alternating power-sum
identities, and the associated q-zeta and q-L functions.

Identity-level values are exact rationals (``fractions.Fraction``); real
and complex evaluations carry a certified decimal precision.

The exports are lazy (PEP 562): ``import qeuler`` loads no submodule, and
the first access to an exported name imports its home module (`_HOME`)
alone, so an exact computation never loads the numeric routes.  The
exported names are listed once, by home module (`_EXPORTS`), and
`__all__` follows that table.
"""

import importlib

#: The exported names, one entry per module that defines them.
_EXPORTS = (
    ("errors", "DomainError NonConvergence NotExactPower"),
    ("exactnum", "DEFAULT_PRECISION QBase format_rational parse_rational "
                 "rat_pow"),
    ("realnum", "ComplexP RealP tolerance"),
    ("classical", "alt_power_sum alt_power_sum_closed bernoulli_number "
                  "euler_number euler_poly power_sum power_sum_closed "
                  "q_euler_poly_via_numbers"),
    ("qnumbers", "QPower alt_q_power_sum alt_q_power_sum_closed "
                 "distribution_sum generalized_q_euler "
                 "partial_zeta_special_value q_euler_number q_euler_poly "
                 "q_euler_star_number q_euler_star_poly q_int "
                 "weighted_alt_q_power_sum weighted_alt_q_power_sum_closed"),
    ("qzeta", "ZetaQuery l_function partial_zeta zeta"),
    ("cvz", "zeta_euler_transform"),
    ("characters", "DirichletCharacter character characters_mod"),
)
_HOME = {name: module for module, names in _EXPORTS for name in names.split()}

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the home module of an exported name on its first access and
    keep the name in the package, so later accesses skip this hook; a home
    module's own name gives the module."""
    if name in _HOME.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
