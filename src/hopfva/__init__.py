"""hopfva: exact-arithmetic checks for Hopf actions on commutative vertex
algebras, with a Schur-Weyl decomposition layer and a reporting CLI.

The names below are re-exported lazily (PEP 562): `hopfva.X` and
`from hopfva import X` import X's module on first use, so importing the
package, or one command of `hopfva.cli`, loads only the layers it needs.
"""

import importlib

# module -> the names the package re-exports from it
_EXPORTS = {
    "scalars": ("Cyclotomic", "Rational", "cyclotomic", "cyclotomic_polynomial", "euler_phi",
                "field_arithmetic", "zeta"),
    "linalg": ("Matrix", "Subspace", "solve", "split_commutative_algebra"),
    "hopf": ("FinHopfAlgebra", "dual_hopf", "group_algebra", "group_likes",
             "is_bialgebra_ideal", "is_cocommutative", "is_hopf_ideal", "quotient_hopf",
             "recognize_group_algebra", "sweedler", "verify_hopf_axioms"),
    "vertexalg": ("CommDiffVA", "Poly", "flip_skew_check", "pi2_kernel",
                  "pin_injectivity_check", "vandermonde_monomial_decision",
                  "verify_comm_va_axioms", "z2_kernel"),
    "action": ("HopfAction", "action_annihilator", "annihilator", "check_D_commute",
               "check_thm_group_algebra", "check_thm_kernel_bialgebra_ideal",
               "fixed_subspace", "inner_faithful_quotient", "is_inner_faithful",
               "maximal_hopf_ideal_in", "tensor_power_faithfulness", "trivial_action",
               "verify_module_algebra", "verify_module_vertex_algebra"),
    "schurweyl": ("CharacterTable", "FinGroupRep", "IrrepCharacter", "check_commutant",
                  "cyclic_reachability", "decompose", "distinguish_isotypes",
                  "isotypic_projector", "multiplicity_space", "verify_character_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
