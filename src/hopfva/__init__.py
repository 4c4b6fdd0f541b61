"""hopfva: exact-arithmetic checks for Hopf actions on commutative vertex
algebras, with a Schur-Weyl decomposition layer and a reporting CLI."""

from .scalars import (
    Cyclotomic,
    Rational,
    cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    field_arithmetic,
    zeta,
)
from .linalg import Matrix, Subspace, solve, split_commutative_algebra
from .hopf import (
    FinHopfAlgebra,
    dual_hopf,
    group_algebra,
    group_likes,
    is_bialgebra_ideal,
    is_cocommutative,
    is_hopf_ideal,
    quotient_hopf,
    recognize_group_algebra,
    sweedler,
    verify_hopf_axioms,
)
from .vertexalg import (
    CommDiffVA,
    Poly,
    flip_skew_check,
    pi2_kernel,
    pin_injectivity_check,
    vandermonde_monomial_decision,
    verify_comm_va_axioms,
    z2_kernel,
)
from .action import (
    HopfAction,
    action_annihilator,
    annihilator,
    check_D_commute,
    check_thm_group_algebra,
    check_thm_kernel_bialgebra_ideal,
    fixed_subspace,
    inner_faithful_quotient,
    is_inner_faithful,
    maximal_hopf_ideal_in,
    tensor_power_faithfulness,
    trivial_action,
    verify_module_algebra,
    verify_module_vertex_algebra,
)
from .schurweyl import (
    CharacterTable,
    FinGroupRep,
    IrrepCharacter,
    check_commutant,
    cyclic_reachability,
    decompose,
    distinguish_isotypes,
    isotypic_projector,
    multiplicity_space,
    verify_character_table,
)

__version__ = "0.1.0"
