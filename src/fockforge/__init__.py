"""fockforge: coherent-state identities and protocols, certified numerically
on truncated bosonic Fock spaces."""

from .config import DEFAULT_TOLERANCES, Tolerances, default_margin
from .fock import (
    Cutoff,
    CutoffWarning,
    Ket,
    Operator,
    PolarParam,
    adequate_cutoff,
    annihilation,
    dagger,
    expm,
    identity,
    number,
    poisson_tail,
    safe_indices,
    tensor,
    tensor_ket,
)
from .formulas import (
    check_J_rotation,
    check_K_rotation,
    check_SDS,
    check_SSS_commute,
    check_UJ_squeeze_invariance,
    check_phase_formula,
    check_squeeze_conjugation,
    squeeze_pair_exponent_coefficients,
)
from .lie import (
    LieTriple,
    SpinJ,
    SpinK,
    beamsplitter_UJ,
    schwinger_su2,
    schwinger_su11,
    single_mode_su11,
    su2_generators,
    su11_generators,
)
from .protocols import (
    TwoModeProtocolResult,
    apply_beamsplitter,
    full_swap,
    imperfect_clone,
    squeezed_swap_obstruction,
)
from .report import Report, make_report
from .states import (
    coherent,
    coherent_series,
    coherent_with_deficit,
    displacement,
    fidelity,
    occupation_expectations,
    perelomov_su2,
    perelomov_su11,
    phase_rotation,
    squeeze,
    su11_adequate_cutoff,
    vacuum,
)
from .universal_swap import (
    PermutationOperator,
    apply_swap,
    cnot_factorization,
    no_cloning_witness,
    swap_matrix,
)

__version__ = "0.1.0"
