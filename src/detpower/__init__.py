"""detpower: discrimination power of a quantum detector.

Given a fixed POVM, compute its single-shot minimum error probability, its
asymptotic Chernoff / Stein / Hoeffding error exponents over all input state
pairs, exact finite-n error probabilities, adaptive feedback protocols, and
the closed-form benchmark detectors (covariant qubit POVM, noisy
Stern-Gerlach, commuting qubit POVMs).
"""

from .adaptive import AdaptiveStrategy, JointState, conditional_state, evaluate_strategy, optimal_adaptive
from .channel import (
    ClassicalDistribution,
    ExponentValue,
    chernoff_exponent,
    golden_section_min,
    hoeffding_exponent,
    induced_distribution,
    induced_probs,
    phi,
    relative_entropy,
)
from .closed_forms import (
    CovariantDiscretization,
    MixingBounds,
    c_functional,
    commuting_gamma,
    commuting_zeta,
    covariant_c_s,
    covariant_zeta_numeric,
    equivalent_sg_purity,
    fibonacci_covariant_discretization,
    hoeffding_mixing_upper,
    mixed_povm,
    mixing_bounds,
    noisy_sg_povm,
    noisy_sg_zeta,
    stein_mixing_bounds,
)
from .core import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochVector,
    DensityMatrix,
    GroupingMask,
    Povm,
    ValidationReport,
    bloch_to_density,
    eig_hermitian,
    joint_eigenbasis,
    sequence_operator,
    validate_povm,
)
from .errors import DetpowerError, DomainError, ParseError, ResourceError, StructuralError
from .finite import (
    ProductInput,
    SequenceDistribution,
    best_product_pair,
    brute_force_grouping,
    empirical_rate,
    iid_ml_log_error,
    ml_error_probability,
    sequence_distribution,
    sweep_x,
)
from .optimize import (
    PowerReport,
    SearchOptions,
    StatePair,
    optimize_state_pair,
    single_shot_power,
    zeta_chernoff,
    zeta_hoeffding,
    zeta_stein,
)

__version__ = "0.1.0"
