"""Privacy calibration, certification, and private estimation for quantum channels."""

from .channels import (
    QuantumChannel,
    apply,
    compose,
    depolarizing,
    fit_depolarizing,
    identity_channel,
    pauli_measurement_channel,
    random_channel,
    replacement_channel,
    twirl,
    unitary_conjugate,
)
from .errors import (
    ChannelParseError,
    DegenerateObservableError,
    InfeasibleError,
    InvalidInputError,
    NoninvertibleError,
    OutOfRegimeError,
    QldpError,
)
from .estimate import (
    AccuracyDemand,
    QhtBounds,
    QhtReduction,
    build_qht_reduction,
    fidelity_lower_bound,
    measurement_operator_protocol,
    qht_sample_bounds,
    required_samples_lower,
    required_samples_upper,
    threshold_test,
)
from .pauli import (
    PauliDecomposition,
    decompose,
    enumerate_cliffords,
    from_coeffs,
    pauli_matrix,
)
from .privacy import (
    CertificationResult,
    PrivacyBudget,
    SearchConfig,
    certify_qldp,
    depolarizing_privacy_profile,
    optimal_depolarizing_p,
)
from .qops import (
    fidelity,
    hockey_stick,
    positive_part,
    random_density,
    random_pure,
    trace_distance,
)
from .shadows import (
    effective_depolarizing_q,
    private_shadow_p_hat,
    shadow_required_samples,
)
from .utility import (
    UtilityReport,
    optimal_fidelity_utility,
    optimal_trace_utility,
    utility_curve,
    utility_report,
)

__version__ = "0.1.0"
