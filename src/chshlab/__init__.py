"""CHSH correlation bounds and coincidence-counting simulation."""

from .chsh import (
    CIRELSON_LIMIT,
    CLASSICAL_LIMIT,
    CoincidenceProbabilities,
    Observable,
    QuantumBounds,
    SettingsQuartet,
    analyzer_angle,
    bell_operator,
    classical_bound,
    classical_s_values,
    coincidence_probabilities,
    correlation,
    family_extremum,
    haar_sample_s,
    observable,
    quantum_bounds,
    s_closed_form,
    s_parameter,
    settings_quartet,
    state_phi,
    theta_param,
    xi_param,
)
from .expsim import (
    CountsRecord,
    NoiseModel,
    SEstimate,
    estimate_s,
    setting_probabilities,
)
from .linalg import (
    PAULI_X,
    PAULI_Z,
    expectation,
    herm_eigensystem,
    herm_eigenvalues,
    tensor,
)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"
