"""bornsim: stochastic vacuum-field simulator with threshold photodetection."""

__version__ = "0.1.0"

from . import detection, experiments, field, optics, tomography  # noqa: F401

from .detection import (
    OutcomeDistribution,
    born_expansion,
    dark_count_prob,
    detect_batch,
    detect_prob,
    efficiency,
    marcum_q1,
    mode_crossing_probs,
    outcome_distribution,
    poisson_detection_prob,
    visibility_dual,
    visibility_single,
)
from .field import (
    CoherentVector,
    RngStream,
    mean_energy_density,
    realize_batch,
)
from .optics import (
    apply,
    circuit_from_json,
    circuit_unitary,
    gate_cnot,
    gate_hadamard,
    gate_identity,
    gate_phase,
    gate_x,
    haar_unitary,
)
