"""bornsim: stochastic vacuum-field simulator with threshold photodetection."""

__version__ = "0.1.0"

from . import detection, experiments, field, optics, tomography  # noqa: F401

from .detection import (
    born_expansion,
    dark_count_prob,
    detect_prob,
    marcum_q1,
    visibility_dual,
    visibility_single,
)
from .field import RngStream
from .optics import (
    circuit_from_json,
    circuit_unitary,
    gate_cnot,
    gate_hadamard,
    gate_phase,
    gate_x,
    haar_unitary,
)
