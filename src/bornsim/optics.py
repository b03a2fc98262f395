"""Linear-optics transformations of coherent-plus-vacuum states.

Gates are plain complex ndarrays. A circuit maps the state direction psi to
U psi while the coherent amplitude is unchanged; vacuum noise is redrawn
after the transform because a unitary maps iid standard complex Gaussians to
iid standard complex Gaussians; that transform of a state is the test oracle
apply in tests/oracles.py. Four-mode circuits order the tensor factors
(spatial x polarization) with basis [RH, RV, DH, DV].
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import BornsimError


def gate_hadamard() -> np.ndarray:
    """50/50 beam splitter, (1/sqrt2) [[1, 1], [1, -1]]."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def gate_phase(phi: float) -> np.ndarray:
    """Phase shifter diag(1, e^{i phi})."""
    if not np.isfinite(phi):
        raise BornsimError("phi must be finite")
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * float(phi))]], dtype=complex)


def gate_x() -> np.ndarray:
    """Mode swap (half-wave plate at 45 degrees)."""
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def gate_cnot() -> np.ndarray:
    """Controlled NOT with the first tensor factor (spatial mode) as control."""
    c = np.eye(4, dtype=complex)
    c[[2, 3]] = c[[3, 2]]
    return c


# ---------------------------------------------------------------------------
# Circuit description files
# ---------------------------------------------------------------------------

# name -> (wire counts it allows, None for any; params keys; builder (phi, n_wires) -> matrix)
_GATES = {
    "hadamard": ((2,), (), lambda phi, k: gate_hadamard()),
    "x": ((2,), (), lambda phi, k: gate_x()),
    "phase": ((1, 2), ("phi",), lambda phi, k: gate_phase(phi)[2 - k:, 2 - k:]),
    "cnot": ((4,), (), lambda phi, k: gate_cnot()),
    "identity": (None, (), lambda phi, k: np.eye(k, dtype=complex)),
}


def _gate_entry(n: int, entry) -> tuple[np.ndarray, list[int]]:
    """Check entry n of a circuit description; return its gate matrix and wires."""
    if not isinstance(entry, dict) or "gate" not in entry:
        raise BornsimError(f"entry {n} must be an object with a 'gate' field")
    name, wires, params = entry["gate"], entry.get("wires", []), entry.get("params", {})
    if not isinstance(name, str) or name not in _GATES:
        raise BornsimError(f"entry {n}: unknown gate {name!r}")
    unknown = [k for k in entry if k not in ("gate", "wires", "params")]
    if unknown:
        raise BornsimError(f"entry {n}: unknown key {unknown[0]!r}")
    # exactly int or float, so no bool; a JSON integer beyond every float fails the comparison
    if (not isinstance(wires, list) or any(type(w) is not int or w < 0 for w in wires)
            or len(set(wires)) != len(wires)):
        raise BornsimError(f"entry {n}: wires must be a list of distinct nonnegative "
                           f"integers (got {wires!r})")
    if max(wires, default=-1) >= 4:
        raise BornsimError(f"entry {n}: wire {max(wires)} out of range for d = 4")
    counts, takes, build = _GATES[name]
    if counts is not None and len(wires) not in counts:
        raise BornsimError(f"entry {n}: {name} takes {' or '.join(map(str, counts))} "
                           f"wires, got {len(wires)}")
    phi = params.get("phi", 0.0) if isinstance(params, dict) else None
    if type(phi) not in (int, float) or not abs(phi) <= sys.float_info.max:
        raise BornsimError(f"entry {n}: params must be an object whose phi is a finite "
                           f"number (got {params!r})")
    unknown = [k for k in params if k not in takes]
    if unknown:
        raise BornsimError(f"entry {n}: {name} takes no parameter {unknown[0]!r}")
    return build(float(phi), len(wires)), wires


def circuit_unitary(spec: list[dict]) -> np.ndarray:
    """Compose an ordered gate list [{gate, params, wires}, ...] into one 4 x 4 unitary.

    Gates apply in list order (first entry acts first), each on its distinct
    mode indices ``wires`` (0 to 3) in the order given, as many as ``_GATES``
    allows. Only ``phase`` takes ``params``: ``phi`` (default 0), put as
    e^{i phi} on its last wire. An unknown key or a malformed entry raises
    BornsimError.
    """
    if not isinstance(spec, list):
        raise BornsimError("circuit description must be a list of gate entries")
    gates = [_gate_entry(n, entry) for n, entry in enumerate(spec)]
    total = np.eye(4, dtype=complex)
    for gate, wires in gates:
        step = np.eye(4, dtype=complex)
        step[np.ix_(wires, wires)] = gate
        total = step @ total
    return total


def circuit_from_json(path: str | Path) -> np.ndarray:
    """Load a circuit description file (JSON list of {gate, params, wires})."""
    try:
        spec = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or a >4300-digit int
        raise BornsimError(f"cannot read circuit file {path}: {exc}") from exc
    return circuit_unitary(spec)
