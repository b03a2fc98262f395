import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from bornsim import (
    RngStream,
    circuit_from_json,
    circuit_unitary,
    gate_cnot,
    gate_hadamard,
    gate_phase,
    gate_x,
)
from bornsim.errors import BornsimError
from bornsim.optics import _GATES
from oracles import (
    CoherentVector,
    apply,
    detect_batch,
    haar_unitary,
    realize_batch,
    unitarity_defect,
)

E1_4 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def on_modes_01(gate: np.ndarray) -> np.ndarray:
    """A 2 x 2 gate on modes 0 and 1, as the four-mode unitary that circuits build."""
    u = np.eye(4, dtype=complex)
    u[:2, :2] = gate
    return u


def test_hadamard_involution():
    h = gate_hadamard()
    assert np.allclose(h @ h, np.eye(2), atol=1e-15)
    assert unitarity_defect(h) <= 1e-12


def test_hadamard_splits_amplitude():
    state = CoherentVector(0.6, np.array([1.0, 0.0]))
    out = apply(gate_hadamard(), state)
    assert out.mode_amplitudes() == pytest.approx(np.array([0.6, 0.6]) / np.sqrt(2.0), abs=1e-15)


def test_phase_gate_identities():
    assert np.allclose(gate_phase(0.0), np.eye(2), atol=1e-15)
    assert np.allclose(gate_phase(np.pi), np.diag([1.0, -1.0]), atol=1e-12)
    phi = 0.77
    assert np.allclose(gate_phase(phi) @ gate_phase(-phi), np.eye(2), atol=1e-15)


def test_x_and_cnot_and_kron():
    assert np.allclose(gate_x(), np.array([[0, 1], [1, 0]]), atol=0)
    c = gate_cnot()
    assert np.allclose(c @ c, np.eye(4), atol=0)


def test_bell_preparation_mean_amplitudes():
    u = gate_cnot() @ np.kron(gate_hadamard(), np.eye(2))
    alpha = 0.8
    out = apply(u, CoherentVector(alpha, E1_4))
    expected = alpha / np.sqrt(2.0) * np.array([1.0, 0.0, 0.0, 1.0])
    assert out.mode_amplitudes() == pytest.approx(expected, abs=1e-14)


def test_interferometer_mean_amplitudes():
    phi = 1.3
    h2 = np.kron(gate_hadamard(), np.eye(2))
    u = h2 @ np.kron(gate_phase(phi), np.eye(2)) @ h2
    out = u @ E1_4
    assert out[0] == pytest.approx(0.5 * (1 + np.exp(1j * phi)), abs=1e-14)
    assert out[2] == pytest.approx(0.5 * (1 - np.exp(1j * phi)), abs=1e-14)
    assert abs(out[1]) < 1e-14 and abs(out[3]) < 1e-14


def test_apply_identity_is_noop():
    state = CoherentVector(1.0 + 0.5j, np.array([0.6, 0.8]))
    out = apply(np.eye(2), state)
    assert out.alpha == state.alpha
    assert np.array_equal(out.psi, state.psi)


def test_apply_preserves_norm_and_alpha():
    rng = RngStream(1)
    u = haar_unitary(6, [rng])[0]
    psi = rng.complex_normals(6)
    psi /= np.linalg.norm(psi)
    out = apply(u, CoherentVector(2.0 - 1.0j, psi))
    assert abs(np.linalg.norm(out.psi) - 1.0) <= 1e-12
    assert out.alpha == 2.0 - 1.0j


def test_apply_dimension_mismatch():
    with pytest.raises(BornsimError, match=r"gate shape \(2, 2\) does not match d = 4"):
        apply(gate_hadamard(), CoherentVector(0.0, E1_4))


def test_gate_and_apply_domain_errors():
    with pytest.raises(BornsimError, match="phi must be finite"):
        gate_phase(math.nan)
    with pytest.raises(BornsimError, match="not normalizable"):
        apply(np.zeros((2, 2)), CoherentVector(1.0, np.array([1.0, 0.0])))


def test_haar_unitarity():
    for seed in range(5):
        u = haar_unitary(4, [RngStream(seed)])[0]
        assert unitarity_defect(u) <= 1e-10


def test_haar_rejects_zero_dim():
    with pytest.raises(BornsimError, match="needs d >= 1"):
        haar_unitary(0, [RngStream(0)])


def haar_reference(d, stream):
    # one matrix at a time: QR, then the R diagonal's phases folded into Q
    q, r = np.linalg.qr(stream.complex_normals((d, d)))
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


@pytest.mark.parametrize("d", [1, 2, 4])
def test_haar_stack_equals_per_stream_calls(d):
    rng = RngStream(8)
    stack = haar_unitary(d, [rng.substream(i) for i in range(6)])
    assert stack.shape == (6, d, d)
    for i in range(6):
        expected = haar_reference(d, rng.substream(i))
        assert np.array_equal(stack[i], expected)
        assert np.array_equal(haar_unitary(d, [rng.substream(i)])[0], expected)


def test_haar_single_mode_phase_uniform():
    n = 100_000
    rng = RngStream(6)
    angles = np.angle(haar_unitary(1, [rng.substream(i) for i in range(n)])[:, 0, 0])
    # uniform(-pi, pi]: mean 0 with sigma = pi/sqrt(3 n)
    assert abs(angles.mean()) < 5.0 * np.pi / np.sqrt(3.0 * n)
    assert np.histogram(angles, bins=8, range=(-np.pi, np.pi))[0].min() > 0


def test_haar_eigenvalue_angles_flat():
    # eigenvalue angles of Haar unitaries are uniform on the circle
    n, d, bins = 10_000, 4, 20
    rng = RngStream(7)
    angles = np.angle(np.linalg.eigvals(haar_unitary(d, [rng.substream(i) for i in range(n)])))
    hist, _ = np.histogram(angles, bins=bins, range=(-np.pi, np.pi))
    expected = angles.size / bins
    chi2 = float(np.sum((hist - expected) ** 2 / expected))
    # chi-square critical value at 1% for 19 dof
    assert chi2 < stats.chi2.ppf(0.99, bins - 1)


def test_fresh_noise_equivalent_to_propagated_noise():
    # outcome frequencies agree whether noise is redrawn after the circuit
    # or propagated through it
    n = 100_000
    g = 1.0
    u = gate_hadamard()
    state = CoherentVector(0.9, np.array([1.0, 0.0]))
    transformed = apply(u, state)
    weights = np.array([2, 1])
    fresh = detect_batch(realize_batch(transformed, n, RngStream(90)), g) @ weights
    prop = detect_batch(realize_batch(state, n, RngStream(91)) @ u.T, g) @ weights
    counts_fresh = np.bincount(fresh, minlength=4)
    counts_prop = np.bincount(prop, minlength=4)
    for k in range(4):
        p = counts_fresh[k] / n
        sigma = math.sqrt(max(2.0 * p * (1 - p) / n, 1e-12))
        assert abs(counts_fresh[k] - counts_prop[k]) / n < 5.0 * sigma


def test_circuit_unitary_bell():
    spec = [
        {"gate": "hadamard", "wires": [0, 2]},
        {"gate": "hadamard", "wires": [1, 3]},
        {"gate": "x", "wires": [2, 3]},
    ]
    expected = gate_cnot() @ np.kron(gate_hadamard(), np.eye(2))
    assert np.allclose(circuit_unitary(spec), expected, atol=1e-15)


def test_circuit_single_wire_phase():
    spec = [
        {"gate": "hadamard", "wires": [0, 1]},
        {"gate": "phase", "wires": [1], "params": {"phi": 0.9}},
        {"gate": "hadamard", "wires": [0, 1]},
    ]
    expected = on_modes_01(gate_hadamard() @ gate_phase(0.9) @ gate_hadamard())
    assert np.allclose(circuit_unitary(spec), expected, atol=1e-15)


def test_circuit_from_json_roundtrip(tmp_path):
    path = tmp_path / "circ.json"
    path.write_text(json.dumps([
        {"gate": "hadamard", "wires": [0, 1]},
        {"gate": "phase", "wires": [1], "params": {"phi": 0.25}},
    ]))
    u = circuit_from_json(path)
    expected = on_modes_01(np.diag([1.0, np.exp(0.25j)]) @ gate_hadamard())
    assert np.allclose(u, expected, atol=1e-15)


def test_circuit_every_gate():
    phi, psi = 0.9, -2.3
    spec = [
        {"gate": "hadamard", "wires": [0, 2]},
        {"gate": "phase", "wires": [1], "params": {"phi": phi}},
        {"gate": "phase", "wires": [3, 0], "params": {"phi": psi}},
        {"gate": "identity", "wires": [1, 3]},
        {"gate": "identity"},
        {"gate": "cnot", "wires": [0, 1, 2, 3]},
        {"gate": "x", "wires": [3, 1]},
    ]
    h02 = np.kron(gate_hadamard(), np.diag([1, 0])) + np.kron(np.eye(2), np.diag([0, 1]))
    swap13 = np.eye(4)[[0, 3, 2, 1]]
    expected = (swap13 @ gate_cnot() @ np.diag([np.exp(1j * psi), 1, 1, 1])
                @ np.diag([1, np.exp(1j * phi), 1, 1]) @ h02)
    assert np.allclose(circuit_unitary(spec), expected, atol=1e-15)
    assert np.array_equal(circuit_unitary([{"gate": "identity", "wires": [2]}]), np.eye(4))
    assert np.array_equal(circuit_unitary([{"gate": "identity"}]), np.eye(4))


def test_readme_gate_list_follows_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Gates: (.*?)\.\s", readme, flags=re.S).group(1)
    documented = dict(re.findall(r"`([a-z]+)` \(([^;)]*)", sentence))
    expected = {name: "any number of wires" if counts is None
                else " or ".join(map(str, counts)) + (" wire" if counts == (1,) else " wires")
                for name, (counts, *_) in _GATES.items()}
    assert documented == expected


def test_circuit_format_errors(tmp_path):
    bad_entries = [
        {"gate": "bogus", "wires": [0, 1]},
        {"gate": "hadamard", "wires": [0]},
        {"gate": "hadamard", "wires": [0, 0]},
        {"gate": "x", "wires": [0, 1], "params": 5},
        {"gate": "phase", "wires": [0], "params": {"phi": "abc"}},
        {"gate": "phase", "wires": [0], "params": {"phi": math.inf}},
        {"gate": "phase", "wires": [0], "params": {"phi": 10**400}},
        {"gate": "phase", "wires": [0], "params": {"phi": True}},
        {"gate": "x", "wires": ["a", 1]},
        {"gate": "x", "wires": 5},
        {"gate": "x", "wires": [1.5, 2]},
        {"gate": "x", "wires": [True, 2]},
        {"gate": "x", "wires": [-1, 2]},
        {"gate": ["x"], "wires": [0, 1]},
        "x",
        {"wires": [0, 1]},
    ]
    for entry in bad_entries:
        with pytest.raises(BornsimError, match="entry 1"):
            circuit_unitary([{"gate": "x", "wires": [0, 1]}, entry])
    # keys that neither an entry nor its gate takes
    unknown_keys = [
        ({"gate": "phase", "wires": [2], "params": {"Phi": 3.0}}, "Phi"),
        ({"gate": "identity", "wire": [5]}, "wire"),
        ({"gate": "hadamard", "wires": [0, 1], "params": {"phi": 0.3}}, "phi"),
        ({"gate": "cnot", "wires": [0, 1, 2, 3], "param": {}}, "param"),
    ]
    for entry, key in unknown_keys:
        with pytest.raises(BornsimError, match=f"entry 1: .*'{key}'"):
            circuit_unitary([{"gate": "x", "wires": [0, 1]}, entry])
    with pytest.raises(BornsimError, match="must be a list of gate entries"):
        circuit_unitary({"gate": "hadamard"})
    with pytest.raises(BornsimError, match="^entry 0: wire 4 out of range for d = 4$"):
        circuit_unitary([{"gate": "x", "wires": [0, 4]}])
    bad = tmp_path / "bad.json"
    # not JSON; an integer longer than Python's 4,300-digit conversion limit
    for text in ("{not json", '[{"gate": "x", "wires": [0, 1' + "0" * 5000 + "]}]"):
        bad.write_text(text)
        with pytest.raises(BornsimError, match="cannot read circuit file"):
            circuit_from_json(bad)


def test_constructed_gates_all_unitary():
    gates = [gate_hadamard(), gate_phase(0.3), gate_x(), gate_cnot(),
             _GATES["identity"][2](0.0, 3), np.kron(gate_hadamard(), gate_x())]
    for g in gates:
        assert unitarity_defect(g) <= 1e-12
