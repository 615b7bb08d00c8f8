"""8x8 unitaries for local rotations, pair couplings, and global phases.

A gate step is one of

    LocalStep(qubit, theta)   ->  exp(1/2 sum_n theta_n i sigma_n) on the qubit
    CouplingStep(pair, theta) ->  exp(1/2 sum_nm theta_nm i sigma_n sigma_m) on the pair
    PhaseStep(alpha)          ->  exp(i alpha) * identity

and a sequence is a plain list applied left to right (first element acts
first). Operator products written right-to-left on paper therefore list in
reverse here. Single-qubit exponentials use the closed Euler form; the 4x4
coupling exponential goes through an eigendecomposition of its Hermitian
generator — no series truncation anywhere.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, UnknownGate
from .states import EPS_NORM, QUBIT_AXIS, normalize

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
I2 = np.eye(2, dtype=complex)

PAIRS = ("ab", "bc", "ac")


def _pair_qubits(pair: str) -> tuple[str, str]:
    if len(pair) == 2 and pair[0] in "abc" and pair[1] in "abc" and pair[0] != pair[1]:
        return pair[0], pair[1]
    raise ParseError(f"bad qubit pair {pair!r}")


@dataclass(frozen=True)
class LocalStep:
    qubit: str
    theta: tuple[float, float, float]

    kind = "local"


@dataclass(frozen=True, eq=False)
class CouplingStep:
    pair: str
    theta: np.ndarray  # 3x3 real coefficients of i/2 sigma_n sigma_m

    kind = "coupling"

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float).reshape(3, 3))


@dataclass(frozen=True)
class PhaseStep:
    alpha: float

    kind = "phase"


GateStep = LocalStep | CouplingStep | PhaseStep


def su2_rotation(theta) -> np.ndarray:
    """exp(1/2 sum theta_n i sigma_n) via the Euler formula."""
    th = np.asarray(theta, dtype=float)
    t = float(np.linalg.norm(th))
    if t < 1e-300:
        return I2.copy()
    nhat = th / t
    s = nhat[0] * SIGMA[0] + nhat[1] * SIGMA[1] + nhat[2] * SIGMA[2]
    return np.cos(t / 2) * I2 + 1j * np.sin(t / 2) * s


def expi_hermitian(h) -> np.ndarray:
    """exp(i h) for Hermitian h, batched over any leading axes."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _embed_one(u2: np.ndarray, qubit: str) -> np.ndarray:
    ops = [I2, I2, I2]
    ops[QUBIT_AXIS[qubit]] = u2
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


def _embed_pair(u4: np.ndarray, pair: str) -> np.ndarray:
    """Place a 4x4 operator on (pair[0], pair[1]); the third qubit gets identity."""
    q1, q2 = _pair_qubits(pair)
    a1, a2 = QUBIT_AXIS[q1], QUBIT_AXIS[q2]
    spect = 3 - a1 - a2
    t = u4.reshape(2, 2, 2, 2)  # (q1', q2', q1, q2)
    u8 = np.zeros((8, 8), dtype=complex)
    out_idx = [0, 0, 0]
    in_idx = [0, 0, 0]
    for x1 in range(2):
        for x2 in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    for z in range(2):
                        out_idx[a1], out_idx[a2], out_idx[spect] = x1, x2, z
                        in_idx[a1], in_idx[a2], in_idx[spect] = y1, y2, z
                        r = 4 * out_idx[0] + 2 * out_idx[1] + out_idx[2]
                        c = 4 * in_idx[0] + 2 * in_idx[1] + in_idx[2]
                        u8[r, c] = t[x1, x2, y1, y2]
    return u8


def local_unitary(qubit: str, theta) -> np.ndarray:
    """8x8 unitary of a single-qubit rotation."""
    return _embed_one(su2_rotation(theta), qubit)


def coupling_unitary(pair: str, theta) -> np.ndarray:
    """8x8 unitary of exp(1/2 sum theta_nm i sigma_n^{(p1)} sigma_m^{(p2)})."""
    th = np.asarray(theta, dtype=float).reshape(3, 3)
    gen = np.zeros((4, 4), dtype=complex)
    for n in range(3):
        for m in range(3):
            if th[n, m] != 0.0:
                gen += 0.5 * th[n, m] * np.kron(SIGMA[n], SIGMA[m])
    return _embed_pair(expi_hermitian(gen), pair)


def step_unitary(step: GateStep) -> np.ndarray:
    if isinstance(step, LocalStep):
        return local_unitary(step.qubit, step.theta)
    if isinstance(step, CouplingStep):
        return coupling_unitary(step.pair, step.theta)
    if isinstance(step, PhaseStep):
        return np.exp(1j * step.alpha) * np.eye(8, dtype=complex)
    raise TypeError(f"not a gate step: {step!r}")


def sequence_unitary(seq) -> np.ndarray:
    """Product of the step unitaries, first step rightmost."""
    u = np.eye(8, dtype=complex)
    for step in seq:
        u = step_unitary(step) @ u
    return u


def apply(seq, s) -> np.ndarray:
    """Apply the steps in order to a normalized state."""
    out = normalize(s)
    for step in seq:
        out = step_unitary(step) @ out
    n = np.linalg.norm(out)
    if abs(n - 1.0) > 1e3 * EPS_NORM:
        # unitarity guarantees this never trips for well-formed steps
        out = out / n
    return out


def coupling_axis_step(pair: str, n: int, m: int, zeta: float) -> CouplingStep:
    """exp(zeta i sigma_n sigma_m) on the pair; n, m in {1, 2, 3}."""
    th = np.zeros((3, 3))
    th[n - 1, m - 1] = 2.0 * zeta
    return CouplingStep(pair, th)


def named_gate(name: str, location: str):
    """Factored sequences for H, CZ, CNOT and SWAP, global phases included.

    H needs a qubit name; the couplings need a pair such as "ab" (first
    letter is the control for CZ/CNOT).
    """
    name = name.upper()
    if name == "H":
        q = location
        if q not in QUBIT_AXIS:
            raise ParseError(f"H needs a single qubit, got {location!r}")
        return [
            LocalStep(q, (0.0, np.pi / 2, 0.0)),
            LocalStep(q, (0.0, 0.0, np.pi)),
            PhaseStep(-np.pi / 2),
        ]
    q1, q2 = _pair_qubits(location)
    if name == "CZ":
        return [
            LocalStep(q1, (0.0, 0.0, -np.pi / 2)),
            LocalStep(q2, (0.0, 0.0, -np.pi / 2)),
            coupling_axis_step(location, 3, 3, np.pi / 4),
            PhaseStep(np.pi / 4),
        ]
    if name == "CNOT":
        return [
            LocalStep(q1, (0.0, 0.0, -np.pi / 2)),
            LocalStep(q2, (-np.pi / 2, 0.0, 0.0)),
            coupling_axis_step(location, 3, 1, np.pi / 4),
            PhaseStep(np.pi / 4),
        ]
    if name == "SWAP":
        return [
            CouplingStep(location, np.diag([np.pi, np.pi, np.pi]) / 2),
            PhaseStep(-np.pi / 4),
        ]
    raise UnknownGate(name)


# --- JSON wire format ------------------------------------------------------
# [{"kind": "local"|"coupling"|"phase", "target": "a".."ac", "params": [...]}]

def sequence_to_json(seq) -> str:
    items = []
    for step in seq:
        if isinstance(step, LocalStep):
            items.append({"kind": "local", "target": step.qubit,
                          "params": [float(x) for x in step.theta]})
        elif isinstance(step, CouplingStep):
            items.append({"kind": "coupling", "target": step.pair,
                          "params": [float(x) for x in step.theta.ravel()]})
        elif isinstance(step, PhaseStep):
            items.append({"kind": "phase", "target": "", "params": [float(step.alpha)]})
        else:
            raise TypeError(f"not a gate step: {step!r}")
    return json.dumps(items)


def sequence_from_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ParseError("a gate sequence is a JSON list of steps")
    seq = []
    for k, item in enumerate(doc):
        try:
            kind = item["kind"]
            params = [float(x) for x in item["params"]]
        except (TypeError, KeyError, ValueError) as exc:
            raise ParseError(f"malformed step {k}: {exc}") from exc
        if kind == "local":
            if len(params) != 3:
                raise ParseError(f"step {k}: local steps take 3 angles")
            if item.get("target") not in QUBIT_AXIS:
                raise ParseError(f"step {k}: bad qubit {item.get('target')!r}")
            seq.append(LocalStep(item["target"], tuple(params)))
        elif kind == "coupling":
            if len(params) != 9:
                raise ParseError(f"step {k}: coupling steps take 9 coefficients")
            seq.append(CouplingStep(item["target"], np.array(params).reshape(3, 3)))
        elif kind == "phase":
            if len(params) != 1:
                raise ParseError(f"step {k}: phase steps take 1 angle")
            seq.append(PhaseStep(params[0]))
        else:
            raise ParseError(f"step {k}: unknown kind {kind!r}")
    return seq
