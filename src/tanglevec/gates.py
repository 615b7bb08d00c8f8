"""Gate steps and the tensor engine that applies them.

A gate step is one of

    LocalStep(qubit, theta)   ->  exp(1/2 sum_n theta_n i sigma_n) on the qubit
    CouplingStep(pair, theta) ->  exp(1/2 sum_nm theta_nm i sigma_n sigma_m) on the pair
    PhaseStep(alpha)          ->  exp(i alpha) * identity

and a sequence is a plain list applied left to right (first element acts
first). Operator products written right-to-left on paper therefore list in
reverse here. A step acts on the (2, 2, 2) amplitude tensor by contracting
its 2x2 or (2,2,2,2) factor with the qubit axes it touches; no 8x8 matrix
is built. The 8x8 unitaries are the same contraction applied to the
identity. Single-qubit exponentials use the closed Euler form; the 4x4
coupling exponential goes through an eigendecomposition of its Hermitian
generator, with no series truncation anywhere.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, ParseError, UnknownGate
from .states import EPS_NORM, QUBIT_AXIS, QUBITS, normalize

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
I2 = np.eye(2, dtype=complex)
#: kron(sigma_n, sigma_m) as a (3, 3, 4, 4) table
_SIGMA_PAIRS = np.einsum("nij,mkl->nmikjl", SIGMA, SIGMA).reshape(3, 3, 4, 4)

PAIRS = ("ab", "bc", "ac")


def _pair_qubits(pair: str) -> tuple[str, str]:
    if (isinstance(pair, str) and len(pair) == 2 and pair[0] in "abc"
            and pair[1] in "abc" and pair[0] != pair[1]):
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


def _act(step: GateStep, t: np.ndarray) -> np.ndarray:
    """Apply one step to a (2, 2, 2, ...) amplitude tensor; trailing axes are batch columns."""
    if isinstance(step, LocalStep):
        ax = QUBIT_AXIS[step.qubit]
        return np.moveaxis(np.tensordot(su2_rotation(step.theta), t, axes=(1, ax)), 0, ax)
    if isinstance(step, CouplingStep):
        q1, q2 = _pair_qubits(step.pair)
        axes = (QUBIT_AXIS[q1], QUBIT_AXIS[q2])
        u4 = expi_hermitian(0.5 * np.tensordot(step.theta, _SIGMA_PAIRS, axes=2))
        out = np.tensordot(u4.reshape(2, 2, 2, 2), t, axes=((2, 3), axes))
        return np.moveaxis(out, (0, 1), axes)
    if isinstance(step, PhaseStep):
        return np.exp(1j * step.alpha) * t
    raise TypeError(f"not a gate step: {step!r}")


def sequence_unitary(seq) -> np.ndarray:
    """Product of the step unitaries, first step rightmost."""
    t = np.eye(8, dtype=complex).reshape(2, 2, 2, 8)
    for step in seq:
        t = _act(step, t)
    return t.reshape(8, 8)


def step_unitary(step: GateStep) -> np.ndarray:
    return sequence_unitary([step])


def local_unitary(qubit: str, theta) -> np.ndarray:
    """8x8 unitary of a single-qubit rotation."""
    return step_unitary(LocalStep(qubit, theta))


def coupling_unitary(pair: str, theta) -> np.ndarray:
    """8x8 unitary of exp(1/2 sum theta_nm i sigma_n^{(p1)} sigma_m^{(p2)})."""
    return step_unitary(CouplingStep(pair, theta))


def apply(seq, s) -> np.ndarray:
    """Apply the steps in order to a normalized state.

    Raises InvariantViolation when the result is not of unit norm (a
    non-finite angle or amplitude, since the steps are unitary).
    """
    t = normalize(s).reshape(2, 2, 2)
    for step in seq:
        t = _act(step, t)
    out = t.reshape(8)
    n = np.linalg.norm(out)
    if not abs(n - 1.0) <= 1e3 * EPS_NORM:
        raise InvariantViolation(f"norm {n} after applying the sequence")
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
        if not all(math.isfinite(x) for x in params):
            raise ParseError(f"step {k}: parameters must be finite")
        if kind == "local":
            if len(params) != 3:
                raise ParseError(f"step {k}: local steps take 3 angles")
            if item.get("target") not in QUBITS:
                raise ParseError(f"step {k}: bad qubit {item.get('target')!r}")
            seq.append(LocalStep(item["target"], tuple(params)))
        elif kind == "coupling":
            if len(params) != 9:
                raise ParseError(f"step {k}: coupling steps take 9 coefficients")
            _pair_qubits(item.get("target"))
            seq.append(CouplingStep(item["target"], np.array(params).reshape(3, 3)))
        elif kind == "phase":
            if len(params) != 1:
                raise ParseError(f"step {k}: phase steps take 1 angle")
            seq.append(PhaseStep(params[0]))
        else:
            raise ParseError(f"step {k}: unknown kind {kind!r}")
    return seq
