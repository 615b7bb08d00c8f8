"""Gate steps and the tensor engine that applies them.

A gate step is one of

    LocalStep(qubit, theta)   ->  exp(1/2 sum_n theta_n i sigma_n) on the qubit
    CouplingStep(pair, theta) ->  exp(1/2 sum_nm theta_nm i sigma_n sigma_m) on the pair
    PhaseStep(alpha)          ->  exp(i alpha) * identity

and a sequence is a plain list applied left to right (first element acts
first). Operator products written right-to-left on paper therefore list in
reverse here.

One engine applies a sequence to an (8, R) amplitude matrix whose R columns
evolve independently: apply() uses one column, and the 8x8 unitaries are the
same evolution of the identity. It first builds every step's factor. A local
factor is the closed Euler form computed from scalars. All coupling factors of
the sequence come from one stacked eigendecomposition of their 4x4 Hermitian
generators (expi_hermitian), so there is no series truncation anywhere. Phases
are summed into one scalar. Then each factor is contracted by one reshape and
one matmul: (2**axis, 2, rest) for a local, (2**first, 4, rest) for an
adjacent pair, and the pair (a, c) after one transpose that moves c next to a.
A reversed pair such as "ba" is its forward pair with theta transposed. No 8x8
matrix is built for a step.
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
_KRON = np.einsum("nij,mkl->nmikjl", (I2, *SIGMA), (I2, *SIGMA)).reshape(4, 4, 4, 4)
#: the 15 pair Paulis sigma_n x 1, 1 x sigma_n and sigma_n x sigma_m as one
#: read-only (15, 4, 4) table, in the order of so6.GENERATOR_LABELS
PAIR_PAULIS = np.concatenate([_KRON[1:, 0], _KRON[0, 1:], _KRON[1:, 1:].reshape(9, 4, 4)])
PAIR_PAULIS.flags.writeable = False
#: sigma_n x sigma_m as a (9, 16) view of the table, row 3(n-1) + m-1
_SIGMA_PAIRS = PAIR_PAULIS[6:].reshape(9, 16)

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


def _angles(theta, k: int) -> tuple[float, float, float, float]:
    """The three angles of local step k and their norm; a non-finite norm is refused."""
    t0, t1, t2 = theta
    t = math.hypot(t0, t1, t2)
    if not math.isfinite(t):
        raise InvariantViolation(f"step {k}: non-finite rotation angles {tuple(theta)}")
    return t0, t1, t2, t


def _coupling_thetas(thetas: list, steps: list) -> np.ndarray:
    """Stack the (3, 3) coupling coefficients; step steps[j] gave thetas[j]."""
    th = np.array(thetas)
    bad = ~np.isfinite(th).all(axis=(1, 2))
    if bad.any():
        raise InvariantViolation(f"step {steps[int(bad.argmax())]}: non-finite coupling angles")
    return th


def expi_hermitian(h) -> np.ndarray:
    """exp(i h) for Hermitian h, batched over any leading axes."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


#: contraction layout of a qubit: the size of the leading block of the
#: (8, R) amplitude matrix before its axis
_LOCAL_LEAD = {"a": 1, "b": 2, "c": 4}
#: ordered pair -> (leading block, theta transposed); block 0 marks the
#: non-adjacent pair (a, c), contracted after moving c next to a
_PAIR_LAYOUT = {"ab": (1, False), "ba": (1, True), "bc": (2, False),
                "cb": (2, True), "ac": (0, False), "ca": (0, True)}


def _factors(seq) -> tuple[list, float]:
    """Every step's factor, as (leading block, 2x2 or 4x4 unitary), and the summed phase.

    A local factor is built from scalars; all coupling factors come from one
    stacked exponential of their 4x4 generators. Zero rotations are dropped.
    """
    ops: list = []
    thetas, steps, slots = [], [], []
    phase = 0.0
    for k, step in enumerate(seq):
        if isinstance(step, LocalStep):
            lead = _LOCAL_LEAD.get(step.qubit)
            if lead is None:
                raise ParseError(f"step {k}: bad qubit {step.qubit!r}")
            t0, t1, t2, t = _angles(step.theta, k)
            if t < 1e-300:
                continue
            c, s = math.cos(t / 2), math.sin(t / 2) / t
            # cos(t/2) + i sin(t/2) (theta . sigma) / t
            ops.append((lead, np.array([[complex(c, s * t2), complex(s * t1, s * t0)],
                                        [complex(-s * t1, s * t0), complex(c, -s * t2)]])))
        elif isinstance(step, CouplingStep):
            layout = _PAIR_LAYOUT.get(step.pair) if isinstance(step.pair, str) else None
            if layout is None:
                _pair_qubits(step.pair)   # raises ParseError
            lead, flip = layout
            slots.append(len(ops))
            ops.append((lead, None))
            thetas.append(step.theta.T if flip else step.theta)
            steps.append(k)
        elif isinstance(step, PhaseStep):
            if not math.isfinite(step.alpha):
                raise InvariantViolation(f"step {k}: non-finite phase {step.alpha}")
            phase += step.alpha
        else:
            raise TypeError(f"not a gate step: {step!r}")
    if thetas:
        th = _coupling_thetas(thetas, steps)
        h = (th.reshape(len(th), 9) @ _SIGMA_PAIRS).reshape(-1, 4, 4)
        for slot, u in zip(slots, expi_hermitian(0.5 * h)):
            ops[slot] = (ops[slot][0], u)
    return ops, phase


def _evolve(seq, m: np.ndarray) -> np.ndarray:
    """Apply the steps to the (8, R) amplitude matrix m; its columns evolve independently."""
    ops, phase = _factors(seq)
    r = m.shape[1]
    for lead, u in ops:
        if lead:
            m = (u @ m.reshape(lead, len(u), -1)).reshape(8, r)
        else:
            m = u @ m.reshape(2, 2, 2, r).transpose(0, 2, 1, 3).reshape(4, 2 * r)
            m = m.reshape(2, 2, 2, r).transpose(0, 2, 1, 3).reshape(8, r)
    return m * complex(math.cos(phase), math.sin(phase)) if phase else m


def sequence_unitary(seq) -> np.ndarray:
    """Product of the step unitaries, first step rightmost."""
    return _evolve(seq, np.eye(8, dtype=complex))


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

    Raises InvariantViolation for a non-finite step parameter, and when the
    result is not of unit norm (a non-finite amplitude, since the steps are
    unitary).
    """
    out = _evolve(seq, normalize(s).reshape(8, 1)).reshape(8)
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
