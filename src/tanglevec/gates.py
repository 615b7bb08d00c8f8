"""Gate steps and the tensor engine that applies them.

A gate step is one of

    LocalStep(qubit, theta)   ->  exp(1/2 sum_n theta_n i sigma_n) on the qubit
    CouplingStep(pair, theta) ->  exp(1/2 sum_nm theta_nm i sigma_n sigma_m) on the pair
    PhaseStep(alpha)          ->  exp(i alpha) * identity

and a sequence is a plain list applied left to right (first element acts
first). Operator products written right-to-left on paper therefore list in
reverse here.

One walker, _steps, checks every step of a sequence once and sorts it for a
gate picture; the picture passes only data (its key for each qubit and its
layout of the ordered pairs), and the dual picture in so6 uses the same
walker. In this picture one contraction loop applies a sequence to an (8, R)
amplitude matrix whose R columns evolve independently: apply() uses one
column, and the 8x8 unitaries are the same evolution of the identity. A local
factor is the closed Euler form computed from scalars. All coupling factors of
the sequence come from one stacked eigendecomposition of their 4x4 Hermitian
generators (expi_hermitian), so there is no series truncation anywhere. Phases
are summed into one scalar. Each factor is contracted by one reshape and one
matmul: (2**axis, 2, rest) for a local, (2**first, 4, rest) for an adjacent
pair, and the pair (a, c) after one transpose that moves c next to a. A
reversed pair such as "ba" is its forward pair with theta transposed. No 8x8
matrix is built for a step.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotRepresentable, ParseError, UnknownGate
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
    """exp(1/2 sum_nm theta_nm i sigma_n sigma_m) on the ordered pair.

    Either picture's factor is accurate to a few eps max(1, sum |theta_nm|),
    the rounding of theta itself (see expi_hermitian).
    """

    pair: str
    theta: np.ndarray  # 3x3 real coefficients of i/2 sigma_n sigma_m

    kind = "coupling"

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float).reshape(3, 3))


@dataclass(frozen=True)
class PhaseStep:
    alpha: float

    kind = "phase"


def _angles(theta, k: int) -> tuple[float, float, float, float]:
    """The three angles of local step k and their norm; a non-finite norm is refused."""
    t0, t1, t2 = theta
    t = math.hypot(t0, t1, t2)
    if not math.isfinite(t):
        raise InvariantViolation(f"step {k}: non-finite rotation angles {tuple(theta)}")
    return t0, t1, t2, t


def expi_hermitian(h) -> np.ndarray:
    """exp(i h) for Hermitian h, batched over any leading axes.

    It is accurate to a few eps max(1, |h|) in absolute terms: eigh rounds the
    eigenvalues w by about eps |h|, and exp(i w) keeps that error. This is the
    rounding of h itself, the input's conditioning, not a loss in the method.
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


#: contraction layout of a qubit: the size of the leading block of the
#: (8, R) amplitude matrix before its axis
_LOCAL_LEAD = {"a": 1, "b": 2, "c": 4}
#: ordered pair -> (leading block, theta transposed); block 0 marks the
#: non-adjacent pair (a, c), contracted after moving c next to a
_PAIR_LAYOUT = {"ab": (1, False), "ba": (1, True), "bc": (2, False),
                "cb": (2, True), "ac": (0, False), "ca": (0, True)}


def _steps(seq, qubits: dict, pairs: dict) -> tuple[list, np.ndarray, float]:
    """Check every step of a sequence once and sort it for one gate picture.

    qubits maps each qubit to the picture's key for its locals (None for a
    qubit the picture ignores); pairs maps each ordered pair the picture
    carries to (key, theta transposed). Returns, in sequence order,
    (key, (t0, t1, t2, |t|)) for each local that rotates and (key, None) for
    each coupling; the couplings' finite (k, 3, 3) coefficients in the
    picture's layout; and the summed phase. Raises ParseError for a malformed
    qubit or pair, NotRepresentable for a well-formed pair missing from
    pairs, InvariantViolation naming the step for a non-finite parameter, and
    TypeError for anything that is not a step.
    """
    out, thetas, where = [], [], []
    phase = 0.0
    for k, step in enumerate(seq):
        if isinstance(step, LocalStep):
            if step.qubit not in QUBITS:
                raise ParseError(f"step {k}: bad qubit {step.qubit!r}")
            angles = _angles(step.theta, k)
            key = qubits[step.qubit]
            if key is not None and angles[3] >= 1e-300:
                out.append((key, angles))
        elif isinstance(step, CouplingStep):
            layout = pairs.get(step.pair) if isinstance(step.pair, str) else None
            if layout is None:
                _pair_qubits(step.pair)   # raises ParseError for a malformed pair
                raise NotRepresentable(f"step {k}: coupling on {step.pair} involves the spectator")
            key, flip = layout
            out.append((key, None))
            thetas.append(step.theta.T if flip else step.theta)
            where.append(k)
        elif isinstance(step, PhaseStep):
            if not math.isfinite(step.alpha):
                raise InvariantViolation(f"step {k}: non-finite phase {step.alpha}")
            phase += step.alpha
        else:
            raise TypeError(f"not a gate step: {step!r}")
    th = np.array(thetas).reshape(-1, 3, 3)
    bad = ~np.isfinite(th).all(axis=(1, 2))
    if bad.any():
        raise InvariantViolation(f"step {where[int(bad.argmax())]}: non-finite coupling angles")
    return out, th, phase


def _evolve(seq, m: np.ndarray) -> np.ndarray:
    """Apply the steps to the (8, R) amplitude matrix m; its columns evolve independently.

    A local factor is built from scalars; all coupling factors come from one
    stacked exponential of their 4x4 generators.
    """
    steps, th, phase = _steps(seq, _LOCAL_LEAD, _PAIR_LAYOUT)
    if len(th):
        us = iter(expi_hermitian(0.5 * (th.reshape(-1, 9) @ _SIGMA_PAIRS).reshape(-1, 4, 4)))
    r = m.shape[1]
    for lead, angles in steps:
        if angles is None:
            u = next(us)
        else:
            t0, t1, t2, t = angles
            c, s = math.cos(t / 2), math.sin(t / 2) / t
            # cos(t/2) + i sin(t/2) (theta . sigma) / t
            u = np.array([[complex(c, s * t2), complex(s * t1, s * t0)],
                          [complex(-s * t1, s * t0), complex(c, -s * t2)]])
        if lead:
            m = (u @ m.reshape(lead, len(u), -1)).reshape(8, r)
        else:
            m = u @ m.reshape(2, 2, 2, r).transpose(0, 2, 1, 3).reshape(4, 2 * r)
            m = m.reshape(2, 2, 2, r).transpose(0, 2, 1, 3).reshape(8, r)
    return m * complex(math.cos(phase), math.sin(phase)) if phase else m


def sequence_unitary(seq) -> np.ndarray:
    """Product of the step unitaries, first step rightmost."""
    return _evolve(seq, np.eye(8, dtype=complex))


def local_unitary(qubit: str, theta) -> np.ndarray:
    """8x8 unitary of a single-qubit rotation."""
    return sequence_unitary([LocalStep(qubit, theta)])


def coupling_unitary(pair: str, theta) -> np.ndarray:
    """8x8 unitary of exp(1/2 sum theta_nm i sigma_n^{(p1)} sigma_m^{(p2)})."""
    return sequence_unitary([CouplingStep(pair, theta)])


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
    """exp(zeta i sigma_n sigma_m) on the pair; n, m in {1, 2, 3}, else ParseError."""
    if n not in (1, 2, 3) or m not in (1, 2, 3):
        raise ParseError(f"coupling axes must be 1, 2 or 3, got {n!r}, {m!r}")
    th = np.zeros((3, 3))
    th[int(n) - 1, int(m) - 1] = 2.0 * zeta
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
    """The wire form of a sequence; a step that apply() would refuse is refused here."""
    _steps(seq, _LOCAL_LEAD, _PAIR_LAYOUT)
    items = []
    for step in seq:
        if isinstance(step, LocalStep):
            items.append({"kind": "local", "target": step.qubit,
                          "params": [float(x) for x in step.theta]})
        elif isinstance(step, CouplingStep):
            items.append({"kind": "coupling", "target": step.pair,
                          "params": [float(x) for x in step.theta.ravel()]})
        else:
            items.append({"kind": "phase", "target": "", "params": [float(step.alpha)]})
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
            seq.append(LocalStep(item.get("target"), tuple(params)))
        elif kind == "coupling":
            if len(params) != 9:
                raise ParseError(f"step {k}: coupling steps take 9 coefficients")
            seq.append(CouplingStep(item.get("target"), np.array(params).reshape(3, 3)))
        elif kind == "phase":
            if len(params) != 1:
                raise ParseError(f"step {k}: phase steps take 1 angle")
            seq.append(PhaseStep(params[0]))
        else:
            raise ParseError(f"step {k}: unknown kind {kind!r}")
    _steps(seq, _LOCAL_LEAD, _PAIR_LAYOUT)   # qubits and pairs
    return seq
