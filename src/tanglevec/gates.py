"""Gate steps and the tensor engine that applies them.

A gate step is one of

    LocalStep(qubit, theta)   ->  exp(1/2 sum_n theta_n i sigma_n) on the qubit
    CouplingStep(pair, theta) ->  exp(1/2 sum_nm theta_nm i sigma_n sigma_m) on the pair
    PhaseStep(alpha)          ->  exp(i alpha) * identity

and a sequence is a plain list applied left to right (first element acts
first). Operator products written right-to-left on paper therefore list in
reverse here.

Each step is checked once, when it is built: a bad qubit or pair, or
parameters that are not 3, 9 or 1 real numbers with a finite Euclidean norm,
raise ParseError there, and a built step cannot change. So the one walker,
_steps, only sorts a sequence for a gate picture, given the picture's key for
each qubit and layout of the ordered pairs; so6's dual picture uses it too.
In this picture one contraction loop applies a sequence to an (8, R)
amplitude matrix whose R columns evolve independently: apply() uses one
column, and the 8x8 unitaries are the same evolution of the identity. A local
factor is the closed Euler form computed from scalars. All coupling factors
of the sequence come from one stacked eigendecomposition of their 4x4
Hermitian generators (expi_hermitian), so there is no series truncation
anywhere. Phases are summed into one scalar, reduced modulo 2 pi. Each factor
is contracted by one reshape and one matmul: (2**axis, 2, rest) for a local,
(2**first, 4, rest) for an adjacent pair, and the pair (a, c) after one
transpose that moves c next to a. A reversed pair such as "ba" is its forward
pair with theta transposed. No 8x8 matrix is built for a step.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InvariantViolation, NotRepresentable, ParseError, UnknownGate
from .states import EPS_NORM, QUBIT_AXIS, normalize

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


def _pair_qubits(pair: str) -> tuple[str, str]:
    if isinstance(pair, str) and pair in _PAIR_LAYOUT:   # the six ordered pairs
        return pair[0], pair[1]
    raise ParseError(f"bad qubit pair {pair!r}")


def _reals(values, n: int, what: str) -> tuple:
    """values as n floats with a finite Euclidean norm, else ParseError naming what.

    Each must be an int, a float or a numpy real scalar (numbers.Real, slow, goes last).
    """
    try:
        if not isinstance(values, str) and len(values) == n:
            out = tuple([float(v) for v in values if isinstance(v, (float, int, Real))])
            if len(out) == n and math.isfinite(math.hypot(*out)):
                return out
    except (TypeError, OverflowError):   # no len(), or an int beyond any float
        pass
    raise ParseError(f"{what}: expected {n} real number{'s' * (n > 1)} with a finite norm, "
                     f"got {values!r}")


@dataclass(frozen=True)
class LocalStep:
    """exp(1/2 sum_n theta_n i sigma_n) on the qubit a, b or c; theta is 3 floats."""

    qubit: str
    theta: tuple[float, float, float]

    kind = "local"

    def __post_init__(self):
        if not (isinstance(self.qubit, str) and self.qubit in QUBIT_AXIS):
            raise ParseError(f"bad qubit {self.qubit!r}")
        object.__setattr__(self, "theta", _reals(self.theta, 3, "local step angles"))


@dataclass(frozen=True, eq=False)
class CouplingStep:
    """exp(1/2 sum_nm theta_nm i sigma_n sigma_m) on an ordered pair; theta is a read-only copy.

    Either picture's factor is accurate to a few eps max(1, sum |theta_nm|),
    the rounding of theta itself (see expi_hermitian).
    """

    pair: str
    theta: np.ndarray  # 3x3 real coefficients of i/2 sigma_n sigma_m

    kind = "coupling"

    def __post_init__(self):
        _pair_qubits(self.pair)
        try:
            theta = np.asarray(self.theta)
        except ValueError:   # a ragged nesting
            theta = np.asarray(None)
        _reals(theta.ravel().tolist(), 9, "coupling coefficients")
        theta = theta.astype(float).reshape(3, 3)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class PhaseStep:
    alpha: float

    kind = "phase"

    def __post_init__(self):
        object.__setattr__(self, "alpha", _reals((self.alpha,), 1, "phase angle")[0])


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
    """Sort the steps of a sequence, each checked when it was built, for one gate picture.

    qubits maps each qubit to the picture's key for its locals (None for a
    qubit the picture ignores); pairs maps each ordered pair the picture
    carries to (key, theta transposed). Returns, in sequence order,
    (key, (t0, t1, t2, |t|)) for each local that rotates and (key, None) for
    each coupling; the couplings' (k, 3, 3) coefficients in the picture's
    layout; and the summed phase in [-pi, pi]. Raises NotRepresentable for a
    pair missing from pairs, and TypeError for anything that is not a step.
    """
    out, thetas = [], []
    phase = 0.0
    for k, step in enumerate(seq):
        if isinstance(step, LocalStep):
            key = qubits[step.qubit]
            t = math.hypot(*step.theta)
            if key is not None and t >= 1e-300:
                out.append((key, (*step.theta, t)))
        elif isinstance(step, CouplingStep):
            layout = pairs.get(step.pair)
            if layout is None:
                raise NotRepresentable(f"step {k}: coupling on {step.pair} involves the spectator")
            key, flip = layout
            out.append((key, None))
            thetas.append(step.theta.T if flip else step.theta)
        elif isinstance(step, PhaseStep):
            phase = math.remainder(phase + step.alpha, 2.0 * math.pi)
        else:
            raise TypeError(f"not a gate step: {step!r}")
    return out, np.array(thetas).reshape(-1, 3, 3), phase


def _evolve(seq, m: np.ndarray) -> np.ndarray:
    """Apply the steps to the (8, R) amplitude matrix m; its columns evolve independently.

    A local factor is built from scalars; all coupling factors come from one
    stacked exponential of their 4x4 generators, whose theta is halved before
    it is summed, so that no sum overflows.
    """
    steps, th, phase = _steps(seq, _LOCAL_LEAD, _PAIR_LAYOUT)
    if len(th):
        us = iter(expi_hermitian(((0.5 * th).reshape(-1, 9) @ _SIGMA_PAIRS).reshape(-1, 4, 4)))
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

    InvariantViolation if the result is not of unit norm: only a broken factor does that.
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
        return [
            LocalStep(location, (0.0, np.pi / 2, 0.0)),
            LocalStep(location, (0.0, 0.0, np.pi)),
            PhaseStep(-np.pi / 2),
        ]
    q1, q2 = _pair_qubits(location)
    if name in ("CZ", "CNOT"):
        # CNOT is CZ with the target's z axis turned to x
        z = name == "CZ"
        return [
            LocalStep(q1, (0.0, 0.0, -np.pi / 2)),
            LocalStep(q2, (0.0, 0.0, -np.pi / 2) if z else (-np.pi / 2, 0.0, 0.0)),
            coupling_axis_step(location, 3, 3 if z else 1, np.pi / 4),
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
    """Strict JSON wire form of a sequence (every step is finite); TypeError for a non-step."""
    items = []
    for step in seq:
        if isinstance(step, LocalStep):
            target, params = step.qubit, list(step.theta)
        elif isinstance(step, CouplingStep):
            target, params = step.pair, step.theta.ravel().tolist()
        elif isinstance(step, PhaseStep):
            target, params = "", [step.alpha]
        else:
            raise TypeError(f"not a gate step: {step!r}")
        items.append({"kind": step.kind, "target": target, "params": params})
    return json.dumps(items)


def sequence_from_json(text: str):
    """The steps of a wire form; ParseError, prefixed "step k" when a constructor refuses."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ParseError("a gate sequence is a JSON list of steps")
    seq = []
    for k, item in enumerate(doc):
        try:
            kind, params = item["kind"], item["params"]
            if kind == "phase":
                (params,) = params   # the wire form lists the one angle
        except (TypeError, KeyError, ValueError) as exc:
            raise ParseError(f"malformed step {k}: {exc}") from exc
        try:
            if kind == "local":
                seq.append(LocalStep(item.get("target"), params))
            elif kind == "coupling":
                seq.append(CouplingStep(item.get("target"), params))
            elif kind == "phase":
                seq.append(PhaseStep(params))
            else:
                raise ParseError(f"unknown kind {kind!r}")
        except ParseError as exc:
            raise ParseError(f"step {k}: {exc}") from None
    return seq
