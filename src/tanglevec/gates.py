"""Gate steps and the tensor engine that applies them.

A gate step is one of

    LocalStep(qubit, theta)   ->  exp(1/2 sum_n theta_n i sigma_n) on the qubit
    CouplingStep(pair, theta) ->  exp(1/2 sum_nm theta_nm i sigma_n sigma_m) on the pair
    PhaseStep(alpha)          ->  exp(i alpha) * identity

and a sequence is a plain list applied left to right (first element acts
first). Operator products written right-to-left on paper therefore list in
reverse here.

Each step is checked once, when it is built: a bad qubit or pair (states._named),
parameters that fail states._reals (3, 9 given flat or 3x3, or 1 finite real
numbers), or local or coupling parameters whose Euclidean norm overflows the
walker's hypot raise ParseError there. A built step cannot change, so one
walker, _steps, serves both gate pictures (so6's dual picture too): given the
picture's key for each qubit, its layout of the ordered pairs and its two
factor formulas, it sorts a sequence and hands back each step's factor in
that picture. A step keeps each factor, read-only, on itself, so a step
applied again skips the SVD and the trigonometry. A coupling with
one nonzero theta_nm = 2 zeta is born with its 4x4 unitary, cos zeta +
i sin zeta sigma_n sigma_m in closed form (_term_unitary); the walker makes
every other factor the first time its picture applies the step. Once both
pictures have used it, a coupling keeps about 0.8 KB (its 4x4 unitary here
and its 6x6 rotation in the dual picture) and a local about 0.4 KB; the
factors live and die with their step. The designers (synthesis,
quaternionic) build their steps unchecked through _designed.
Each picture keeps only its factor formulas and its contraction loop. Here
one loop applies a sequence to an (8, R) amplitude matrix whose R columns
evolve independently: apply() uses one column, and the 8x8 unitaries are the
same evolution of the identity. A local factor is the closed Euler form
computed from scalars (_su2). The coupling factors that a sequence still
lacks come from one stacked SVD theta = U diag(d) V^T (_svd), in one closed
form per picture (_pair_unitaries here): no gate step takes an
eigendecomposition. A theta of any size, also |theta| >= 1e16, is computed,
not refused: both pictures apply the exact image of the same U diag(d) V^T,
within a few eps |theta| of theta (the SVD's backward error), so they agree
at any scale; one-term, diagonal and permuted-diagonal theta are exact.
Phases are summed into one scalar, reduced modulo 2 pi. Each factor is
contracted by one reshape and one matmul: (2**axis, 2, rest) for a local,
(2**first, 4, rest) for an adjacent pair, and the pair (a, c) after one
transpose that moves c next to a. A reversed pair such as "ba" is its forward
pair with theta transposed. No 8x8 matrix is built for a step.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, NotRepresentable, ParseError, UnknownGate
from .states import EPS_NORM, QUBIT_AXIS, _named, _reals, normalize

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


@dataclass(frozen=True)
class LocalStep:
    """exp(1/2 sum_n theta_n i sigma_n) on the qubit a, b or c; theta is 3 floats.

    Its 2x2 unitary and its 3x3 dual rotation are made on each picture's
    first use of the step and kept, read-only: about 0.4 KB with both.
    """

    qubit: str
    theta: tuple[float, float, float]
    _unitary: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _rotation: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    kind = "local"

    def __post_init__(self):
        _named(QUBIT_AXIS, self.qubit, "qubit")
        theta = _reals(self.theta, 3, "local step angles")
        if not math.isfinite(math.hypot(*theta)):
            raise ParseError(f"local step angles need a finite norm, got {self.theta!r}")
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True, eq=False)
class CouplingStep:
    """exp(1/2 sum_nm theta_nm i sigma_n sigma_m) on an ordered pair; theta is a read-only copy.

    With exactly one nonzero coefficient theta_nm = 2 zeta, the step is born
    with its 4x4 unitary cos zeta + i sin zeta sigma_n sigma_m in closed form
    (_term_unitary), accurate to a few eps at any finite zeta; the rule reads
    only theta, so every route that builds the step gives the same factor.
    Every other factor, and every 6x6 dual rotation, is made on its picture's
    first use of the step, in closed form from the SVD theta = U diag(d) V^T.
    A theta of any size is computed, not refused: both pictures give the
    exact image of the same U diag(d) V^T, within a few eps |theta| of theta,
    so they agree at any scale; one-term, diagonal and permuted-diagonal
    theta are exact. The factors are kept, read-only: about 0.8 KB with both.
    """

    pair: str
    theta: np.ndarray  # 3x3 real coefficients of i/2 sigma_n sigma_m
    _unitary: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _rotation: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    kind = "coupling"

    def __post_init__(self):
        _named(_PAIR_LAYOUT, self.pair, "qubit pair")   # the six ordered pairs
        try:
            theta = np.asarray(self.theta)
        except ValueError:   # a ragged nesting
            theta = np.asarray(None)
        if theta.shape not in ((9,), (3, 3)):
            raise ParseError(f"coupling coefficients: expected 9 real numbers, flat or 3x3,"
                             f" got {self.theta!r}")
        values = _reals(theta.ravel().tolist(), 9, "coupling coefficients")
        if not math.isfinite(math.hypot(*values)):
            raise ParseError(f"coupling coefficients need a finite norm, got {self.theta!r}")
        theta = theta.astype(float).reshape(3, 3)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        terms = [k for k, t in enumerate(values) if t]
        if len(terms) == 1:   # one term: born with its closed-form factor
            (k,) = terms
            _keep(self, "_unitary", _term_unitary(self.pair, *divmod(k, 3), values[k]))


@dataclass(frozen=True)
class PhaseStep:
    alpha: float

    kind = "phase"

    def __post_init__(self):
        object.__setattr__(self, "alpha", _reals((self.alpha,), 1, "phase angle")[0])


#: contraction layout of a qubit: the size of the leading block of the
#: (8, R) amplitude matrix before its axis
_LOCAL_LEAD = {"a": 1, "b": 2, "c": 4}
#: ordered pair -> (leading block, theta transposed); block 0 marks the
#: non-adjacent pair (a, c), contracted after moving c next to a
_PAIR_LAYOUT = {"ab": (1, False), "ba": (1, True), "bc": (2, False),
                "cb": (2, True), "ac": (0, False), "ca": (0, True)}


def _steps(seq, qubits: dict, pairs: dict, factor: str, local, couplings) -> tuple[list, float]:
    """The factors of a sequence's steps, each checked when it was built, in one gate picture.

    qubits maps each qubit to the picture's key for its locals (None for a
    qubit the picture ignores); pairs maps each ordered pair the picture
    carries to (key, theta transposed); factor names the step attribute that
    keeps the picture's factor. A step that has none yet gets it here and
    keeps it, read-only: a local from local(t0, t1, t2), and the couplings,
    each once, from one couplings(u, d, v) call on one _svd of their stacked
    theta as the steps hold them (so both pictures apply the same coupling),
    u and v swapped for a transposed layout, each a copy of its own, so that
    no step pins the stack. Returns (key, factor), in sequence order, for each
    local that rotates and each coupling, and the summed phase in [-pi, pi].
    Raises NotRepresentable for a pair missing from pairs, and TypeError for
    anything that is not a step.
    """
    out, fresh = [], {}
    phase = 0.0
    for k, step in enumerate(seq):
        if isinstance(step, LocalStep):
            key = qubits[step.qubit]
            if key is not None and math.hypot(*step.theta) >= 1e-300:
                out.append((key, step))
        elif isinstance(step, CouplingStep):
            layout = pairs.get(step.pair)
            if layout is None:
                raise NotRepresentable(f"step {k}: coupling on {step.pair} involves the spectator")
            key, flip = layout
            out.append((key, step))
            if getattr(step, factor) is None:
                fresh[step] = flip   # a step hashes by identity
        elif isinstance(step, PhaseStep):
            phase = math.remainder(phase + step.alpha, 2.0 * math.pi)
        else:
            raise TypeError(f"not a gate step: {step!r}")
    if fresh:
        u, d, v = _svd(np.array([step.theta for step in fresh]))
        flip = np.array(list(fresh.values()))[:, None, None]   # theta^T = v diag(d) u^T
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        for step, f in zip(fresh, couplings(u, d, v)):
            _keep(step, factor, f.copy())
    for k, (key, step) in enumerate(out):
        u = getattr(step, factor)
        out[k] = key, u if u is not None else _keep(step, factor, local(*step.theta))
    return out, phase


def _keep(step, factor: str, u: np.ndarray) -> np.ndarray:
    """Keep u, made read-only, as the step's factor in the attribute factor; returns u."""
    u.setflags(write=False)
    object.__setattr__(step, factor, u)
    return u


def _su2(t0: float, t1: float, t2: float) -> np.ndarray:
    """The 2x2 unitary of a local's angles, of nonzero norm, from scalars."""
    t = math.hypot(t0, t1, t2)
    c, s = math.cos(t / 2), math.sin(t / 2) / t
    # cos(t/2) + i sin(t/2) (theta . sigma) / t
    return np.array([[complex(c, s * t2), complex(s * t1, s * t0)],
                     [complex(-s * t1, s * t0), complex(c, -s * t2)]])


def _term_unitary(pair: str, n: int, m: int, t: float) -> np.ndarray:
    """The 4x4 unitary of a coupling on pair whose one nonzero coefficient is theta_nm = t.

    n, m in {0, 1, 2}; a reversed pair takes the transposed entry on its
    forward pair. The closed form cos(t/2) + i sin(t/2) sigma_n sigma_m, from
    correctly reduced scalars, so it keeps its accuracy at any finite t.
    """
    if _PAIR_LAYOUT[pair][1]:
        n, m = m, n
    u = PAIR_PAULIS[6 + 3 * n + m] * complex(0.0, math.sin(0.5 * t))
    u.flat[::5] += math.cos(0.5 * t)
    return u


def _svd(th: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, d, v) with th = u diag(d) v^T and d >= 0, for stacked (k, 3, 3) th.

    Each th is first scaled by the power of two of its largest entry: exactly,
    where LAPACK's own rescaling is not.
    """
    _, e = np.frexp(np.abs(th).max(axis=(1, 2)))
    u, d, vt = np.linalg.svd(np.ldexp(th, -e[:, None, None]))
    return u, np.ldexp(d, e[:, None]), vt.swapaxes(1, 2)


def _pair_unitaries(u: np.ndarray, d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The 4x4 unitaries of stacked couplings theta = u diag(d) v^T.

    Each is prod_k (cos(d_k/2) + i sin(d_k/2) A_k), whose factors commute, with
    A_k = (u_k . sigma)(v_k . sigma) = sum_nm u_nk v_mk sigma_n sigma_m.
    """
    a = np.einsum("knl,kml->klnm", u, v).reshape(-1, 3, 9) @ _SIGMA_PAIRS
    f = 1j * np.sin(0.5 * d)[..., None] * a
    f[..., ::5] += np.cos(0.5 * d)[..., None]   # the identity's diagonal
    f = f.reshape(-1, 3, 4, 4)
    return f[:, 0] @ f[:, 1] @ f[:, 2]


def _evolve(seq, m: np.ndarray) -> np.ndarray:
    """Apply the steps to the (8, R) amplitude matrix m; its columns evolve independently."""
    steps, phase = _steps(seq, _LOCAL_LEAD, _PAIR_LAYOUT, "_unitary", _su2, _pair_unitaries)
    r = m.shape[1]
    for lead, u in steps:
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


#: coupling axis n in {1, 2, 3} -> its row (or column) of theta
_AXES = {1: 0, 2: 1, 3: 2}


def coupling_axis_step(pair: str, n: int, m: int, zeta: float) -> CouplingStep:
    """exp(zeta i sigma_n sigma_m) on the pair; n, m in {1, 2, 3}, zeta finite, else ParseError.

    For zeta != 0 the step is born with its 4x4 unitary in closed form.
    """
    th = np.zeros((3, 3))
    th[_named(_AXES, n, "axes entry"), _named(_AXES, m, "axes entry")] = \
        2.0 * _reals((zeta,), 1, "zeta")[0]
    return CouplingStep(pair, th)


def _designed(cls, *fields):
    """The step cls(*fields), unchecked, from finite Python floats a designer holds.

    A coupling takes coupling_axis_step's (pair, n, m, zeta) and is born with
    the factor its constructor would give it. Outside input goes through the
    constructors, which check it.
    """
    step = object.__new__(cls)
    if cls is PhaseStep:
        (vars(step)["alpha"],) = fields
        return step
    if cls is LocalStep:
        qubit, theta = fields
        vars(step).update(qubit=qubit, theta=theta, _unitary=None, _rotation=None)
        return step
    pair, n, m, zeta = fields
    theta = np.zeros((3, 3))
    theta[n - 1, m - 1] = t = 2.0 * zeta
    theta.flags.writeable = False
    vars(step).update(pair=pair, theta=theta, _unitary=None, _rotation=None)
    _keep(step, "_unitary", _term_unitary(pair, n - 1, m - 1, t))
    return step


def _controlled(pq: str, m: int) -> tuple:
    """CZ (m = 3), or CNOT (m = 1): CZ with the target's z axis turned to x."""
    coupling = coupling_axis_step(pq, 3, m, np.pi / 4)   # checks the pair before pq[1] is read
    return (LocalStep(pq[0], (0.0, 0.0, -np.pi / 2)),
            LocalStep(pq[1], (0.0, 0.0, -np.pi / 2) if m == 3 else (-np.pi / 2, 0.0, 0.0)),
            coupling, PhaseStep(np.pi / 4))


#: each named gate's steps, built from the gate's qubit or ordered pair
_GATES = {
    "H": lambda q: (LocalStep(q, (0.0, np.pi / 2, 0.0)), LocalStep(q, (0.0, 0.0, np.pi)),
                    PhaseStep(-np.pi / 2)),
    "CZ": lambda pq: _controlled(pq, 3),
    "CNOT": lambda pq: _controlled(pq, 1),
    "SWAP": lambda pq: (CouplingStep(pq, np.diag([np.pi, np.pi, np.pi]) / 2), PhaseStep(-np.pi / 4)),
}
#: named_gate's steps by (builder, location), each built on its first use; a
#: step cannot change, so every call shares them
_NAMED: dict = {}


def named_gate(name: str, location: str):
    """Factored sequences for H, CZ, CNOT and SWAP (in any case), global phases included.

    H needs a qubit name; the couplings need a pair such as "ab" (first
    letter is the control for CZ/CNOT). Each call returns a new list of
    steps that are built once. UnknownGate for another name, ParseError for
    a bad location.
    """
    build = _named(_GATES, name.upper() if isinstance(name, str) else name, "gate", UnknownGate)
    key = (build, location)
    steps = _NAMED.get(key) if isinstance(location, str) else None
    if steps is None:
        steps = _NAMED[key] = build(location)   # the steps refuse a bad location
    return list(steps)


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


#: the step type of each kind of the wire form
_KINDS = {"local": LocalStep, "coupling": CouplingStep, "phase": PhaseStep}


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
            step = _named(_KINDS, kind, "kind")
            seq.append(step(params) if step is PhaseStep else step(item.get("target"), params))
        except ParseError as exc:
            raise ParseError(f"step {k}: {exc}") from None
    return seq
