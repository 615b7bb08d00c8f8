"""Quaternionic three-qubit states and their canonical reduction.

A state is quaternionic when its a(bc) matricization is a pair of real
quaternions (x, y) via the 2x2 representation q -> q0 I - i q.sigma (the
minus sign matches i*j = k with (-i sx)(-i sy) = -i sz):

    c000 = x0 + i x3   c100 =  i x1 + x2
    c001 = i x1 - x2   c101 = x0 - i x3      (same for y on the j=1 rows)

Normalization is x.x + y.y = 1/2. The subset is preserved by a 10-generator
subalgebra of the (b, c) pair algebra plus all locals on qubit a, and every
such state reduces by local operations to the three-term canonical form
e^{i pi/4} (-cos(xi)|000> + sin(xi)|010> + |111>)/sqrt(2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NotNormalized
from .gates import LocalStep, PhaseStep, apply
from .so6 import GENERATOR_LABELS, SO6_BASIS, SU4_BASIS
from .states import EPS_NORM, as_state, make_acin
from .synthesis import _axis_angle_local_step, _frame_rotation_steps, _rotation_axis_angle
from .tangles import TangleSet
from .vectors import EPS_INV, AbcVectors, abc_vectors

# --- quaternion algebra (4-vectors (q0, q1, q2, q3)) -----------------------

def quat_mul(p, q) -> np.ndarray:
    """Hamilton product."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return np.array([
        p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
        p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
        p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
        p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
    ])


def quat_conj(q) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_inv(q) -> np.ndarray:
    n2 = float(np.dot(q, q))
    if n2 < 1e-300:
        raise ZeroDivisionError("inverse of the zero quaternion")
    return quat_conj(q) / n2


def quat_transpose(q) -> np.ndarray:
    """Transpose in the 2x2 representation: flips the j component."""
    return np.array([q[0], q[1], -q[2], q[3]])


def quat_to_matrix(q) -> np.ndarray:
    """2x2 representation q0 I - i (q . sigma)."""
    q0, q1, q2, q3 = q
    return np.array([[q0 - 1j * q3, -1j * q1 - q2],
                     [-1j * q1 + q2, q0 + 1j * q3]], dtype=complex)


@dataclass(frozen=True, eq=False)
class QuaternionicState:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(4))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).reshape(4))

    @property
    def norm_squared(self) -> float:
        return float(self.x @ self.x + self.y @ self.y)


@dataclass(frozen=True, eq=False)
class AcinParams:
    xi: float
    lambdas: np.ndarray


def to_state(qs: QuaternionicState) -> np.ndarray:
    """Amplitudes of the quaternion pair; requires x.x + y.y = 1/2."""
    if abs(qs.norm_squared - 0.5) > 1e3 * EPS_NORM:
        raise NotNormalized(f"x.x + y.y = {qs.norm_squared}, expected 1/2")
    return _amplitudes(qs.x, qs.y)


def _amplitudes(x, y) -> np.ndarray:
    c = np.zeros(8, dtype=complex)
    c[0] = x[0] + 1j * x[3]
    c[4] = 1j * x[1] + x[2]
    c[1] = 1j * x[1] - x[2]
    c[5] = x[0] - 1j * x[3]
    c[2] = y[0] + 1j * y[3]
    c[6] = 1j * y[1] + y[2]
    c[3] = 1j * y[1] - y[2]
    c[7] = y[0] - 1j * y[3]
    return c


def _extract(s) -> tuple[np.ndarray, np.ndarray, float]:
    """(x, y, pattern residual) without any phase adjustment."""
    c = as_state(s)
    x = np.array([c[0].real, c[1].imag, c[4].real, c[0].imag])
    y = np.array([c[2].real, c[3].imag, c[6].real, c[2].imag])
    res = float(np.abs(_amplitudes(x, y) - c).max())
    return x, y, res


def is_quaternionic(s, tol: float = EPS_INV):
    """Recover (x, y) if some global phase puts the state in quaternionic form.

    Returns a QuaternionicState or None. The phase is fixed (up to the
    irrelevant overall sign of (x, y)) by the pattern conditions
    c101 = conj(c000), c100 = -conj(c001) and the row-1 analogues.
    """
    c = as_state(s)
    w = np.array([c[5], c[4], c[7], c[6]])
    u = np.array([np.conj(c[0]), -np.conj(c[1]), np.conj(c[2]), -np.conj(c[3])])
    denom = float(np.sum(np.abs(w) ** 2))
    if denom < tol**2:
        return None
    z = np.sum(np.conj(w) * u) / denom
    if abs(z) < 1e-12:
        return None
    alpha = 0.5 * np.angle(z / abs(z))
    x, y, res = _extract(np.exp(1j * alpha) * c)
    if res > tol:
        return None
    comps = np.concatenate([x, y])
    if comps[np.argmax(np.abs(comps))] < 0:
        x, y = -x, -y
    return QuaternionicState(x, y)


def abc_quaternionic(qs: QuaternionicState) -> AbcVectors:
    """Invariant vectors straight from the quaternion pair.

    A and C are real 3-vectors (vector parts of conj(x) y - conj(y) x, with
    transposed quaternions for A); B has the fixed structure
    (-i(x.x - y.y), x.x + y.y, 2i x.y). Agrees with the generic amplitude
    route exactly.
    """
    x, y = qs.x, qs.y
    xt, yt = quat_transpose(x), quat_transpose(y)
    a = (quat_mul(quat_conj(xt), yt) - quat_mul(quat_conj(yt), xt))[1:]
    cvec = (quat_mul(quat_conj(x), y) - quat_mul(quat_conj(y), x))[1:]
    x2 = float(x @ x)
    y2 = float(y @ y)
    xy = float(x @ y)
    b = np.array([-1j * (x2 - y2), x2 + y2, 2j * xy])
    return AbcVectors(a.astype(complex), b, cvec.astype(complex))


def tangles_quaternionic(qs: QuaternionicState) -> TangleSet:
    """All seven measures from |x|, |y| and the angle between x and y.

    With |x| = cos(al)/sqrt(2), |y| = sin(al)/sqrt(2), cos(be) = xhat.yhat:
    tau_abc = (sin(be) sin(2 al))^2, tau_ac = 1 - tau_abc, the a- and
    c-bipartite tangles are 1, tau_b_ca = tau_abc, and tau_ab = tau_bc = 0.
    """
    if abs(qs.norm_squared - 0.5) > 1e3 * EPS_NORM:
        raise NotNormalized(f"x.x + y.y = {qs.norm_squared}, expected 1/2")
    x, y = qs.x, qs.y
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    prod = nx * ny
    cos_beta = float(x @ y) / prod if prod > 1e-150 else 0.0
    cos_beta = min(1.0, max(-1.0, cos_beta))
    sin_2al = 4.0 * nx * ny  # 2 sin(al) cos(al) with cos(al) = |x| sqrt(2)
    tau_abc = (1.0 - cos_beta**2) * sin_2al**2
    return TangleSet(
        tau_abc=tau_abc,
        tau_bc=0.0,
        tau_ac=1.0 - tau_abc,
        tau_ab=0.0,
        tau_a_bc=1.0,
        tau_b_ca=tau_abc,
        tau_c_ab=1.0,
    )


# --- the preserved generator set -------------------------------------------

#: Eq-pattern local/coupling names on the physical qubits; the pair algebra
#: slots map b -> first, c -> second of the (b, c) pair
_USP_LABELS = ("y@b",
               "xx@bc", "zx@bc",
               "xy@bc", "zy@bc", "z@c",
               "xz@bc", "zz@bc", "y@c", "x@c")
_EXCLUDED_LABELS = ("z@b", "x@b", "yx@bc", "yy@bc", "yz@bc")


def _slot_label(name: str) -> str:
    kind, loc = name.split("@")
    if loc == "b":
        return f"{kind}_a"
    if loc == "c":
        return f"{kind}_b"
    return kind  # coupling, already n-on-b m-on-c ordered


@dataclass(frozen=True, eq=False)
class UspGenerators:
    labels: tuple
    su4: np.ndarray          # (10, 4, 4) i/2 sigma matrices on the (b, c) pair
    so6: np.ndarray          # (10, 6, 6) integer images acting on (B, -iC)
    excluded_labels: tuple
    excluded_su4: np.ndarray
    excluded_so6: np.ndarray


def usp_generators() -> UspGenerators:
    """The ten pair-algebra generators preserving the quaternionic subset.

    Their so(6) images act on components (1, 3, 4, 5, 6) of the partition-1
    6-vector, never touching component 2; the five excluded generators are
    returned alongside.
    """
    usp, ex = ([GENERATOR_LABELS.index(_slot_label(n)) for n in names]
               for names in (_USP_LABELS, _EXCLUDED_LABELS))
    return UspGenerators(_USP_LABELS, SU4_BASIS[usp], SO6_BASIS[usp],
                         _EXCLUDED_LABELS, SU4_BASIS[ex], SO6_BASIS[ex])


def is_quaternionic_block_matrix(m4: np.ndarray, tol: float = 1e-12) -> bool:
    """True when each 2x2 block of a 4x4 matrix has the [[w, z], [-z*, w*]] form."""
    m = np.asarray(m4, dtype=complex).reshape(4, 4)
    for bi in range(2):
        for bj in range(2):
            blk = m[2 * bi:2 * bi + 2, 2 * bj:2 * bj + 2]
            if abs(blk[1, 1] - np.conj(blk[0, 0])) > tol:
                return False
            if abs(blk[1, 0] + np.conj(blk[0, 1])) > tol:
                return False
    return True


# --- reduction to the canonical form ----------------------------------------

def balance_chi(qs: QuaternionicState) -> float:
    """Rotation angle on qubit b that equalizes x.x and y.y.

    After exp(i chi sigma_y^(b)) the pair transforms as
    (x, y) -> (cos(chi) x + sin(chi) y, cos(chi) y - sin(chi) x) and the
    first component of B (proportional to x.x - y.y) vanishes. Returns 0
    when already balanced.
    """
    x, y = qs.x, qs.y
    delta = float(x @ x - y @ y)
    omega = 2.0 * float(x @ y)
    if abs(delta) <= 1e-14:
        return 0.0
    return 0.5 * float(np.arctan2(delta, -omega))


def _local_step_from_su2_quaternion(qubit: str, u) -> LocalStep:
    """LocalStep whose 2x2 unitary is the representation of unit quaternion u."""
    u = np.asarray(u, dtype=float)
    vec = u[1:]
    nv = float(np.linalg.norm(vec))
    if nv < 1e-15:
        if u[0] > 0:
            return LocalStep(qubit, (0.0, 0.0, 0.0))
        return LocalStep(qubit, (2.0 * np.pi, 0.0, 0.0))  # -identity
    t = 2.0 * float(np.arctan2(nv, u[0]))
    axis = -vec / nv
    return LocalStep(qubit, tuple(float(v) for v in (t * axis)))


def _left_mult_step_a(v) -> LocalStep:
    """Qubit-a step effecting x -> v x, y -> v y (v a unit quaternion)."""
    u = np.array([v[0], -v[1], v[2], -v[3]])
    return _local_step_from_su2_quaternion("a", u)


def _reduce_stages(qs: QuaternionicState) -> dict:
    state = to_state(qs)
    seq: list = []

    # (i) balance x.x = y.y; the branch is chosen so the scalar part of x
    # comes out non-negative after step (ii), landing on the canonical signs
    chi = balance_chi(qs)
    x, y = qs.x, qs.y
    delta = float(x @ x - y @ y)
    omega = 2.0 * float(x @ y)
    if np.cos(2 * chi) * omega - np.sin(2 * chi) * delta < 0.0:
        chi += np.pi / 2
    step = LocalStep("b", (0.0, 2.0 * chi, 0.0))
    seq.append(step)
    state = apply([step], state)
    x, y, res = _extract(state)
    if res > 1e-9:
        raise InvariantViolation(f"lost quaternionic form while balancing ({res})")

    v = 2.0 * quat_conj(y)
    step = _left_mult_step_a(v)
    seq.append(step)
    state = apply([step], state)
    x, y, res = _extract(state)
    if res > 1e-9 or abs(y[0] - 0.5) > 1e-9 or np.abs(y[1:]).max() > 1e-9:
        raise InvariantViolation("y did not reduce to the scalar 1/2")

    xv = x[1:]
    if np.linalg.norm(xv) > 1e-12:
        # the Eq-(3) vectors give A = C = -(vector part of x), so aim at -z;
        # x -> q x conj(q) for the rotation quaternion q is a c step about
        # the axis and an a step about the axis with its x, z signs flipped
        axis, angle = _rotation_axis_angle(xv, [0.0, 0.0, -1.0])
        steps = [_axis_angle_local_step("a", axis * [-1.0, 1.0, -1.0], angle),
                 _axis_angle_local_step("c", axis, angle)]
        seq.extend(steps)
        state = apply(steps, state)
        x, y, res = _extract(state)
        if res > 1e-9:
            raise InvariantViolation("lost quaternionic form while aligning x")

    canonical_state = state.copy()
    xi = float(np.arctan2(2.0 * abs(x[0]), 2.0 * np.linalg.norm(x[1:])))
    lambdas = np.array([-np.cos(xi), np.sin(xi), 0.0, 0.0, 1.0]) / np.sqrt(2)
    target = make_acin(lambdas)

    # (iv) rotate B onto the canonical-state B with a qubit-b rotation
    b_now = abc_vectors(state).b
    u1 = np.real(b_now)
    u2 = np.imag(b_now)
    v1 = np.array([-np.sin(xi), 0.0, np.cos(xi)]) / 2
    v2 = np.array([0.0, np.sin(xi), 0.0]) / 2
    n2 = np.linalg.norm(u2)
    steps = _frame_rotation_steps(
        "b", u1 / np.linalg.norm(u1),
        u2 / n2 if n2 > 1e-12 else None,
        v1 / np.linalg.norm(v1),
        v2 / np.linalg.norm(v2) if n2 > 1e-12 else None)
    if steps:
        seq.extend(steps)
        state = apply(steps, state)

    # all vectors now match; one z-rotation + global phase pin the state
    d111 = float(np.angle(target[7]) - np.angle(state[7]))
    ref = 0 if abs(target[0]) > 1e-9 else 2
    d0 = float(np.angle(target[ref]) - np.angle(state[ref]))
    alpha = 0.5 * (d0 - d111)
    g = 0.5 * (d0 + d111)
    tail = [LocalStep("a", (0.0, 0.0, 2.0 * alpha)), PhaseStep(g)]
    seq.extend(tail)
    state = apply(tail, state)
    return {"sequence": seq, "params": AcinParams(xi, lambdas),
            "canonical_state": canonical_state, "final_state": state}


def reduce_to_acin(qs: QuaternionicState):
    """Local sequence bringing a quaternionic state to canonical form.

    Steps: (i) the balancing b-rotation, (ii) a qubit-a multiplication
    turning y into the scalar 1/2, (iii) an a/c adjoint rotation aligning
    the vector part of x with the third axis (after which the vectors are
    A = C = (0, 0, cos xi)/2 and B = (0, 1, i sin xi)/2), (iv) a qubit-b
    rotation matching the canonical B, and a final z-rotation/global phase
    absorbing the leftover one-parameter freedom. Returns the sequence and
    the canonical parameters; applying the sequence to to_state(qs)
    reproduces make_acin(params.lambdas) exactly.
    """
    stages = _reduce_stages(qs)
    return stages["sequence"], stages["params"]
