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

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvariantViolation, NotNormalized, ParseError
from .gates import LocalStep, _designed, apply
from .so6 import _GENERATOR_ROW, SO6_BASIS, SU4_BASIS
from .states import EPS_NORM, _reals, _rescaled, as_state, make_acin
from .tangles import TangleSet
from .vectors import EPS_INV, AbcVectors

# --- quaternion algebra (4-vectors (q0, q1, q2, q3)) -----------------------
# Every exported helper checks each quaternion with _reals (4 finite reals, else ParseError)
# and calls an unchecked kernel on Python floats; the designers call the kernels directly.

def _qmul(p, q) -> tuple:
    """Hamilton product of two 4-sequences of Python floats, unchecked."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0)


def _qconj(q) -> tuple:
    return q[0], -q[1], -q[2], -q[3]


def _qtranspose(q) -> tuple:
    return q[0], q[1], -q[2], q[3]


def quat_mul(p, q) -> np.ndarray:
    """Hamilton product, in Python floats, which overflow to inf without numpy's warning.

    ParseError where a component, or a partial sum on the way, is too large
    for a double.
    """
    r = _qmul(_reals(p, 4, "quaternion"), _reals(q, 4, "quaternion"))
    if not all(map(math.isfinite, r)):   # an overflow leaves inf, or NaN from inf - inf
        raise ParseError("the product of two quaternions is too large for a double")
    return np.array(r)


def quat_conj(q) -> np.ndarray:
    return np.array(_qconj(_reals(q, 4, "quaternion")))


def quat_inv(q) -> np.ndarray:
    """conj(q) / |q|^2 at any finite scale.

    q is first brought to unit scale by states._rescaled, so |q|^2 neither
    underflows nor overflows. Raises ParseError unless q is 4 finite real
    numbers, and DegenerateInput for q = 0 or when the inverse is too large
    for a double.
    """
    q = np.array(_reals(q, 4, "quaternion"))
    p, e = _rescaled(q)
    if not p.any():
        raise DegenerateInput("inverse of the zero quaternion")
    inv = np.array(_qconj(p.tolist())) / float(np.dot(p, p))
    if math.frexp(float(np.abs(inv).max()))[1] - e > 1024:
        raise DegenerateInput(f"the inverse of a quaternion of size {np.abs(q).max():.3g} "
                              "overflows")
    return np.ldexp(inv, -e)


def quat_transpose(q) -> np.ndarray:
    """Transpose in the 2x2 representation: flips the j component."""
    return np.array(_qtranspose(_reals(q, 4, "quaternion")))


def quat_to_matrix(q) -> np.ndarray:
    """2x2 representation q0 I - i (q . sigma)."""
    q0, q1, q2, q3 = _reals(q, 4, "quaternion")
    return np.array([[q0 - 1j * q3, -1j * q1 - q2],
                     [-1j * q1 + q2, q0 + 1j * q3]], dtype=complex)


def _rotation(u, v, u2=None, v2=None) -> tuple:
    """Unit quaternion p (4 floats) whose rotation w -> p w conj(p) takes the unit vector u onto v.

    The shortest such rotation, or a half turn about an axis perpendicular to u
    when v = -u; with u2 given, it then turns about v to take u2 onto v2. The
    pairs (u, u2) and (v, v2) are orthogonal unit vectors, so no kernel call overflows.
    """
    a0, a1, a2 = (float(t) for t in u)
    b0, b1, b2 = (float(t) for t in v)
    # u x v from scalars, as u x (u + v), and 1 + u.v as |u x v|^2 / (1 - u.v)
    # when u.v < 0: both keep their relative accuracy as v nears -u
    h0, h1, h2 = a0 + b0, a1 + b1, a2 + b2
    x0, x1, x2 = a1 * h2 - a2 * h1, a2 * h0 - a0 * h2, a0 * h1 - a1 * h0
    c = a0 * b0 + a1 * b1 + a2 * b2
    p = (1.0 + c if c >= 0.0 else (x0 * x0 + x1 * x1 + x2 * x2) / (1.0 - c), x0, x1, x2)
    if not any(p):  # v = -u: u x e for the basis vector e least along u
        p = (0.0, *((0.0, a2, -a1) if abs(a0) < 0.9 else (-a2, 0.0, a0)))
    n = math.hypot(*p)
    p = tuple(t / n for t in p)
    if u2 is None:
        return p
    w0, w1, w2 = _qmul(_qmul(p, (0.0, *map(float, u2))), _qconj(p))[1:]
    e0, e1, e2 = (float(t) for t in v2)
    half = 0.5 * math.atan2(b0 * (w1 * e2 - w2 * e1) + b1 * (w2 * e0 - w0 * e2)
                            + b2 * (w0 * e1 - w1 * e0), w0 * e0 + w1 * e1 + w2 * e2)
    k = math.sin(half)
    return _qmul((math.cos(half), k * b0, k * b1, k * b2), p)


def _step(qubit: str, p) -> list:
    """The local step on the qubit whose SU(2) factor is quat_to_matrix(p), p a unit quaternion.

    LocalStep(q, t n) is cos(t/2) + i sin(t/2) n.sigma, the quaternion (cos(t/2), -sin(t/2) n),
    so theta = -2 atan2(|p_vec|, p0) p_vec / |p_vec|, exact in sign; it rotates the qubit's
    vector by w -> p w conj(p). Returns [] for the identity.
    """
    p0, p1, p2, p3 = (float(t) for t in p)
    n = math.hypot(p1, p2, p3)
    # quaternion angles in [-2 pi, 2 pi] times unit-vector parts: finite Python floats
    if n == 0.0:
        return [] if p0 > 0.0 else [_designed(LocalStep, qubit, (2.0 * math.pi, 0.0, 0.0))]
    k = -2.0 * math.atan2(n, p0)
    return [_designed(LocalStep, qubit, (k * (p1 / n), k * (p2 / n), k * (p3 / n)))]


@dataclass(frozen=True, eq=False)
class QuaternionicState:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("x", "y"):   # 4 finite real numbers each, kept read-only
            v = np.array(_reals(getattr(self, name), 4, name))
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def norm_squared(self) -> float:
        """x.x + y.y in Python floats, which overflow to inf without numpy's warning."""
        return sum(t * t for t in (*self.x.tolist(), *self.y.tolist()))


@dataclass(frozen=True, eq=False)
class AcinParams:
    xi: float
    lambdas: np.ndarray


def to_state(qs: QuaternionicState) -> np.ndarray:
    """Amplitudes of the quaternion pair; requires x.x + y.y = 1/2."""
    if abs(qs.norm_squared - 0.5) > 1e3 * EPS_NORM:
        raise NotNormalized(f"x.x + y.y = {qs.norm_squared}, expected 1/2")
    return np.array(_amplitudes(qs.x, qs.y))


def _amplitudes(x, y) -> list:
    """The 8 amplitudes of the quaternion pair, as Python complex numbers in index order."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return [complex(x0, x3), complex(-x2, x1), complex(y0, y3), complex(-y2, y1),
            complex(x2, x1), complex(x0, -x3), complex(y2, y1), complex(y0, -y3)]


def _extract(c) -> tuple[list, list, float]:
    """(x, y, pattern residual) of the 8 amplitudes c, Python complex numbers, unphased."""
    c0, c1, c2, c3, c4, _, c6, _ = c
    x = [c0.real, c1.imag, c4.real, c0.imag]
    y = [c2.real, c3.imag, c6.real, c2.imag]
    return x, y, max(abs(a - z) for a, z in zip(_amplitudes(x, y), c))


def is_quaternionic(s):
    """Recover (x, y) if some global phase puts the state in quaternionic form.

    Returns a QuaternionicState or None. The phase is fixed (up to the
    irrelevant overall sign of (x, y)) by the pattern conditions
    c101 = conj(c000), c100 = -conj(c001) and the row-1 analogues. The state
    is first brought to unit scale by states._rescaled (its largest real or
    imaginary part in [1/2, 1)), so the tests are relative to that part at
    any finite scale; the rest of the work is on Python numbers. Raises
    ParseError for a non-finite amplitude.
    """
    c, e = _rescaled(as_state(s))
    amps = c.tolist()
    c0, c1, c2, c3, c4, c5, c6, c7 = amps
    w = (c5, c4, c7, c6)
    u = (c0.conjugate(), -c1.conjugate(), c2.conjugate(), -c3.conjugate())
    denom = sum((z * z.conjugate()).real for z in w)
    if denom < EPS_INV**2:
        return None
    z = sum(a.conjugate() * b for a, b in zip(w, u)) / denom
    if abs(z) < 1e-12:
        return None
    turn = cmath.exp(0.5j * cmath.phase(z))
    x, y, res = _extract([turn * a for a in amps])
    if res > EPS_INV:
        return None
    sign = -1.0 if max(x + y, key=abs) < 0 else 1.0
    x, y = ([sign * math.ldexp(t, e) for t in v] for v in (x, y))
    return QuaternionicState(x, y)


def abc_quaternionic(qs: QuaternionicState) -> AbcVectors:
    """Invariant vectors straight from the quaternion pair.

    A and C are real 3-vectors (vector parts of conj(x) y - conj(y) x, with
    transposed quaternions for A); B has the fixed structure
    (-i(x.x - y.y), x.x + y.y, 2i x.y). Agrees with the generic amplitude
    route exactly. Every component, and every partial sum on the way, is at
    most x.x + y.y, so ParseError, before any product, where that is too
    large for a double.
    """
    if not math.isfinite(qs.norm_squared):
        raise ParseError("x.x + y.y is too large for a double")
    x, y = qs.x.tolist(), qs.y.tolist()   # a finite x.x + y.y bounds every kernel product
    a, cvec = ([p - q for p, q in zip(_qmul(_qconj(u), v), _qmul(_qconj(v), u))][1:]
               for u, v in ((_qtranspose(x), _qtranspose(y)), (x, y)))
    x2, y2, xy = (sum(a * b for a, b in zip(u, v)) for u, v in ((x, x), (y, y), (x, y)))
    b = np.array([-1j * (x2 - y2), x2 + y2, 2j * xy])
    return AbcVectors(np.array(a, complex), b, np.array(cvec, complex))


def tangles_quaternionic(qs: QuaternionicState) -> TangleSet:
    """All seven measures from |x|, |y| and the angle between x and y.

    With |x| = cos(al)/sqrt(2), |y| = sin(al)/sqrt(2), cos(be) = xhat.yhat:
    tau_abc = (sin(be) sin(2 al))^2, tau_ac = 1 - tau_abc, the a- and
    c-bipartite tangles are 1, tau_b_ca = tau_abc, and tau_ab = tau_bc = 0.
    """
    x, y = qs.x.tolist(), qs.y.tolist()
    xx, yy, xy = (sum(a * b for a, b in zip(u, v)) for u, v in ((x, x), (y, y), (x, y)))
    if abs(xx + yy - 0.5) > 1e3 * EPS_NORM:
        raise NotNormalized(f"x.x + y.y = {xx + yy}, expected 1/2")
    nx, ny = math.sqrt(xx), math.sqrt(yy)
    prod = nx * ny
    cos_beta = xy / prod if prod > 1e-150 else 0.0
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
    usp, ex = ([_GENERATOR_ROW[_slot_label(n)] for n in names]
               for names in (_USP_LABELS, _EXCLUDED_LABELS))
    return UspGenerators(_USP_LABELS, SU4_BASIS[usp], SO6_BASIS[usp],
                         _EXCLUDED_LABELS, SU4_BASIS[ex], SO6_BASIS[ex])


# --- reduction to the canonical form ----------------------------------------

def balance_chi(qs: QuaternionicState) -> float:
    """Rotation angle on qubit b that equalizes x.x and y.y.

    After exp(i chi sigma_y^(b)) the pair transforms as
    (x, y) -> (cos(chi) x + sin(chi) y, cos(chi) y - sin(chi) x) and the
    first component of B (proportional to x.x - y.y) vanishes. Returns 0
    when already balanced, to 1e-14 of x.x + y.y. The pair is first brought
    to unit scale by states._rescaled, so the squares neither underflow nor
    overflow.
    """
    (x, y), _ = _rescaled(np.array((qs.x, qs.y)))
    xx, yy = float(x @ x), float(y @ y)
    delta = xx - yy
    omega = 2.0 * float(x @ y)
    if abs(delta) <= 1e-14 * (xx + yy):
        return 0.0
    return 0.5 * float(np.arctan2(delta, -omega))


def _reduce(qs: QuaternionicState):
    """Design one factor per qubit from (x, y), then apply the steps once.

    Returns (sequence, params, final state, residual), where the residual is
    the largest amplitude difference between the final state and
    make_acin(params.lambdas); above 1e-10 it raises InvariantViolation.
    The bound needs no scale: to_state requires x.x + y.y = 1/2, so the
    thresholds below are relative too.
    """
    state = to_state(qs)
    x, y = qs.x.tolist(), qs.y.tolist()   # x.x + y.y = 1/2, so no kernel call can overflow

    # (i) balance x.x = y.y by the b factor (cos chi, 0, -sin chi, 0) at 1/2 atan2(delta, -omega)
    # + pi/2, not at balance_chi's root: only there is cos 2chi omega - sin 2chi delta = |(delta,
    # omega)| >= 0, putting x's scalar part non-negative after (ii), onto the canonical signs
    delta, omega = sum(a * a - b * b for a, b in zip(x, y)), 2.0 * sum(a * b for a, b in zip(x, y))
    if abs(delta) > 5e-15:
        chi = 0.5 * math.atan2(delta, -omega) + math.pi / 2
    else:   # balanced already, to 1e-14 of x.x + y.y = 1/2: the same sign picks 0 or pi/2
        chi = math.pi / 2 if omega < 0.0 else 0.0
    c, s = math.cos(chi), math.sin(chi)
    x, y = [c * p + s * q for p, q in zip(x, y)], [c * q - s * p for p, q in zip(x, y)]

    # (ii) left-multiply by v = 2 conj(y), a unit quaternion: y becomes 1/2
    v = tuple(2.0 * t for t in _qconj(y))
    x = _qmul(v, x)

    # (iii) the Eq-(3) vectors give A = C = -(vector part of x), so aim at -z:
    # x -> r x conj(r) is r on qubit c and quat_transpose(quat_conj(r)) on qubit a
    nv = math.hypot(*x[1:])
    r = _rotation([t / nv for t in x[1:]], (0.0, 0.0, -1.0)) if nv > 1e-12 else (1.0, 0.0, 0.0, 0.0)
    xi = math.atan2(abs(x[0]), nv)
    lambdas = np.array([-math.cos(xi), math.sin(xi), 0.0, 0.0, 1.0]) / math.sqrt(2)

    # (iv) now Re B = (0, 1/2, 0) and Im B = (0, 0, x0); the b turn onto the canonical
    # B = (-sin xi, i sin xi, cos xi)/2 takes e2 onto (-sin xi, 0, cos xi), then turns
    # by pi - xi about it, even at x0 = 0 where Im B vanishes (so it is continuous in
    # xi), and a z-turn by pi/2 - xi on qubit a pins the one phase left
    h, g = math.sin(xi / 2), math.cos(xi / 2)
    b = _qmul([t / math.sqrt(2) for t in (h, -h, g, g)], (c, 0.0, -s, 0.0))
    half = math.pi / 4 - xi / 2
    a = _qmul((math.cos(half), 0.0, 0.0, -math.sin(half)), _qtranspose(_qconj(_qmul(r, v))))
    seq = _step("b", b) + _step("a", a) + _step("c", r)

    final = apply(seq, state)
    residual = float(np.abs(final - make_acin(lambdas)).max())
    if residual > 1e-10:
        raise InvariantViolation(f"reduction missed the canonical state by {residual:.3g}")
    return seq, AcinParams(xi, lambdas), final, residual


def reduce_to_acin(qs: QuaternionicState):
    """Local sequence bringing a quaternionic state to canonical form.

    At most one step per qubit, each a unit quaternion designed from (x, y):
    on b, the rotation balancing |x| = |y|, then the turn matching the
    canonical B; on a, the left multiplication turning y into the scalar 1/2,
    the a side of the a/c rotation aligning x's vector part with the third
    axis, and a z-turn absorbing the one phase left; on c, the c side of that
    a/c rotation. The sequence is applied once, to check that it takes
    to_state(qs) to make_acin(params.lambdas) within 1e-10 (else
    InvariantViolation). Returns the sequence and the canonical parameters.
    """
    seq, params, _, _ = _reduce(qs)
    return seq, params
