"""Analytic control protocols and the local-equivalence metric.

Three constructions, each returning a concrete gate sequence:

  * synthesize_coupling_core — an arbitrary diagonal pair coupling
    exp(1/2 sum_n alpha_n i sigma_nn) from exactly three fixed-strength
    (pi/4, CZ-class) couplings plus four local rotations;
  * w_to_ghz_sequence — the exact asymmetric-W to GHZ transformation with
    two couplings and six local rotations;
  * maximize_three_tangle — pair-only operations driving the three-tangle
    to its invariant upper bound (the bipartite tangle of the spectator).

The pair protocols design their steps from one evaluation of A, B, C by the
vector picture's rules: a PhaseStep(alpha) multiplies every vector by
exp(2i alpha) and a local step rotates only its own qubit's vector. The
maximizer applies its sequence once; the Hilbert picture certifies it.

Plus the Fubini-Study angle (a restarted local search over the 9 local
rotation angles, reported in degrees) and a gradient-ascent oracle used to
certify the maximization bound.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DegenerateInput, GaugeUndefined, ParseError
from .gates import (CouplingStep, LocalStep, PhaseStep, _pair_qubits, apply,
                    coupling_axis_step, sequence_unitary)
from .so6 import SU4_BASIS, so3_image
from .states import (PARTITION_PAIR, PARTITION_SPECTATOR, QUBIT_AXIS,
                     make_asymmetric_w, make_ghz, normalize)
from .tangles import _measures, three_tangle
from .vectors import EPS_INV, _gauge, _vectors

#: qubit pair -> (partition, ordered pair string as carried by the 6-vector)
_PAIR_PARTITION = {frozenset(pq): (p, "".join(pq)) for p, pq in PARTITION_PAIR.items()}


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    sequence: list
    achieved: float
    meta: dict = field(default_factory=dict)


def _canonical_pair(pair: str) -> tuple[int, str]:
    try:
        return _PAIR_PARTITION[frozenset(_pair_qubits(pair))]
    except ParseError:
        raise DegenerateInput(f"not a qubit pair: {pair!r}") from None


def min_phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max-norm distance between u and v after optimal global-phase match."""
    tr = np.trace(v.conj().T @ u)
    if abs(tr) < 1e-300:
        return float(min(np.abs(u - v).max(), np.abs(u + v).max()))
    return float(np.abs(u - (tr / abs(tr)) * v).max())


def synthesize_coupling_core(alpha, pair: str = "ab") -> SynthesisResult:
    """Realize exp(1/2 sum alpha_n i sigma_nn) with three pi/4 couplings.

    The component swaps park one vector component among the partner triple
    of the 6-vector so that a plain local rotation supplies each coupling
    angle; the three swaps are the only entangling steps and all have fixed
    CZ-class strength pi/4.
    """
    a1, a2, a3 = (float(x) for x in np.asarray(alpha, dtype=float).reshape(3))
    _, pq = _canonical_pair(pair)
    q1, q2 = pq[0], pq[1]
    seq = [
        coupling_axis_step(pq, 2, 1, -np.pi / 4),
        LocalStep(q1, (0.0, 0.0, -a1)),
        LocalStep(q2, (0.0, 0.0, a2)),
        coupling_axis_step(pq, 3, 1, np.pi / 4),
        LocalStep(q2, (0.0, a3, 0.0)),
        coupling_axis_step(pq, 2, 1, np.pi / 4),
        LocalStep(q1, (np.pi / 2, 0.0, 0.0)),
    ]
    target_theta = np.diag([a1, a2, a3])
    target = sequence_unitary([CouplingStep(pq, target_theta)])
    dist = min_phase_distance(sequence_unitary(seq), target)
    couplings = [s for s in seq if isinstance(s, CouplingStep)]
    strengths = [float(np.abs(s.theta).max()) / 2.0 for s in couplings]
    return SynthesisResult(seq, dist, {
        "coupling_steps": len(couplings),
        "coupling_strengths": strengths,
        "alpha": [a1, a2, a3],
    })


def w_to_ghz_sequence(theta: float, phi: float) -> SynthesisResult:
    """Exact two-coupling sequence taking the asymmetric W state to GHZ.

    First a bc coupling converts both two-tangles into three-tangle, two
    local z rotations remove the phi dependence, an ab coupling of angle
    pi/4 - theta equalizes the amplitudes, and local rotations plus a sign
    finish the job. theta in {0, pi/2} leaves no tripartite resource.
    """
    t_mod = theta % np.pi
    if min(abs(t_mod), abs(t_mod - np.pi), abs(t_mod - np.pi / 2)) <= EPS_INV:
        raise DegenerateInput(f"theta = {theta} gives a degenerate W state")
    seq = [
        coupling_axis_step("bc", 1, 1, np.pi / 4),
        LocalStep("b", (0.0, 0.0, -phi)),
        LocalStep("c", (0.0, 0.0, phi)),
        coupling_axis_step("ab", 2, 2, np.pi / 4 - theta),
        LocalStep("b", (np.pi / 2, 0.0, 0.0)),
        LocalStep("c", (0.0, -np.pi / 2, 0.0)),
        LocalStep("a", (0.0, -np.pi / 2, 0.0)),
        LocalStep("a", (0.0, 0.0, -np.pi / 2)),
        PhaseStep(np.pi),
    ]
    final = apply(seq, make_asymmetric_w(theta, phi))
    fid = float(abs(np.vdot(final, make_ghz())))
    couplings = sum(isinstance(s, CouplingStep) for s in seq)
    return SynthesisResult(seq, fid, {"coupling_steps": couplings,
                                      "theta": theta, "phi": phi})


# --- canonical alignment and the tangle maximum ---------------------------

def _axis_angle_local_step(qubit: str, axis, angle: float) -> LocalStep:
    # so3_image(theta) rotates by -|theta| about theta, so negate
    v = -angle * np.asarray(axis, dtype=float)
    return LocalStep(qubit, (float(v[0]), float(v[1]), float(v[2])))


def _rotation_axis_angle(src, dst) -> tuple[np.ndarray, float]:
    """Unit axis and angle in [0, pi] of a rotation taking src onto dst.

    Parallel vectors give angle 0; antiparallel ones a half turn about an
    axis perpendicular to src.
    """
    u = np.asarray(src, float)
    v = np.asarray(dst, float)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    cross = np.cross(u, v)
    s = np.linalg.norm(cross)
    c = float(u @ v)
    if s < 1e-14:
        if c > 0:
            return np.array([0.0, 0.0, 1.0]), 0.0
        perp = np.array([1.0, 0, 0]) if abs(u[0]) < 0.9 else np.array([0, 1.0, 0])
        axis = np.cross(u, perp)
        return axis / np.linalg.norm(axis), float(np.pi)
    return cross / s, float(np.arctan2(s, c))


def _rot_to_steps(qubit: str, src, dst) -> list:
    """Local steps rotating unit vector src onto unit vector dst."""
    axis, angle = _rotation_axis_angle(src, dst)
    return [_axis_angle_local_step(qubit, axis, angle)] if angle else []


def _frame_rotation_steps(qubit: str, u1, u2, v1, v2) -> list:
    """Local steps rotating u1 onto the unit vector v1, then u2 onto v2 about v1.

    (u1, u2) and (v1, v2) are orthogonal pairs; u2 = None skips the turn
    about v1.
    """
    steps = _rot_to_steps(qubit, u1, v1)
    if u2 is None:
        return steps
    w = np.asarray(u2, dtype=float)
    if steps:
        w = so3_image(steps[0].theta) @ w
    v2 = np.asarray(v2, dtype=float)
    ang = float(np.arctan2(np.dot(np.cross(w, v2), v1), np.dot(w, v2)))
    if abs(ang) > 1e-15:
        steps.append(_axis_angle_local_step(qubit, v1, ang))
    return steps


def _align_vector_steps(qubit: str, vec: np.ndarray, zero: float) -> list:
    """Rotate vec's real part onto +x and its imaginary part onto +z.

    Assumes Re(vec) and Im(vec) orthogonal (the gauged situation); parts of
    norm at most `zero` align trivially.
    """
    vr = np.real(vec)
    vi = np.imag(vec)
    nr, ni = np.linalg.norm(vr), np.linalg.norm(vi)
    if nr > zero:
        return _frame_rotation_steps(qubit, vr, vi if ni > zero else None,
                                     np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))
    return _rot_to_steps(qubit, vi, [0.0, 0.0, 1.0]) if ni > zero else []


def _alignment(pq: str, v1, v2, tol: float) -> list:
    """Local steps taking the pair vectors v1 (qubit pq[0]) and v2 to canonical form.

    Each step rotates only its own qubit's vector, so both come from the same
    evaluation. Parts below 1e-13 |s|^2 count as zero.
    """
    zero = _noise_floor(tol)
    return _align_vector_steps(pq[0], v1, zero) + _align_vector_steps(pq[1], v2, zero)


def _noise_floor(tol: float) -> float:
    """1e-13 |s|^2, from the tolerance EPS_INV |s|^4; smaller vector parts are rounding noise."""
    return 1e-13 * np.sqrt(tol / EPS_INV)


def align_canonical(s, pair: str = "ab") -> list:
    """Local-only steps bringing the pair's two vectors to canonical form.

    In the output state the first pair vector is (V_R, 0, i V_I) and the
    second likewise, all four scalars non-negative. Requires the gauge to
    have been applied when the three-tangle is nonzero (real and imaginary
    parts must be orthogonal).
    """
    _, pq = _canonical_pair(pair)
    v, tol = _vectors(s)
    return _alignment(pq, v.by_qubit(pq[0]), v.by_qubit(pq[1]), tol)


def maximize_three_tangle(s, pair: str = "ab", variant: str = "economical") -> SynthesisResult:
    """Drive the three-tangle to the spectator's bipartite tangle.

    Gauge fix, align both pair vectors, then couple: either two "economical"
    plane rotations with angles arg(V1_R + i V2_I) and arg(V2_R + i V1_I),
    or a single pi/2 CZ-class coupling (variant="single"). When the gauge is
    undefined (zero three-tangle) the alignment alone suffices because the
    real and imaginary parts then have equal norms in any gauge.
    `achieved` is the three-tangle of the state the sequence produces.
    """
    if variant not in ("economical", "single"):
        raise ParseError(f"unknown variant {variant!r}")
    p, pq = _canonical_pair(pair)
    state = normalize(s)
    v, tol = _vectors(state)
    t = _measures(v, tol)
    bound = dict(zip("abc", (t.tau_a_bc, t.tau_b_ca, t.tau_c_ab)))[PARTITION_SPECTATOR[p]]
    v1, v2 = v.by_qubit(pq[0]), v.by_qubit(pq[1])
    seq: list = []

    info = _gauge(v, tol)
    if info.defined:
        seq.append(PhaseStep(-0.5 * info.phi_a))
        # a phase step alpha multiplies every vector by exp(2i alpha)
        phase = np.exp(-1j * info.phi_a)
        v1, v2 = v1 * phase, v2 * phase
    seq.extend(_alignment(pq, v1, v2, tol))
    # once gauged and aligned, a vector is (|Re V|, 0, i |Im V|); a part at
    # the noise floor is zero, so a product state gets no coupling
    zero = _noise_floor(tol)
    r1, i1, r2, i2 = (n if n > zero else 0.0 for n in (
        float(np.linalg.norm(part)) for x in (v1, v2) for part in (x.real, x.imag)))

    if variant == "economical":
        t16 = float(np.arctan2(i2, r1))
        t34 = float(np.arctan2(i1, r2))
        couplings = [coupling_axis_step(pq, n, m, -angle / 2)
                     for (n, m), angle in (((1, 3), t16), ((3, 1), t34)) if abs(angle) > 1e-15]
        meta_angles = {"angle_16": t16, "angle_34": t34}
    else:
        couplings = [coupling_axis_step(pq, 3, 3, np.pi / 4)]
        meta_angles = {"angle_zz": np.pi / 2}

    seq.extend(couplings)
    return SynthesisResult(seq, three_tangle(apply(seq, state)), {
        "bound": bound,
        "gauge_defined": info.defined,
        "variant": variant,
        "coupling_steps": len(couplings),
        **meta_angles,
    })


def extremum_residual(s, pair: str = "ab") -> float:
    """Phase-alignment residual of the tangle-extremum condition.

    Zero iff every nonzero component of the pair's two vectors has phase
    equal (mod pi) to the gauge phase; components below 1e-9 |s|^2 count as
    zero. Raises GaugeUndefined for zero three-tangle.
    """
    _, pq = _canonical_pair(pair)
    v, tol = _vectors(s)
    info = _gauge(v, tol)
    if not info.defined:
        raise GaugeUndefined("extremum condition needs a nonzero three-tangle")
    comps = np.concatenate([v.by_qubit(pq[0]), v.by_qubit(pq[1])])
    comps = comps[np.abs(comps) > 1e-9 * np.sqrt(tol / EPS_INV)]
    return float(np.abs(np.sin(np.angle(comps) - info.phi_a)).max(initial=0.0))


# --- Fubini-Study angle ----------------------------------------------------

def _random_su2_stack(rng, n: int) -> np.ndarray:
    """(n, 3, 2, 2) Haar-ish unitaries; the first entry is the identity."""
    out = np.empty((n, 3, 2, 2), dtype=np.complex128)
    out[0] = np.eye(2)
    # one draw in the order a per-unitary loop would consume the stream:
    # for each (restart, qubit) the four real parts, then the four imaginary
    z = rng.standard_normal((n - 1, 3, 2, 2, 2))
    out[1:], _ = np.linalg.qr(z[:, :, 0] + 1j * z[:, :, 1])
    return out


def fubini_study_angle(s1, s2, restarts: int = 32, seed: int = 0,
                       max_sweeps: int = 5000, tol: float = 1e-10) -> float:
    """Angle (degrees) to the closest locally-equivalent state.

    arccos of the best overlap found over local unitaries on all three
    qubits, by alternating exact single-qubit maximization with `restarts`
    random starting points; a restart converges when the unitary updates
    move by less than `tol`. A stochastic search, so the result is an upper
    bound on the true minimum angle. The angle is recovered from the
    phase-matched state distance (2 arcsin(d/2)), which keeps tiny angles
    accurate where arccos of the overlap would lose half the digits.
    """
    v1 = normalize(s1)
    v2 = normalize(s2)
    inits = _random_su2_stack(np.random.default_rng(seed), max(1, restarts))
    _, us, _ = _kernels.fs_best_overlap(v1.reshape(2, 2, 2), v2.reshape(2, 2, 2),
                                        inits, max_sweeps, tol)
    w = np.einsum("ax,by,cz,xyz->abc", us[0], us[1], us[2],
                  v2.reshape(2, 2, 2)).reshape(8)
    ov = np.vdot(v1, w)
    if abs(ov) > 1e-150:
        w = w * (np.conj(ov) / abs(ov))
    d = float(np.linalg.norm(v1 - w))
    return float(np.degrees(2.0 * np.arcsin(min(1.0, d / 2.0))))


# --- independent ascent oracle ---------------------------------------------

def tangle_ascent_oracle(s, pair: str = "ab", restarts: int = 16, seed: int = 0,
                         max_iters: int = 400, gtol: float = 1e-10) -> float:
    """Numerically maximize the three-tangle over the pair's full SU(4).

    Independent of the analytic protocol: plain Riemannian gradient ascent
    on the 15-parameter group with random restarts. Used to certify that
    nothing exceeds the invariant bound.
    """
    p, pq = _canonical_pair(pair)
    t = normalize(s).reshape(2, 2, 2)
    # relabel qubits so the coupled pair occupies the leading two slots;
    # the three-tangle is relabeling-invariant
    perm = tuple(QUBIT_AXIS[q] for q in pq + PARTITION_SPECTATOR[p])
    psi = np.ascontiguousarray(t.transpose(perm).reshape(8))
    rng = np.random.default_rng(seed)
    inits = np.zeros((max(1, restarts), 15))
    if restarts > 1:
        inits[1:] = rng.uniform(-np.pi, np.pi, size=(restarts - 1, 15))
    best, _ = _kernels.tangle_ascent_best(psi, SU4_BASIS, inits, max_iters, gtol)
    return float(best)
