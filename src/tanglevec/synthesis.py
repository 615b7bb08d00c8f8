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
rotation angles, reported in degrees, with its convergence record from
fubini_study_search) and a Newton-ascent oracle used to certify the
maximization bound (with its convergence record from tangle_ascent_search).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DegenerateInput, GaugeUndefined, ParseError
from .gates import CouplingStep, LocalStep, PhaseStep, apply, coupling_axis_step, sequence_unitary
from .quaternionic import _rotation, _step
from .so6 import SU4_BASIS
from .states import (PARTITION_PAIR, PARTITION_SPECTATOR, QUBIT_AXIS, _check_options, _named,
                     _reals, make_asymmetric_w, make_ghz, normalize)
from .tangles import bipartite_tangle_from_density, tangle_set, three_tangle
from .vectors import EPS_INV, _dots, _unit_scaled, _vectors, gauge_phase

#: qubit pair, in either order -> (partition, ordered pair string as carried by the 6-vector)
_PAIR_PARTITION = {q1 + q2: (p, first + second) for p, (first, second) in PARTITION_PAIR.items()
                   for q1, q2 in ((first, second), (second, first))}
#: maximize_three_tangle's variants: whether each is the economical one
_VARIANTS = {"economical": True, "single": False}

#: the fixed steps of the protocols, built once (a step cannot change), so
#: that every call shares the factors they keep: the coupling core's three
#: pi/4 couplings and closing local on each ordered pair, the single
#: maximization's pi/4 zz coupling on each, and the W to GHZ bc coupling and
#: closing locals and phase
_CORE_STEPS = {pq: (coupling_axis_step(pq, 2, 1, -np.pi / 4), coupling_axis_step(pq, 3, 1, np.pi / 4),
                    coupling_axis_step(pq, 2, 1, np.pi / 4), LocalStep(pq[0], (np.pi / 2, 0.0, 0.0)))
               for pq in map("".join, PARTITION_PAIR.values())}
_ZZ_STEPS = {pq: coupling_axis_step(pq, 3, 3, np.pi / 4) for pq in _CORE_STEPS}
_W_HEAD = coupling_axis_step("bc", 1, 1, np.pi / 4)
_W_TAIL = (LocalStep("b", (np.pi / 2, 0.0, 0.0)), LocalStep("c", (0.0, -np.pi / 2, 0.0)),
           LocalStep("a", (0.0, -np.pi / 2, 0.0)), LocalStep("a", (0.0, 0.0, -np.pi / 2)),
           PhaseStep(np.pi))


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    sequence: list
    achieved: float
    meta: dict = field(default_factory=dict)


def _canonical_pair(pair: str) -> tuple[int, str]:
    return _named(_PAIR_PARTITION, pair, "qubit pair", DegenerateInput)


def min_phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max-norm distance between u and v after optimal global-phase match.

    The phase is that of tr(v^H u), taken from u and v scaled to unit largest
    entry: it neither underflows nor overflows, and since the scaled norms lie
    between 1 and sqrt(u.size), its zero test is relative to |u| |v|. So the
    distance scales with u and v at any finite scale. ParseError for a
    non-finite entry or matrices of different shapes.
    """
    if np.shape(u) != np.shape(v):
        raise ParseError(f"min_phase_distance needs matrices of one shape, got "
                         f"{np.shape(u)} and {np.shape(v)}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ParseError("min_phase_distance needs finite matrices")
    top_u, top_v = np.abs(u).max(), np.abs(v).max()
    if top_u > 0.0 and top_v > 0.0:
        tr = np.vdot(v / top_v, u / top_u)
        if abs(tr) > 1e-300:
            return float(np.abs(u - (tr / abs(tr)) * v).max())
    return float(min(np.abs(u - v).max(), np.abs(u + v).max()))


def synthesize_coupling_core(alpha, pair: str = "ab") -> SynthesisResult:
    """Realize exp(1/2 sum alpha_n i sigma_nn) with three pi/4 couplings.

    The component swaps park one vector component among the partner triple
    of the 6-vector so that a plain local rotation supplies each coupling
    angle; the three swaps are the only entangling steps and all have fixed
    CZ-class strength pi/4. ParseError unless alpha is 3 finite angles.
    """
    a1, a2, a3 = _reals(alpha, 3, "alpha")
    _, pq = _canonical_pair(pair)
    q1, q2 = pq[0], pq[1]
    swap1, swap2, swap3, close = _CORE_STEPS[pq]
    seq = [
        swap1,
        LocalStep(q1, (0.0, 0.0, -a1)),
        LocalStep(q2, (0.0, 0.0, a2)),
        swap2,
        LocalStep(q2, (0.0, a3, 0.0)),
        swap3,
        close,
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
    ParseError when an angle is not finite.
    """
    start = make_asymmetric_w(theta, phi)
    t_mod = theta % np.pi
    if min(abs(t_mod), abs(t_mod - np.pi), abs(t_mod - np.pi / 2)) <= EPS_INV:
        raise DegenerateInput(f"theta = {theta} gives a degenerate W state")
    seq = [
        _W_HEAD,
        LocalStep("b", (0.0, 0.0, -phi)),
        LocalStep("c", (0.0, 0.0, phi)),
        coupling_axis_step("ab", 2, 2, np.pi / 4 - theta),
        *_W_TAIL,
    ]
    final = apply(seq, start)
    fid = float(abs(np.vdot(final, make_ghz())))
    couplings = sum(isinstance(s, CouplingStep) for s in seq)
    return SynthesisResult(seq, fid, {"coupling_steps": couplings,
                                      "theta": theta, "phi": phi})


# --- canonical alignment and the tangle maximum ---------------------------

def _align_vector_steps(qubit: str, vec: np.ndarray, zero: float) -> list:
    """At most one step rotating vec's real part onto +x and its imaginary part onto +z.

    Assumes Re(vec) and Im(vec) orthogonal (the gauged situation); parts of
    norm at most `zero` align trivially.
    """
    vr, vi = np.real(vec), np.imag(vec)
    nr, ni = float(np.linalg.norm(vr)), float(np.linalg.norm(vi))
    frame = (vi / ni, (0.0, 0.0, 1.0)) if ni > zero else ()
    if nr > zero:
        return _step(qubit, _rotation(vr / nr, (1.0, 0.0, 0.0), *frame))
    return _step(qubit, _rotation(*frame)) if frame else []


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
    parts must be orthogonal). Scale-free, like gauge_phase.
    """
    _, pq = _canonical_pair(pair)
    m, tol = _unit_scaled(s)
    return _alignment(pq, m[QUBIT_AXIS[pq[0]]], m[QUBIT_AXIS[pq[1]]], tol)


def maximize_three_tangle(s, pair: str = "ab", variant: str = "economical") -> SynthesisResult:
    """Drive the three-tangle to the spectator's bipartite tangle.

    Gauge fix, align both pair vectors, then couple: either two "economical"
    plane rotations with angles arg(V1_R + i V2_I) and arg(V2_R + i V1_I),
    or a single pi/2 CZ-class coupling (variant="single"). When the gauge is
    undefined (zero three-tangle) the alignment alone suffices because the
    real and imaginary parts then have equal norms in any gauge.
    `achieved` is the three-tangle of the state the sequence produces.
    """
    economical = _named(_VARIANTS, variant, "variant")
    p, pq = _canonical_pair(pair)
    state = normalize(s)
    t = tangle_set(state)
    bound = dict(zip("abc", (t.tau_a_bc, t.tau_b_ca, t.tau_c_ab)))[PARTITION_SPECTATOR[p]]
    m, tol = _vectors(state)
    v1, v2 = m[QUBIT_AXIS[pq[0]]], m[QUBIT_AXIS[pq[1]]]
    seq: list = []

    info = gauge_phase(state)
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

    if economical:
        t16 = float(np.arctan2(i2, r1))
        t34 = float(np.arctan2(i1, r2))
        couplings = [coupling_axis_step(pq, n, m, -angle / 2)
                     for (n, m), angle in (((1, 3), t16), ((3, 1), t34)) if abs(angle) > 1e-15]
        meta_angles = {"angle_16": t16, "angle_34": t34}
    else:
        couplings = [_ZZ_STEPS[pq]]
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
    zero. Raises GaugeUndefined for zero three-tangle. Scale-free, like
    gauge_phase: both are taken at unit scale where |s|^4 is tiny, from one
    evaluation of the rescaled copy.
    """
    _, pq = _canonical_pair(pair)
    m, tol = _unit_scaled(s)
    aa = _dots(m)[0][0]   # gauge_phase's test and phase, from the same block
    if abs(aa) <= tol:
        raise GaugeUndefined("extremum condition needs a nonzero three-tangle")
    rows, phi, zero = m.tolist(), 0.5 * cmath.phase(aa), 1e-9 * math.sqrt(tol / EPS_INV)
    return max((abs(math.sin(cmath.phase(z) - phi))
                for q in pq for z in rows[QUBIT_AXIS[q]] if abs(z) > zero), default=0.0)


# --- Fubini-Study angle ----------------------------------------------------

def _random_su2_stack(rng, n: int) -> np.ndarray:
    """(n, 3, 2, 2) Haar-ish unitaries, every one drawn at random: one per restart and qubit."""
    # one draw in the order a per-unitary loop would consume the stream:
    # for each (restart, qubit) the four real parts, then the four imaginary
    z = rng.standard_normal((n, 3, 2, 2, 2))
    return np.linalg.qr(z[:, :, 0] + 1j * z[:, :, 1])[0]


@dataclass(frozen=True)
class FubiniStudyResult:
    """A Fubini-Study search: the angle and how its restarts ended.

    ``sweeps`` is the number of sweeps every restart took, min(4,
    max_sweeps); ``polish_iterations`` is the most polish steps any restart
    took; ``converged`` counts the restarts that ended stationary at
    rounding level; ``capped`` says whether a restart that did not converge
    used all of ``max_sweeps``; ``overlap_spread`` is the best minus the
    worst restart overlap (0 when every restart found the same optimum).
    """

    angle_degrees: float
    restarts: int
    sweeps: int
    polish_iterations: int
    converged: int
    capped: bool
    overlap_spread: float


def fubini_study_search(s1, s2, restarts: int = 32, seed: int = 0,
                        max_sweeps: int = 5000) -> FubiniStudyResult:
    """Angle (degrees) to the closest locally-equivalent state, with diagnostics.

    Maximizes the overlap over local unitaries on all three qubits from
    `restarts` random starting points. Each restart takes min(4, max_sweeps)
    sweeps of alternating exact single-qubit maximization, then a
    trust-region Newton polish over the 9 local angles that stops once the
    restart is stationary at rounding level; a restart the polish cannot
    move ends there, unconverged. `max_sweeps` caps each restart's
    iterations, sweeps and polish steps together. A stochastic search, so
    the result is an upper bound on the true minimum angle. The angle is
    recovered from the phase-matched state distance (2 arcsin(d/2)), which
    keeps tiny angles accurate where arccos of the overlap would lose half
    the digits. Raises ParseError for `restarts` or `max_sweeps` below 1 and
    a negative `seed`.
    """
    _check_options(seeds={"seed": seed}, counts={"restarts": restarts, "max_sweeps": max_sweeps})
    v1 = normalize(s1)
    v2 = normalize(s2)
    inits = _random_su2_stack(np.random.default_rng(seed), restarts)
    _, us, stats = _kernels.fs_best_overlap(v1.reshape(2, 2, 2), v2.reshape(2, 2, 2),
                                            inits, max_sweeps)
    w = np.einsum("ax,by,cz,xyz->abc", us[0], us[1], us[2],
                  v2.reshape(2, 2, 2)).reshape(8)
    ov = np.vdot(v1, w)
    if abs(ov) > 1e-150:
        w = w * (np.conj(ov) / abs(ov))
    d = float(np.linalg.norm(v1 - w))
    return FubiniStudyResult(float(np.degrees(2.0 * np.arcsin(min(1.0, d / 2.0)))),
                             len(inits), *stats)


def fubini_study_angle(s1, s2, restarts: int = 32, seed: int = 0,
                       max_sweeps: int = 5000) -> float:
    """Angle (degrees) to the closest locally-equivalent state.

    The angle of ``fubini_study_search`` with the same arguments: `max_sweeps`
    caps each restart's sweeps and Newton polish steps together, and the
    polish stops a restart on stationarity at rounding level. Refuses the
    same arguments with ParseError.
    """
    return fubini_study_search(s1, s2, restarts, seed, max_sweeps).angle_degrees


# --- independent ascent oracle ---------------------------------------------

#: a restart is stationary once the gradient of |A.A|^2 is below this times
#: T^2, T the spectator's bipartite tangle
_ASCENT_GTOL = 1e-10


@dataclass(frozen=True)
class TangleAscentResult:
    """A tangle ascent: the best three-tangle and how its restarts ended.

    ``iterations`` is the most Newton steps any restart took; ``converged``
    counts the restarts that ended stationary (not one that starts at zero
    tangle, the minimum, where no step moves it) or, when the spectator's
    bipartite tangle is zero at rounding, every restart, since every point
    is then at the maximum; ``capped`` says whether a restart that did not
    converge used all of ``max_iters``; ``tangle_spread`` is the best minus
    the worst restart tangle (0 when every restart found the same maximum).
    """

    tangle: float
    restarts: int
    iterations: int
    converged: int
    capped: bool
    tangle_spread: float


def tangle_ascent_search(s, pair: str = "ab", restarts: int = 16, seed: int = 0,
                         max_iters: int = 400) -> TangleAscentResult:
    """Numerically maximize the three-tangle over the pair's SU(4), with diagnostics.

    Independent of the analytic protocol: a trust-region Newton ascent of
    |A.A|^2 along the 9 pair couplings from `restarts` random points of the
    15-parameter group (the first is the identity), each run on the pair's
    6-vector (A, -iB), on which the pair's SU(4) acts as SO(6). Used to
    certify that nothing exceeds the invariant bound. `max_iters` caps each restart's
    Newton steps; a restart ends at rounding level or once the gradient of
    |A.A|^2 is below 1e-10 T^2, T the spectator's bipartite tangle (the
    bound), since that gradient scales as T^2. Raises ParseError for
    `restarts` or `max_iters` below 1 and a negative `seed`.
    """
    _check_options(seeds={"seed": seed}, counts={"restarts": restarts, "max_iters": max_iters})
    p, pq = _canonical_pair(pair)
    t = normalize(s).reshape(2, 2, 2)
    # relabel qubits so the coupled pair occupies the leading two slots;
    # the three-tangle is relabeling-invariant
    perm = tuple(QUBIT_AXIS[q] for q in pq + PARTITION_SPECTATOR[p])
    psi = np.ascontiguousarray(t.transpose(perm).reshape(8))
    rng = np.random.default_rng(seed)
    inits = np.zeros((restarts, 15))
    inits[1:] = rng.uniform(-np.pi, np.pi, size=(restarts - 1, 15))
    # no point of the orbit has a three-tangle above the spectator's bipartite
    # tangle T, and the gradient of |A.A|^2 scales as T^2, so the stop is
    # relative to T^2; when T is zero at rounding, every restart is at the maximum
    bound = bipartite_tangle_from_density(psi, "c")
    best, stats = _kernels.tangle_ascent_best(psi, SU4_BASIS, inits, max_iters,
                                              _ASCENT_GTOL * bound ** 2)
    if bound <= 64 * _kernels._EPS:
        stats = stats._replace(converged=restarts, capped=False)
    return TangleAscentResult(best, restarts, stats.polish, stats.converged, stats.capped,
                              stats.spread)


def tangle_ascent_oracle(s, pair: str = "ab", restarts: int = 16, seed: int = 0,
                         max_iters: int = 400) -> float:
    """Numerically maximize the three-tangle over the pair's full SU(4).

    The tangle of ``tangle_ascent_search`` with the same arguments; refuses
    the same arguments with ParseError.
    """
    return tangle_ascent_search(s, pair, restarts, seed, max_iters).tangle
