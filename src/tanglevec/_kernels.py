"""The two optimizer kernels, each batched over a leading restart axis.

Two optimizer loops dominate the library's runtime: the local-unitary
overlap maximization behind the Fubini-Study angle, and the gradient-ascent
oracle that cross-checks the analytic three-tangle maximum. Both run all
random restarts in lockstep. A per-restart mask freezes each restart at the
point where a one-restart-at-a-time loop would have stopped it, so every
restart follows the trajectory it would follow alone (up to rounding), and
a call costs as many iterations as its slowest restart instead of the sum
over restarts.

The overlap search has two phases. A few alternating polar-factor sweeps
(``fs_restarts``) bring each restart near an optimum; each update is the
2x2 polar factor of a partial overlap in closed form (``_polar_2x2``, a few
elementwise operations on the whole batch, no LAPACK call). The sweeps
converge only linearly, and on degenerate optima the unitaries keep
drifting along the flat directions long after the overlap has settled. So
a trust-region Newton polish on SU(2)^3 (``fs_polish``, 9 tangent angles
per restart) finishes every restart, and stops it once its gradient is at
rounding level: stationarity is judged, not the step of the unitaries.

The ascent's line search compares tangle values, which stop resolving
gains once a step's first-order gain eta |grad|^2 falls below the rounding
of |A.A|^2; a gradient tolerance alone sits below that floor. So a restart
also stops at the first rejected trial whose first-order gain is at most
eps |A.A|^2 (eps the double-precision epsilon): that trial and every
shorter one along the same direction are lost in rounding.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gates import I2, SIGMA, expi_hermitian
from .vectors import _A_QUADS

_EPS = np.finfo(float).eps
#: sweeps before the polish: they bring each restart near an optimum, and
#: settle most degenerate optima to rounding on their own
_SWEEPS = 4
_PAULI = np.stack((I2, *SIGMA))
# the rows [a, b, c, d] of a 2x2 matrix [[a, b], [c, d]]: the identity, and the
# signs that turn the reversed row [d, c, b, a] into the cofactors [d, -c, -b, a]
_EYE = np.array([1.0, 0.0, 0.0, 1.0])
_FLIP = np.array([1.0, -1.0, -1.0, 1.0])
# the Pauli strings sigma_i x sigma_j x sigma_k are numbered 16i + 4j + k:
# _ONE[3q + k - 1] inserts sigma_k on qubit q alone, _TWO[3q + k - 1, 3p + l - 1]
# inserts sigma_k on q and sigma_l on p != q (the string 0 where p == q)
_ONE = (np.array([16, 4, 1])[:, None] * np.arange(1, 4)).reshape(9)
_SAME = np.kron(np.eye(3, dtype=bool), np.ones((3, 3), dtype=bool))
_TWO = np.where(_SAME, 0, _ONE[:, None] + _ONE[None, :])


class KernelStats(NamedTuple):
    """How a batched ascent ended.

    ``iterations`` counts the line-search iterations of the longest-running
    restart; ``converged`` counts the restarts that stopped before reaching
    the iteration cap.
    """

    iterations: int
    converged: int


class FsStats(NamedTuple):
    """How an overlap search ended.

    ``sweeps`` and ``polish`` are the most sweeps and polish steps any
    restart took; ``converged`` counts the restarts that ended stationary;
    ``capped`` says whether a restart that did not converge used its whole
    iteration budget; ``spread`` is the best minus the worst restart overlap.
    """

    sweeps: int
    polish: int
    converged: int
    capped: bool
    spread: float


def _polar_2x2(m):
    """Maximizer and maximum of Re sum U * M over unitary U, for (R, 4) rows M.

    Row r holds M = [[a, b], [c, d]] = V S W^H. The maximizer is conj(V W^H),
    the conjugate of the unitary polar factor, and the maximum is the nuclear
    norm n = s1 + s2. With e = conj(det M) / |det M| (1 when det M = 0),
    conj(V W^H) = (conj(M) + e [[d, -c], [-b, a]]) / n and n^2 = |M|_F^2 +
    2 |det M|; when M has rank 1 every phase e gives a maximizer. Each row is
    first scaled by the power of two of its largest entry, so det M neither
    underflows nor overflows, and a zero row maps to the identity.

    Returns (maximizers (R, 2, 2), nuclear norms (R,)).
    """
    k = np.frexp(np.abs(m).max(axis=1))[1]
    x = np.ldexp(m.view(np.float64), -k[:, None])
    m = x.view(np.complex128)
    det = m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]
    adet = np.abs(det)
    flat = adet == 0.0
    e = np.conj(det + flat) / (adet + flat)
    n = np.sqrt(np.einsum("ri,ri->r", x, x) + 2.0 * adet)
    zero = n == 0.0
    # m[:, ::-1] * _FLIP is [d, -c, -b, a]
    u = np.conj(m) + (e[:, None] * _FLIP) * m[:, ::-1] + zero[:, None] * _EYE
    u /= (n + zero)[:, None]
    return u.reshape(-1, 2, 2), np.ldexp(n, k)


def fs_restarts(t1, t2, inits, max_sweeps, tol):
    """Alternating overlap maximization from every start in ``inits`` at once.

    With two factors fixed, the optimum over the third local unitary is the
    nuclear norm of a 2x2 partial overlap, attained at its polar factor, so
    each sweep is monotone. Each of a sweep's three updates takes the polar
    factors of all restarts at once, in closed form (``_polar_2x2``, no
    LAPACK call). A restart stops after the first sweep in which no unitary
    moves by more than ``tol`` (max-norm): the step, not the overlap, is
    judged, because the updates keep sharpening the optimum after the
    double-precision overlap has saturated.

    Returns (overlaps (R,), unitaries (R, 3, 2, 2), sweeps used (R,),
    converged (R,) bool).
    """
    # g[q][(x_q, y_q), (x_o1, y_o1, x_o2, y_o2)] = conj(t1)[x] t2[y]: the partial
    # overlap for qubit q is g[q] applied to the Kronecker pair of the other two
    g = np.einsum("abc,xyz->axbycz", np.conj(t1), t2).reshape(4, 4, 4)
    gq = [np.ascontiguousarray(g.transpose(q, *(p for p in range(3) if p != q)).reshape(4, 16).T)
          for q in range(3)]
    others = [(1, 2), (0, 2), (0, 1)]
    n = inits.shape[0]
    us = np.array(inits, dtype=np.complex128)
    vals = np.zeros(n)
    sweeps = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    act = np.arange(n)
    u = us.copy()
    for _ in range(max_sweeps):
        step = np.zeros(act.size)
        for q in range(3):
            o1, o2 = others[q]
            pair = (u[:, o1].reshape(-1, 4, 1) * u[:, o2].reshape(-1, 1, 4)).reshape(-1, 16)
            unew, nuc = _polar_2x2(pair @ gq[q])
            step = np.maximum(step, np.abs(unew - u[:, q]).max(axis=(1, 2)))
            u[:, q] = unew
        sweeps[act] += 1
        vals[act] = nuc
        stop = step < tol
        if stop.any():
            us[act] = u
            converged[act[stop]] = True
            act, u = act[~stop], u[~stop]
            if act.size == 0:
                break
    us[act] = u
    return vals, us, sweeps, converged


def _fs_model(t1c, table, us):
    """Overlap |c|, gradient g and Hessian H of |c|^2 on SU(2)^3 at ``us``.

    The 9 tangent angles x move each unitary to U_q exp(i x_q . sigma). To
    second order c(x) = <t1| (x)_q U_q exp(i x_q . sigma) |t2> is
    c0 + i sum x_qk c_qk - |x|^2 c0 / 2 - sum_{q<p} x_qk x_pl c_qk,pl, where
    c_qk and c_qk,pl overlap t1^H (Ua x Ub x Uc) with one or two Pauli
    insertions on t2: all 64 insertions are one product with ``table``.
    """
    ua, ub, uc = us[:, 0], us[:, 1], us[:, 2]
    k = (ua[:, :, None, None, :, None, None] * ub[:, None, :, None, None, :, None]
         * uc[:, None, None, :, None, None, :]).reshape(-1, 8, 8)
    cp = (t1c @ k) @ table
    c0 = cp[:, 0]
    a = cp[:, _ONE]
    h = -2.0 * np.real(np.conj(c0)[:, None, None] * cp[:, _TWO])
    h[:, _SAME] = 0.0
    h += 2.0 * np.real(np.conj(a)[:, :, None] * a[:, None, :])
    h -= (2.0 * np.abs(c0) ** 2)[:, None, None] * np.eye(9)
    return np.abs(c0), -2.0 * np.imag(np.conj(c0)[:, None] * a), h


def _su2_exp(x):
    """exp(i x_q . sigma) for (R, 9) angles, as (R, 3, 2, 2)."""
    x = x.reshape(-1, 3, 3)
    t = np.linalg.norm(x, axis=2)
    cs = np.cos(t)
    x1, x2, x3 = np.moveaxis(x * np.sinc(t / np.pi)[..., None], 2, 0)
    return np.stack([cs + 1j * x3, x2 + 1j * x1, -x2 + 1j * x1, cs - 1j * x3],
                    axis=-1).reshape(-1, 3, 2, 2)


def fs_polish(t1, t2, us, budget):
    """Trust-region Newton ascent of |c|^2 from every row of ``us`` at once.

    Each step is the saddle-free Newton step |H|^-1 g (H = V diag(lam) V^T,
    |H| = V diag(|lam|) V^T), cut back to the restart's trust radius; |lam|
    is floored at 1e-3 max |lam|, since GHZ's local stabilizer leaves flat
    directions. The radius starts at 0.5 and doubles, up to 1, after a step
    to the boundary that achieved over 0.75 of its predicted gain. A step is
    accepted when it achieves 0.25 of its predicted gain; once the predicted
    gain is within 8 eps |c|^2, where the overlaps no longer resolve it, a
    step is accepted when it lowers |g|. A rejected step shrinks the radius to
    a quarter of the step.

    A restart stops when stationary at rounding level, |g| <= 64 eps |c|;
    at a rejected step whose predicted gain is within 8 eps |c|^2, where
    no shorter step can be resolved either; or after ``budget`` (R,) steps.
    The first counts as converged, and so does the second when the gradient
    is within sqrt(eps) |c|; a restart that stops at rounding with a larger
    gradient is one the polish cannot move. Neither test counts |c| = 0 as
    converged: there |c|^2 is at its minimum, and a restart that starts
    there is one the polish cannot move.

    Returns (overlaps (R,), unitaries (R, 3, 2, 2), steps (R,), converged
    (R,) bool, cannot move (R,) bool).
    """
    t1c = np.conj(t1).reshape(8)
    table = np.einsum("iax,jby,kcz,xyz->abcijk", _PAULI, _PAULI, _PAULI, t2).reshape(8, 64)
    n = us.shape[0]
    us = us.copy()
    vals, g, h = _fs_model(t1c, table, us)
    gnorm = np.linalg.norm(g, axis=1)
    steps = np.zeros(n, dtype=np.int64)
    converged = (vals > 0.0) & (gnorm <= 64 * _EPS * vals)
    # at |c| = 0, |c|^2 is at its minimum with zero gradient: no step moves it
    stuck = vals == 0.0
    radius = np.full(n, 0.5)
    lam = np.ones((n, 9))
    vec = np.zeros((n, 9, 9))
    fresh = np.ones(n, dtype=bool)  # at a new point: H must be decomposed
    act = np.flatnonzero(~converged & ~stuck & (budget > 0))
    while act.size:
        due = act[fresh[act]]
        if due.size:
            w, vec[due] = np.linalg.eigh(h[due])
            w = np.abs(w)
            lam[due] = np.maximum(w, 1e-3 * w.max(axis=1, keepdims=True))
        v, ga, ha, c = vec[act], g[act], h[act], vals[act]
        d = np.einsum("rij,rj->ri", v, np.einsum("rji,rj->ri", v, ga) / lam[act])
        dnorm = np.linalg.norm(d, axis=1)
        cut = np.minimum(1.0, radius[act] / dnorm)
        d *= cut[:, None]
        pred = np.einsum("ri,ri->r", ga, d) + 0.5 * np.einsum("ri,rij,rj->r", d, ha, d)
        trial = us[act] @ _su2_exp(d)
        vt, gt, ht = _fs_model(t1c, table, trial)
        gtnorm = np.linalg.norm(gt, axis=1)
        gain = vt ** 2 - c ** 2
        rounding = pred <= 8 * _EPS * c ** 2
        ok = np.where(rounding, gtnorm < gnorm[act], gain >= 0.25 * pred)
        steps[act] += 1
        grow = ok & (cut < 1.0) & (gain > 0.75 * pred)
        radius[act] = np.where(ok, np.where(grow, np.minimum(2.0 * radius[act], 1.0),
                                            radius[act]), 0.25 * cut * dnorm)
        new = act[ok]
        us[new], vals[new], g[new], h[new], gnorm[new] = (trial[ok], vt[ok], gt[ok], ht[ok],
                                                          gtnorm[ok])
        fresh[act] = ok
        done = ok & (gtnorm <= 64 * _EPS * vt)
        floor = ~ok & rounding
        near = (c > 0.0) & (gnorm[act] <= np.sqrt(_EPS) * c)
        converged[act] = done | (floor & near)
        stuck[act] = floor & ~near
        act = act[~(done | floor) & (steps[act] < budget[act])]
    return vals, us, steps, converged, stuck


def fs_best_overlap(t1, t2, inits, max_sweeps, tol):
    """Best |<t1| Ua x Ub x Uc |t2>| over local unitaries.

    Every restart runs ``fs_restarts`` for at most _SWEEPS sweeps, then
    ``fs_polish`` for the rest of its ``max_sweeps`` iterations (a sweep and
    a polish step count one each); a restart the polish cannot move goes
    back to the sweep for what is left of its budget and is not counted as
    converged. Keeps the first restart with the largest overlap. Returns
    (best overlap, its three unitaries, FsStats), so callers can recompute
    the angle from the state distance, which stays well-conditioned when the
    overlap approaches 1.
    """
    _, us, sweeps, _ = fs_restarts(t1, t2, inits, min(_SWEEPS, max_sweeps), tol)
    vals, us, polish, converged, stuck = fs_polish(t1, t2, us, max_sweeps - sweeps)
    left = max_sweeps - sweeps - polish
    back = stuck & (left > 0)
    if back.any():
        vals[back], us[back], more, _ = fs_restarts(t1, t2, us[back], int(left[back].min()), tol)
        sweeps[back] += more
    r = int(np.argmax(vals))
    best_us = us[r] if vals[r] > 0.0 else np.stack([np.eye(2, dtype=np.complex128)] * 3)
    capped = bool(((sweeps + polish >= max_sweeps) & ~converged).any())
    stats = FsStats(int(sweeps.max()), int(polish.max()), int(converged.sum()), capped,
                    float(vals.max() - vals.min()))
    return min(float(vals[r]), 1.0), best_us, stats


def _a_vector(psi):
    """A_i = psi^T Q_i psi and Q_i psi for a (R, 8) stack of states."""
    qpsi = (psi @ _A_QUADS.reshape(24, 8).T).reshape(-1, 3, 8)
    return np.einsum("rim,rm->ri", qpsi, psi), qpsi


def _tangle_sq(a):
    return np.abs(np.einsum("ri,ri->r", a, a)) ** 2


def tangle_ascent_best(psi0, gens, inits, max_iters, gtol):
    """Best three-tangle from Riemannian gradient ascent on the pair group.

    Ascends |A.A|^2 over exp(sum_k xi_k G_k) acting on the leading qubit
    pair, from each row of ``inits``. Every restart runs its own line search:
    after an accepted step it takes a gradient; each trial step that fails to
    improve shrinks its step size by 0.4, an accepted one grows it by 1.3.
    A restart stops at a gradient below ``gtol``, at ``max_iters`` iterations,
    or when its line search fails: a rejected trial whose first-order gain
    eta |grad|^2 is at most eps |A.A|^2 (below what a double-precision
    comparison can resolve), 50 trials, or a step size below 1e-16. The
    restarts advance in lockstep, one trial per tick. A trial step is
    exp(i eta H) with H the gradient direction, so each direction is
    diagonalized once, in one stacked eigendecomposition with the other
    restarts' new directions, and every trial along it only rescales phases.

    Returns (4 sqrt(best |A.A|^2), KernelStats).
    """
    n = inits.shape[0]
    flat_gens = gens.reshape(15, 16)
    neg_i_gens = (-1j * gens).reshape(15, 16)
    # states are (4, 2) matrices with the coupled pair on the rows
    start = expi_hermitian((inits @ neg_i_gens).reshape(n, 4, 4))
    psi = (start @ psi0.reshape(4, 2)).reshape(n, 8)
    a, qpsi = _a_vector(psi)
    g = _tangle_sq(a)
    eta = np.full(n, 0.1)
    # search direction exp(i eta H) = vec diag(exp(i eta lam)) vec^H, and
    # phi = vec^H psi; a restart stopped at its first gradient keeps H = 0
    lam = np.zeros((n, 4))
    vec = np.tile(np.eye(4, dtype=np.complex128), (n, 1, 1))
    iters = np.zeros(n, dtype=np.int64)
    tries = np.zeros(n, dtype=np.int64)
    fresh = np.ones(n, dtype=bool)  # started or just accepted a step: gradient due
    active = np.ones(n, dtype=bool)
    capped = np.zeros(n, dtype=bool)
    # every tick evaluates the whole batch (the cost is per call, not per row)
    # and masks which restarts take the results
    while True:
        if fresh.any():
            v = np.einsum("ri,rim->rm", a, qpsi)
            # (G_k psi).v = sum_xy G_k[x, y] (V Psi^T)[x, y] on the pair axes
            w = v.reshape(n, 4, 2) @ psi.reshape(n, 4, 2).transpose(0, 2, 1)
            a2 = np.einsum("ri,ri->r", a, a)
            grad = 8.0 * np.real(np.conj(a2)[:, None] * (w.reshape(n, 16) @ flat_gens.T))
            capped |= fresh & (iters >= max_iters)
            # a row that accepted no step kept its state and direction, so
            # every row of grad, gsq and phi holds its restart's current values
            gsq = np.einsum("rk,rk->r", grad, grad)
            active &= ~(fresh & ((gsq < gtol * gtol) | capped))
            tries[fresh] = 0
            due = fresh & active
            lam[due], vec[due] = np.linalg.eigh((grad[due] @ neg_i_gens).reshape(-1, 4, 4))
            phi = vec.conj().transpose(0, 2, 1) @ psi.reshape(n, 4, 2)
        if not active.any():
            break
        trial = (vec @ (np.exp(1j * eta[:, None] * lam)[:, :, None] * phi)).reshape(n, 8)
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        at, qt = _a_vector(trial)
        gt = _tangle_sq(at)
        fresh = active & (gt > g)
        np.copyto(psi, trial, where=fresh[:, None])
        np.copyto(a, at, where=fresh[:, None])
        np.copyto(qpsi, qt, where=fresh[:, None, None])
        np.copyto(g, gt, where=fresh)
        eta[fresh] *= 1.3
        iters += fresh
        rejected = active & ~fresh
        # the trial's first-order gain eta |grad|^2 is within the rounding of
        # g, so neither it nor any shorter trial can show an improvement
        stalled = eta * gsq <= _EPS * g
        eta[rejected] *= 0.4
        tries += rejected
        # a line search that brings no improvement ends the restart's ascent
        failed = rejected & (stalled | (tries == 50) | (eta < 1e-16))
        iters += failed
        active &= ~failed
    stats = KernelStats(int(iters.max()), int(n - capped.sum()))
    return 4.0 * np.sqrt(g.max()), stats
