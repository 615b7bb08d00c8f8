"""The two optimizer kernels, each batched over a leading restart axis.

Two optimizer loops dominate the library's runtime: the local-unitary
overlap maximization behind the Fubini-Study angle, and the gradient-ascent
oracle that cross-checks the analytic three-tangle maximum. Both run all
random restarts in lockstep. A per-restart mask freezes each restart at the
point where a one-restart-at-a-time loop would have stopped it, so every
restart follows the trajectory it would follow alone (up to rounding), and
a call costs as many iterations as its slowest restart instead of the sum
over restarts.

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

from .gates import expi_hermitian
from .vectors import _A_QUADS

_EPS = np.finfo(float).eps


class KernelStats(NamedTuple):
    """How a batched optimizer run ended.

    ``iterations`` counts the sweeps (overlap search) or line-search
    iterations (ascent) of the longest-running restart; ``converged`` counts
    the restarts that stopped before reaching the iteration cap.
    """

    iterations: int
    converged: int


def fs_restarts(t1, t2, inits, max_sweeps, tol):
    """Alternating overlap maximization from every start in ``inits`` at once.

    With two factors fixed, the optimum over the third local unitary is the
    nuclear norm of a 2x2 partial overlap, attained at its polar factor, so
    each sweep is monotone. A restart stops after the first sweep in which no
    unitary moves by more than ``tol`` (max-norm): the step, not the overlap,
    is judged, because the updates keep sharpening the optimum after the
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
            # the maximizer of Re tr(U t) is conj(V W^H) for t = V S W^H
            v, sv, wh = np.linalg.svd((pair @ gq[q]).reshape(-1, 2, 2))
            unew = np.conj(v @ wh)
            step = np.maximum(step, np.abs(unew - u[:, q]).max(axis=(1, 2)))
            u[:, q] = unew
        sweeps[act] += 1
        vals[act] = sv.sum(axis=1)
        stop = step < tol
        if stop.any():
            us[act] = u
            converged[act[stop]] = True
            act, u = act[~stop], u[~stop]
            if act.size == 0:
                break
    us[act] = u
    return vals, us, sweeps, converged


def fs_best_overlap(t1, t2, inits, max_sweeps, tol):
    """Best |<t1| Ua x Ub x Uc |t2>| over local unitaries.

    Runs ``fs_restarts`` and keeps the first restart with the largest
    overlap. Returns (best overlap, its three unitaries, KernelStats), so
    callers can recompute the angle from the state distance, which stays
    well-conditioned when the overlap approaches 1.
    """
    vals, us, sweeps, converged = fs_restarts(t1, t2, inits, max_sweeps, tol)
    r = int(np.argmax(vals))
    best_us = us[r] if vals[r] > 0.0 else np.stack([np.eye(2, dtype=np.complex128)] * 3)
    stats = KernelStats(int(sweeps.max()), int(converged.sum()))
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
