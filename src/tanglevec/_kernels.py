"""The two optimizer kernels, each batched over a leading restart axis.

Two optimizer loops dominate the library's runtime: the local-unitary
overlap maximization behind the Fubini-Study angle, and the ascent oracle
that cross-checks the analytic three-tangle maximum. Both run all random
restarts in lockstep, so a call costs as many iterations as its slowest
restart instead of the sum over restarts. The Newton loop works on a
compact array of the restarts still live and writes each back where a
one-restart-at-a-time loop would stop it: no restart depends on its batch.

Both end in one trust-region Newton loop (``_newton``). It takes a model,
which gives the value, gradient and Hessian for a stack of restarts, and a
retraction, which moves each restart along a tangent step; it stops each
restart once its gradient is at rounding level, so stationarity is judged,
not the size of a step.

The overlap search starts with a fixed number of alternating polar-factor
sweeps (``fs_restarts``, the same count for every restart, so no mask) that
bring each restart near an optimum; each update is the 2x2 polar factor of
a partial overlap in closed form (``_polar_2x2``, a few elementwise
operations on the whole batch, no LAPACK call). The sweeps
converge only linearly, and on degenerate optima the unitaries keep
drifting along the flat directions long after the overlap has settled, so
the Newton loop finishes every restart on SU(2)^3 (``_fs_model``, 9 tangent
angles).

The ascent maps each random start once to the pair's 6-vector
Q = (A, -iB), on which the pair's SU(4) acts as SO(6), and goes straight
into the Newton loop. Its model (``_ascent_model``) moves Q along the 9
coupling images Lambda_{n,m} alone: local unitaries on the pair leave
|A.A| fixed. The gradient and Hessian of |A.A|^2 are a few outer products
of Q's two halves, and the retraction (``_pair_cayley``), the Cayley
transform, agrees with the exponential to second order in one 3x3 solve.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gates import I2, SIGMA, expi_hermitian
from .vectors import _ABC_QUADS

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
#: the forms of the 6-vector (A, -iB) of the leading pair
_PAIR_QUADS = _ABC_QUADS[:48].reshape(6, 8, 8) * np.repeat([1.0, -1j], 3)[:, None, None]
_I3 = np.eye(3)
# 2 Re(conj(f) d2f) is W @ _D2F, for W = Re(conj(f) Q Q^T) as (R, 36) rows (_ascent_model)
_E = np.eye(6)
_D2F = 4.0 * (np.einsum("mi,pj,nq->ijnmqp", _E[3:], _E[3:], _I3)
              - np.einsum("ni,qj,mp->ijnmqp", _E[:3], _E[:3], _I3)).reshape(36, 81)


class SearchStats(NamedTuple):
    """How a batched search ended.

    ``sweeps`` is the number of sweeps every restart took (the ascent takes
    none) and ``polish`` the most Newton steps any restart took;
    ``converged`` counts the restarts that ended stationary; ``capped`` says
    whether a restart that did not converge used its whole iteration budget;
    ``spread`` is the best minus the worst restart optimum.
    """

    sweeps: int
    polish: int
    converged: int
    capped: bool
    spread: float


def _stats(vals, sweeps, polish, converged, cap):
    capped = bool(((sweeps + polish >= cap) & ~converged).any())
    return SearchStats(sweeps, int(polish.max()), int(converged.sum()), capped,
                       float(vals.max() - vals.min()))


def _newton(model, retract, x, budget, gtol):
    """Trust-region Newton ascent of v^2 from every row of ``x`` at once.

    ``model(x)`` gives v (R,) and the gradient g (R, n) and Hessian H
    (R, n, n) of v^2 in the tangent angles at x; ``retract(x, d)`` moves
    each row of x by the tangent step d, in agreement with the model to
    second order. Each step is the saddle-free Newton step |H|^-1 g
    (H = V diag(lam) V^T, |H| = V diag(|lam|) V^T), cut back to the
    restart's trust radius; |lam| is floored at 1e-3 max |lam|, since an
    optimum with a continuous symmetry has flat directions. The radius
    starts at 0.5 and doubles, up to 1, after a step to the boundary that
    achieved over 0.75 of its predicted gain. A step is accepted when it
    achieves 0.25 of its predicted gain; once the predicted gain is within
    8 eps v^2, where v^2 no longer resolves it, a step is accepted when it
    lowers |g|. A rejected step shrinks the radius to a quarter of the step.

    A restart stops when stationary, |g| <= max(gtol, 64 eps v); at a
    rejected step whose predicted gain is within 8 eps v^2, where no
    shorter step can be resolved either; or after ``budget`` (R,) steps.
    The first counts as converged, and so does the second when the gradient
    is within sqrt(eps) v; a restart that stops at rounding with a larger
    gradient is one the loop cannot move. Neither test counts v = 0 as
    converged: there v^2 is at its minimum, and a restart that starts there
    is one the loop cannot move, so it takes no step.

    Returns (v (R,), points, steps (R,), converged (R,) bool).
    """
    vals, g, h = model(x)
    gnorm = np.linalg.norm(g, axis=1)
    steps = np.zeros(len(vals), dtype=np.int64)
    converged = (vals > 0.0) & (gnorm <= np.maximum(gtol, 64 * _EPS * vals))
    x = x.copy()
    # at v = 0, v^2 is at its minimum with zero gradient: no step moves it.
    # The live restarts are gathered once; a row is written back when it stops
    live = np.flatnonzero(~converged & (vals > 0.0) & (budget > 0))
    lx, lv, lg, lh, lgn, left = x[live], vals[live], g[live], h[live], gnorm[live], budget[live]
    radius = np.full(live.size, 0.5)
    # each row's uncut step and its norm, kept until the row moves
    full, fnorm = np.empty_like(lg), np.empty_like(lgn)
    fresh = np.ones(live.size, dtype=bool)   # at a new point: H must be decomposed
    it = 0
    while live.size:
        if fresh.any():
            w, vec = np.linalg.eigh(lh[fresh])
            w = np.abs(w)
            lam = np.maximum(w, 1e-3 * w.max(axis=1, keepdims=True))
            full[fresh] = ((lg[fresh, None] @ vec) / lam[:, None] @ vec.transpose(0, 2, 1))[:, 0]
            fnorm[fresh] = np.linalg.norm(full[fresh], axis=1)
        cut = np.minimum(1.0, radius / fnorm)
        d = full * cut[:, None]
        pred = ((lg + 0.5 * (lh @ d[:, :, None])[:, :, 0]) * d).sum(axis=1)
        trial = retract(lx, d)
        vt, gt, ht = model(trial)
        gtn = np.linalg.norm(gt, axis=1)
        c2 = lv * lv
        gain, rounding = vt * vt - c2, pred <= 8 * _EPS * c2
        ok = np.where(rounding, gtn < lgn, gain >= 0.25 * pred)
        it += 1
        grow = ok & (cut < 1.0) & (gain > 0.75 * pred)
        radius = np.where(ok, np.where(grow, np.minimum(2.0 * radius, 1.0), radius),
                          0.25 * cut * fnorm)
        floor = ~ok & rounding
        if ok.all():
            lx, lv, lg, lh, lgn = trial, vt, gt, ht, gtn
        else:
            lx[ok], lv[ok], lg[ok], lh[ok], lgn[ok] = trial[ok], vt[ok], gt[ok], ht[ok], gtn[ok]
        fresh = ok
        done = ok & (gtn <= np.maximum(gtol, 64 * _EPS * vt))
        stop = done | floor | (it >= left)
        if stop.any():
            rows, keep = live[stop], ~stop
            x[rows], vals[rows], steps[rows] = lx[stop], lv[stop], it
            converged[rows] = (done | (floor & (lv > 0.0) & (lgn <= np.sqrt(_EPS) * lv)))[stop]
            live, lx, lv, lg, lh, lgn, left, radius, full, fnorm, fresh = (
                t[keep] for t in (live, lx, lv, lg, lh, lgn, left, radius, full, fnorm, fresh))
    return vals, x, steps, converged


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


def fs_restarts(t1, t2, inits, sweeps):
    """``sweeps`` alternating overlap sweeps from every start in ``inits`` at once.

    With two factors fixed, the optimum over the third local unitary is the
    nuclear norm of a 2x2 partial overlap, attained at its polar factor, so
    each sweep is monotone. Each of a sweep's three updates takes the polar
    factors of all restarts at once, in closed form (``_polar_2x2``, no
    LAPACK call).

    Returns (overlaps (R,), unitaries (R, 3, 2, 2)).
    """
    # g[q][(x_q, y_q), (x_o1, y_o1, x_o2, y_o2)] = conj(t1)[x] t2[y]: the partial
    # overlap for qubit q is g[q] applied to the Kronecker pair of the other two
    g = np.einsum("abc,xyz->axbycz", np.conj(t1), t2).reshape(4, 4, 4)
    gq = [np.ascontiguousarray(g.transpose(q, *(p for p in range(3) if p != q)).reshape(4, 16).T)
          for q in range(3)]
    others = [(1, 2), (0, 2), (0, 1)]
    u = np.array(inits, dtype=np.complex128)
    vals = np.zeros(u.shape[0])
    for _ in range(sweeps):
        for q in range(3):
            o1, o2 = others[q]
            pair = (u[:, o1].reshape(-1, 4, 1) * u[:, o2].reshape(-1, 1, 4)).reshape(-1, 16)
            u[:, q], vals = _polar_2x2(pair @ gq[q])
    return vals, u


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
    """``_newton`` on |c|^2 over SU(2)^3 from every row of ``us`` at once.

    The step at U moves each unitary to U_q exp(i x_q . sigma); GHZ's local
    stabilizer leaves flat directions at every optimum. Returns (overlaps
    (R,), unitaries (R, 3, 2, 2), steps (R,), converged (R,) bool).
    """
    t1c = np.conj(t1).reshape(8)
    table = np.einsum("iax,jby,kcz,xyz->abcijk", _PAULI, _PAULI, _PAULI, t2).reshape(8, 64)
    return _newton(lambda u: _fs_model(t1c, table, u), lambda u, d: u @ _su2_exp(d),
                   us, budget, 0.0)


def fs_best_overlap(t1, t2, inits, max_sweeps):
    """Best |<t1| Ua x Ub x Uc |t2>| over local unitaries.

    Every restart runs ``fs_restarts`` for min(_SWEEPS, max_sweeps) sweeps,
    then ``fs_polish`` for the rest of its ``max_sweeps`` iterations (a sweep
    and a polish step count one each); a restart the polish cannot move ends
    where the polish left it and is not counted as converged. Keeps the
    first restart with the largest overlap. Returns (best overlap, its three
    unitaries, SearchStats), so callers can recompute the angle from the
    state distance, which stays well-conditioned when the overlap approaches
    1. Overlaps are clamped to 1, the best as well as those in the spread.
    """
    sweeps = min(_SWEEPS, max_sweeps)
    _, us = fs_restarts(t1, t2, inits, sweeps)
    vals, us, polish, converged = fs_polish(t1, t2, us, np.full(len(us), max_sweeps - sweeps))
    r = int(np.argmax(vals))
    best_us = us[r] if vals[r] > 0.0 else np.stack([np.eye(2, dtype=np.complex128)] * 3)
    vals = np.minimum(vals, 1.0)
    return float(vals[r]), best_us, _stats(vals, sweeps, polish, converged, max_sweeps)


def _ascent_model(q):
    """|f|, gradient g and Hessian H of |f|^2, f = A.A, at the (R, 6) 6-vectors Q.

    The 9 tangent angles x move Q = (Q_A, Q_B) to exp(sum_k x_k Lambda_k) Q,
    k = 3(n-1) + m-1, and Lambda_{n,m} turns (Q_A)_n into (Q_B)_m. So
    f = Q_A.Q_A has df_k = -2 (Q_A)_n (Q_B)_m and d2f = 2 (I3 x Q_B Q_B^T -
    Q_A Q_A^T x I3). Then g = 2 Re(conj(f) df) and H = 2 Re(conj(df) df^T +
    conj(f) d2f), where all but 2 Re(conj(df) df^T) is linear in W = Re(conj(f) Q Q^T).
    """
    qa = q[:, :3]
    f = np.einsum("ri,ri->r", qa, qa)
    qq = q[:, :, None] * q[:, None, :]
    df = -2.0 * qq[:, :3, 3:].reshape(-1, 9)
    w = np.real(np.conj(f)[:, None, None] * qq)
    dv = df.view(np.float64).reshape(-1, 9, 2)
    h = w.reshape(-1, 36) @ _D2F
    h += 2.0 * (dv @ dv.transpose(0, 2, 1)).reshape(-1, 81)
    return np.abs(f), -4.0 * w[:, :3, 3:].reshape(-1, 9), h.reshape(-1, 9, 9)


def _pair_cayley(q, d):
    """(1 - G/2)^-1 (1 + G/2) Q, G = [[0, -D], [D^T, 0]], D the 3x3 d, on (R, 6) rows.

    G = sum_k d_k Lambda_k. The result is 2 U - Q with (1 - G/2) U = Q, whose
    lower half solves (I + D^T D / 4) U_B = Q_B + D^T Q_A / 2, the Schur
    complement, with Re and Im as two right-hand sides.
    """
    dm = d.reshape(-1, 3, 3)
    dt = dm.transpose(0, 2, 1)
    x = q.view(np.float64).reshape(-1, 6, 2)
    xa, xb = x[:, :3], x[:, 3:]
    ub = np.linalg.solve(_I3 + 0.25 * (dt @ dm), xb + 0.5 * (dt @ xa))
    return np.concatenate((xa - dm @ ub, 2.0 * ub - xb), axis=1).view(np.complex128)[:, :, 0]


def tangle_ascent_best(psi0, gens, inits, max_iters, gtol):
    """Best three-tangle from a Newton ascent on the pair group.

    Each restart starts at exp(sum_k xi_k G_k) psi0 for its row xi of
    ``inits``, with the 15 generators ``gens`` acting on the leading qubit
    pair, mapped once to its 6-vector Q = (A, -iB). ``_newton`` runs on
    |A.A|^2 over the 9 coupling images (``_ascent_model``) for at most
    ``max_iters`` steps; ``gtol`` is the gradient at which a restart counts
    as stationary even above rounding.

    Returns (4 max |A.A|, SearchStats over the restart tangles).
    """
    n = inits.shape[0]
    start = expi_hermitian((inits @ (-1j * gens).reshape(15, 16)).reshape(n, 4, 4))
    psi = (start @ psi0.reshape(4, 2)).reshape(n, 8)
    q = np.einsum("rm,kmn,rn->rk", psi, _PAIR_QUADS, psi)
    vals, _, steps, converged = _newton(_ascent_model, _pair_cayley, q,
                                        np.full(n, max_iters), gtol)
    tangles = 4.0 * vals
    return float(tangles.max()), _stats(tangles, 0, steps, converged, max_iters)
