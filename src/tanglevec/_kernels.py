"""The two optimizer kernels, each batched over a leading restart axis.

Two optimizer loops dominate the library's runtime: the local-unitary
overlap maximization behind the Fubini-Study angle, and the ascent oracle
that cross-checks the analytic three-tangle maximum. Both run all random
restarts in lockstep, so a call costs as many iterations as its slowest
restart instead of the sum over restarts. The Newton loop works on a
compact array of the restarts still live and writes each back where a
one-restart-at-a-time loop would stop it: no restart depends on its batch.

Both end in one trust-region Newton loop (``_newton``). It takes a model,
which gives the value, the gradient and a record of the Hessian for a stack
of restarts; a solve, which turns gradient and record into the saddle-free
Newton step; and a retraction, which moves each restart along a tangent
step. It stops each restart once its gradient is at rounding level, so
stationarity is judged, not the size of a step. The overlap search's solve
(``_eigh_step``) takes the Hessian's eigendecomposition; the ascent's
(``_ascent_step``) needs no LAPACK call.

The overlap search starts with a fixed number of alternating polar-factor
sweeps (``fs_restarts``, the same count for every restart, so no mask) that
bring each restart near an optimum; each update is the 2x2 polar factor of
a partial overlap in closed form (``_polar_2x2``, a few elementwise
operations on the whole batch, no LAPACK call). The sweeps converge only
linearly, and on degenerate optima the unitaries keep drifting along the
flat directions long after the overlap has settled, so the Newton loop
finishes every restart on SU(2)^3 (``_fs_model``, 9 tangent angles).

The ascent works from its first line on the pair's 6-vector Q = (Q_A, Q_B),
as ``vectors.q_vector`` packs it ((A, -iB) for ab), on which the pair's
SU(4) acts as SO(6): each random start is an so(6) exponential applied to Q
(``so6._so6_exp``). Its model (``_ascent_model``) moves Q along the 9
coupling images Lambda_{n,m} alone: local unitaries on the pair leave |A.A|
fixed. The gradient of |A.A|^2 and the record of its Hessian are a few
products of Q's two halves. In the gauge where A.A is real that Hessian
splits into two 2x2 blocks and five diagonal entries, and the gradient lies
in one block, so the step is one 2x2 formula written back as a mix of two
9-vectors of the record. The retraction (``_pair_cayley``), the Cayley
transform, agrees with the exponential to second order in one 3x3 solve.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gates import I2, SIGMA
from .so6 import _so6_exp

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
_I3 = np.eye(3)
#: each step solve floors |lam| at this share of the Hessian's largest |lam|
_FLOOR = 1e-3


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


def _newton(model, solve, retract, x, budget, gtol):
    """Trust-region Newton ascent of v^2 from every row of ``x`` at once.

    ``model(x)`` gives v (R,), the gradient g (R, n) of v^2 in the tangent
    angles at x and a per-row record h of its Hessian H there; ``retract(x,
    d)`` moves each row of x by the tangent step d, in agreement with the
    model to second order. ``solve(g, h)`` gives, for stacked rows, the
    saddle-free Newton step |H|^-1 g (H = V diag(lam) V^T, |H| = V
    diag(|lam|) V^T) with |lam| floored at ``_FLOOR`` max |lam|, since an
    optimum with a continuous symmetry has flat directions; its norm; its
    slope g.step; and its curvature step^T H step. Each step is cut back to
    the restart's trust radius, so its predicted gain is cut (slope + cut
    curvature / 2). The radius starts at 0.5 and doubles, up to 1, after a
    step to the boundary that achieved over 0.75 of its predicted gain. A
    step is accepted when it achieves 0.25 of its predicted gain; once the
    predicted gain is within 8 eps v^2, where v^2 no longer resolves it, a
    step is accepted when it lowers |g|. A rejected step shrinks the radius
    to a quarter of the step.

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
    gnorm = np.sqrt(np.einsum("ri,ri->r", g, g))
    steps = np.zeros(len(vals), dtype=np.int64)
    converged = (vals > 0.0) & (gnorm <= np.maximum(gtol, 64 * _EPS * vals))
    x = x.copy()
    # at v = 0, v^2 is at its minimum with zero gradient: no step moves it.
    # The live restarts are gathered once; a row is written back when it stops
    live = np.flatnonzero(~converged & (vals > 0.0) & (budget > 0))
    lx, lv, lg, lh, lgn, left = x[live], vals[live], g[live], h[live], gnorm[live], budget[live]
    radius = np.full(live.size, 0.5)
    it = 0
    while live.size:
        full, fnorm, slope, curv = solve(lg, lh)
        cut = np.minimum(1.0, radius / fnorm)
        pred = cut * (slope + 0.5 * cut * curv)
        trial = retract(lx, full * cut[:, None])
        vt, gt, ht = model(trial)
        gtn = np.sqrt(np.einsum("ri,ri->r", gt, gt))
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
        done = ok & (gtn <= np.maximum(gtol, 64 * _EPS * vt))
        stop = done | floor | (it >= left)
        if stop.any():
            rows, keep = live[stop], ~stop
            x[rows], vals[rows], steps[rows] = lx[stop], lv[stop], it
            converged[rows] = (done | (floor & (lv > 0.0) & (lgn <= np.sqrt(_EPS) * lv)))[stop]
            live, lx, lv, lg, lh, lgn, left, radius = (
                t[keep] for t in (live, lx, lv, lg, lh, lgn, left, radius))
    return vals, x, steps, converged


def _eigh_step(g, h):
    """``_newton``'s solve from stacked Hessians h (R, n, n), by one batched eigh."""
    w, vec = np.linalg.eigh(h)
    w = np.abs(w)
    lam = np.maximum(w, _FLOOR * w.max(axis=1, keepdims=True))
    full = ((g[:, None] @ vec) / lam[:, None] @ vec.transpose(0, 2, 1))[:, 0]
    hfull = (h @ full[:, :, None])[:, :, 0]
    return (full, np.linalg.norm(full, axis=1), np.einsum("ri,ri->r", g, full),
            np.einsum("ri,ri->r", hfull, full))


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
    # one power of two per row, so not states._rescaled, which scales a whole array by one
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
    return _newton(lambda u: _fs_model(t1c, table, u), _eigh_step,
                   lambda u, d: u @ _su2_exp(d), us, budget, 0.0)


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
    """|f|, the gradient g of |f|^2 and its Hessian's record, f = A.A, at the (R, 6) 6-vectors Q.

    The 9 tangent angles x move Q = (Q_A, Q_B) to exp(sum_k x_k Lambda_k) Q,
    k = 3(n-1) + m-1, and Lambda_{n,m} turns (Q_A)_n into (Q_B)_m. So
    f = Q_A.Q_A has df_k = -2 (Q_A)_n (Q_B)_m, and g = 2 Re(conj(f) df) =
    -4 Re(conj(f) Q_A Q_B^T). The record of each row is (T, |f|, |Q_A|^2,
    |Q_B|^2), T = Re(conj(Q_A) Q_B^T) as 9 numbers: all that ``_ascent_step``
    needs of the Hessian.
    """
    qa = q[:, :3]
    f = np.einsum("ri,ri->r", qa, qa)
    x = q.view(np.float64).reshape(-1, 6, 2)
    # the (Re, Im) rows of Q_A and of -4 f conj(Q_A) against those of Q_B: T and g
    left = np.concatenate((qa, -4.0 * f[:, None] * np.conj(qa)), axis=1)
    tg = (left.view(np.float64).reshape(-1, 6, 2) @ x[:, 3:].transpose(0, 2, 1)).reshape(-1, 18)
    norms = np.einsum("rij,rij->ri", *[x.reshape(-1, 2, 6)] * 2)
    absf = np.abs(f)
    return absf, tg[:, 9:], np.concatenate((tg[:, :9], absf[:, None], norms), axis=1)


def _ascent_step(g, h):
    """``_newton``'s solve for the ascent, in closed form from ``_ascent_model``'s record.

    In the gauge where f is real, F = |f| > 0, Q_A = x + iy and Q_B = u + iv
    with x.y = u.v = 0 and |x|^2 - |y|^2 = |v|^2 - |u|^2 = F (Q.Q = 0); so
    T = x u^T + y v^T and g = -4F (x u^T - y v^T). Take unit vectors x^, y^,
    z^ along x, y, x X y, and u^, v^, w^ along u, v, u X v, and p, q, r, s =
    |x|, |y|, |u|, |v|. On the tangent axes a^ b^T the Hessian of F^2 is a
    2x2 block on (x^ u^T, y^ v^T), which holds g; a 2x2 block on (x^ v^T,
    y^ u^T); and -4Fp^2, 4Fq^2, 4Fr^2, -4Fs^2 and 0 on x^ w^T, y^ w^T,
    z^ u^T, z^ v^T and z^ w^T. So the floored |H|^-1 g is the first block's,
    written back as a mix of T and g, and every block enters only through
    its eigenvalues, for the floor. pr and qs come from T -+ g / 4F = 2 x u^T,
    2 y v^T: q^2 and r^2 as |Q_A|^2 - F and |Q_B|^2 - F would cancel near the
    maximum, where both vanish.
    """
    t, f, na, nb = h[:, :9], h[:, 9], h[:, 10], h[:, 11]
    gf = g / (4.0 * f)[:, None]
    xu, yv = t - gf, t + gf
    pr = 0.5 * np.sqrt(np.einsum("ri,ri->r", xu, xu))
    qs = 0.5 * np.sqrt(np.einsum("ri,ri->r", yv, yv))
    p2, s2 = 0.5 * (na + f), 0.5 * (nb + f)
    pr2, qs2, half = pr * pr, qs * qs, 0.5 * (nb - na)
    # the block that holds g, [[a1, b1], [b1, c1]], and the other, [[a2, b2], [b2, c2]]
    # with b2 = -b1; g is 4F (-pr, qs) in the first
    a1 = 8.0 * pr2 + 4.0 * f * (half - f)
    c1 = 8.0 * qs2 - 4.0 * f * (half + f)
    b1 = -8.0 * pr * qs
    a2 = 8.0 * p2 * s2 - 4.0 * f * (p2 + s2)
    c2 = 8.0 * pr2 * qs2 / (p2 * s2) + 4.0 * f * (0.5 * (na + nb) - f)
    m1, hd = 0.5 * (a1 + c1), 0.5 * (a1 - c1)
    h1 = np.hypot(hd, b1)
    top2 = np.abs(0.5 * (a2 + c2)) + np.hypot(0.5 * (a2 - c2), b1)
    top = np.maximum(np.maximum(np.abs(m1) + h1, top2), 4.0 * f * np.maximum(p2, s2))
    floor = _FLOOR * top
    up, down = 1.0 / np.maximum(np.abs(m1 + h1), floor), 1.0 / np.maximum(np.abs(m1 - h1), floor)
    # |H1|^-1 = avg + k (H1 - m1); where h1 = 0, up = down and k = 0
    avg, k = 0.5 * (up + down), (up - down) / (2.0 * h1 + (h1 == 0.0))
    # the step is F (e1 pr, e2 qs) in the first block
    e1 = -4.0 * (avg + k * (hd + 8.0 * qs2))
    e2 = 4.0 * (avg + k * (8.0 * pr2 - hd))
    d11, d22 = f * e1 * pr, f * e2 * qs
    step = (0.5 * f * (e1 + e2))[:, None] * t - (0.125 * (e1 - e2))[:, None] * g
    return (step, np.hypot(d11, d22), 4.0 * f * (qs * d22 - pr * d11),
            a1 * d11 * d11 + c1 * d22 * d22 + 2.0 * b1 * d11 * d22)


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


def tangle_ascent_best(q0, inits, max_iters, gtol):
    """Best three-tangle from a Newton ascent on the pair group, from the pair's 6-vector q0.

    Each restart starts at exp(sum_k xi_k SO6_BASIS_k) q0 for its row xi of
    ``inits``, the image of the SU(4) start exp(sum_k xi_k SU4_BASIS_k), in
    one eigendecomposition (``_so6_exp``). ``_newton`` runs on |A.A|^2 over
    the 9 coupling images (``_ascent_model``), each step in closed form
    (``_ascent_step``), for at most ``max_iters`` steps; ``gtol`` is the
    gradient at which a restart counts as stationary even above rounding.

    Returns (4 max |A.A|, SearchStats over the restart tangles).
    """
    q = _so6_exp(inits) @ q0
    vals, _, steps, converged = _newton(_ascent_model, _ascent_step, _pair_cayley, q,
                                        np.full(len(q), max_iters), gtol)
    tangles = 4.0 * vals
    return float(tangles.max()), _stats(tangles, 0, steps, converged, max_iters)
