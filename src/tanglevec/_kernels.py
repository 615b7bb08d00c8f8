"""The two optimizer kernels, each batched over a leading restart axis.

Two optimizer loops dominate the library's runtime: the local-unitary
overlap maximization behind the Fubini-Study angle, and the ascent oracle
that cross-checks the analytic three-tangle maximum. Both run all random
restarts in lockstep. Only the Newton loop keeps a per-restart mask: it
freezes each restart at the point where a one-restart-at-a-time loop would
have stopped it, so every restart follows the trajectory it would follow
alone (up to rounding), and a call costs as many iterations as its slowest
restart instead of the sum over restarts.

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

The ascent goes from its random starts straight into the Newton loop. Its
model (``_ascent_model``) moves the state by exp(i sum_k x_k H_k) on the
pair with the 9 couplings H_k = sigma_n x sigma_m / 2 alone: local
unitaries on the pair leave |A.A| fixed, so its gradient along them is
exactly 0, and a 9x9 Hessian costs half the eigendecomposition of a 15x15
one. Its retraction is the Cayley transform (``_pair_cayley``), which
agrees with the exponential to second order and takes a 4x4 solve where
the exponential takes an eigendecomposition.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gates import I2, PAIR_PAULIS, SIGMA, expi_hermitian
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
# the ascent's directions H_k = sigma_n x sigma_m / 2 on the pair, as (36, 4)
# rows that give every H_k psi in one product, and their anticommutators
# {H_k, H_l} as a (16, 81) table contracted with the pair matrix v psi^T
_H = PAIR_PAULIS[6:] / 2
_H_ROWS = _H.reshape(36, 4)
_ANTI = (np.einsum("kxy,lyz->klxz", _H, _H) + np.einsum("lxy,kyz->klxz", _H, _H)).reshape(81, 16).T
_Q_ROWS = _A_QUADS.reshape(24, 8).T
_I4 = np.eye(4)


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
    n = x.shape[0]
    x = x.copy()
    vals, g, h = model(x)
    gnorm = np.linalg.norm(g, axis=1)
    steps = np.zeros(n, dtype=np.int64)
    converged = (vals > 0.0) & (gnorm <= np.maximum(gtol, 64 * _EPS * vals))
    radius = np.full(n, 0.5)
    dim = g.shape[1]
    lam = np.ones((n, dim))
    vec = np.zeros((n, dim, dim))
    fresh = np.ones(n, dtype=bool)  # at a new point: H must be decomposed
    # at v = 0, v^2 is at its minimum with zero gradient: no step moves it
    act = np.flatnonzero(~converged & (vals > 0.0) & (budget > 0))
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
        trial = retract(x[act], d)
        vt, gt, ht = model(trial)
        gtnorm = np.linalg.norm(gt, axis=1)
        gain = vt ** 2 - c ** 2
        rounding = pred <= 8 * _EPS * c ** 2
        ok = np.where(rounding, gtnorm < gnorm[act], gain >= 0.25 * pred)
        steps[act] += 1
        grow = ok & (cut < 1.0) & (gain > 0.75 * pred)
        radius[act] = np.where(ok, np.where(grow, np.minimum(2.0 * radius[act], 1.0),
                                            radius[act]), 0.25 * cut * dnorm)
        new = act[ok]
        x[new], vals[new], g[new], h[new], gnorm[new] = (trial[ok], vt[ok], gt[ok], ht[ok],
                                                         gtnorm[ok])
        fresh[act] = ok
        done = ok & (gtnorm <= np.maximum(gtol, 64 * _EPS * vt))
        floor = ~ok & rounding
        near = (c > 0.0) & (gnorm[act] <= np.sqrt(_EPS) * c)
        converged[act] = done | (floor & near)
        act = act[~(done | floor) & (steps[act] < budget[act])]
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


def _ascent_model(psi):
    """|f|, gradient g and Hessian H of |f|^2, f = A.A, at the (R, 8) states.

    The 9 tangent angles x move psi to exp(i sum_k x_k H_k) psi on the pair
    (the leading two qubits). With J_k = H_k psi, q_i = Q_i psi,
    M = sum_i A_i Q_i and v = M psi, A_i = psi^T Q_i psi has
    dA_i/dx_k = 2i q_i.J_k, so df/dx_k = 4i v.J_k, and f has the Hessian
    2 dA^T dA - 4 J M J^T - 2 (v psi^T).{H_k, H_l}, whose first two terms
    are -4 J (M + 2 sum_i q_i q_i^T) J^T.
    """
    r = psi.shape[0]
    p4 = psi.reshape(r, 4, 2)
    # J[r, k] = H_k psi as one (2R, 4) @ (4, 36) product on the pair axis
    j = (p4.transpose(0, 2, 1).reshape(2 * r, 4) @ _H_ROWS.T).reshape(r, 2, 9, 4)
    j = j.transpose(0, 2, 3, 1).reshape(r, 9, 8)
    q = (psi @ _Q_ROWS).reshape(r, 3, 8)
    a = np.einsum("rim,rm->ri", q, psi)
    f = np.einsum("ri,ri->r", a, a)
    v = np.einsum("ri,rim->rm", a, q)
    df = 4j * np.einsum("rkm,rm->rk", j, v)
    x = (a @ _A_QUADS.reshape(3, 64)).reshape(r, 8, 8) + 2.0 * (q.transpose(0, 2, 1) @ q)
    w = (v.reshape(r, 4, 2) @ p4.transpose(0, 2, 1)).reshape(r, 16)
    d2f = -4.0 * (j @ x @ j.transpose(0, 2, 1)) - 2.0 * (w @ _ANTI).reshape(r, 9, 9)
    fc = np.conj(f)
    g = 2.0 * np.real(fc[:, None] * df)
    h = 2.0 * np.real(np.conj(df)[:, :, None] * df[:, None, :] + fc[:, None, None] * d2f)
    return np.abs(f), g, h


def _pair_cayley(psi, d):
    """(1 - i D/2)^-1 (1 + i D/2), D = sum_k d_k H_k, on each (R, 8) state's pair.

    The Cayley transform of D is unitary and equals exp(i D) to second order.
    """
    h = (0.5j * (d @ _H.reshape(9, 16))).reshape(-1, 4, 4)
    p4 = psi.reshape(-1, 4, 2)
    return np.linalg.solve(_I4 - h, p4 + h @ p4).reshape(-1, 8)


def tangle_ascent_best(psi0, gens, inits, max_iters, gtol):
    """Best three-tangle from a Newton ascent on the pair group.

    Each restart starts at exp(sum_k xi_k G_k) psi0 for its row xi of
    ``inits``, with the 15 generators ``gens`` acting on the leading qubit
    pair, and runs ``_newton`` on |A.A|^2 over the 9 pair couplings
    (``_ascent_model``) for at most ``max_iters`` steps; ``gtol`` is the
    gradient at which a restart counts as stationary even above rounding.

    Returns (4 max |A.A|, SearchStats over the restart tangles).
    """
    n = inits.shape[0]
    start = expi_hermitian((inits @ (-1j * gens).reshape(15, 16)).reshape(n, 4, 4))
    psi = (start @ psi0.reshape(4, 2)).reshape(n, 8)
    vals, _, steps, converged = _newton(_ascent_model, _pair_cayley, psi,
                                        np.full(n, max_iters), gtol)
    tangles = 4.0 * vals
    return float(tangles.max()), _stats(tangles, 0, steps, converged, max_iters)
