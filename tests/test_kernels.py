"""The batched optimizer kernels against plain per-restart reference loops."""
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from tanglevec import (LocalStep, ParseError, _kernels, apply, bipartite_tangle_from_density,
                       bipartite_tangles, fubini_study_angle, fubini_study_search,
                       make_asymmetric_w, make_ghz, normalize, q_vector, random_state,
                       tangle_ascent_oracle, tangle_ascent_search, w_to_ghz_sequence)
from tanglevec.gates import PAIR_PAULIS
from tanglevec.gates import SIGMA as PAULIS
from tanglevec.so6 import SU4_BASIS
from tanglevec.states import PARTITION_PAIR
from tanglevec.synthesis import _random_su2_stack
from tanglevec.vectors import _A_QUADS


def _fs_reference(t1, t2, inits, max_sweeps, tol):
    """One restart at a time: per-restart overlaps, unitaries and sweeps."""
    t1c = t1.conj()
    vals, finals, sweeps = [], [], []
    for r in range(inits.shape[0]):
        us = [inits[r, 0].copy(), inits[r, 1].copy(), inits[r, 2].copy()]
        val, used = 0.0, 0
        for _ in range(max_sweeps):
            used += 1
            step = 0.0
            for q in range(3):
                w = t2
                for p in range(3):
                    if p != q:
                        w = np.moveaxis(np.tensordot(us[p], w, axes=([1], [p])), 0, p)
                axes = [p for p in range(3) if p != q]
                t = np.tensordot(t1c, w, axes=(axes, axes))
                v, s, wh = np.linalg.svd(t.T)
                unew = wh.conj().T @ v.conj().T
                step = max(step, float(np.abs(unew - us[q]).max()))
                us[q] = unew
                val = s[0] + s[1]
            if step < tol:
                break
        vals.append(val)
        finals.append(np.stack(us))
        sweeps.append(used)
    return np.array(vals), np.array(finals), np.array(sweeps)


def _expm_herm(h):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _ascent_reference(psi0, gens, quads, inits, max_iters, gtol):
    """One restart at a time: the best tangle over all restarts."""
    neg_i_gens = -1j * gens
    best = 0.0
    for r in range(inits.shape[0]):
        psi = (_expm_herm(np.tensordot(inits[r], neg_i_gens, axes=1))
               @ psi0.reshape(4, 2)).reshape(8)
        a = (quads @ psi) @ psi
        g = float(np.abs(a @ a)) ** 2
        eta = 0.1
        for _ in range(max_iters):
            v = a @ (quads @ psi)
            gp = (gens @ psi.reshape(4, 2)).reshape(15, 8)
            grad = 8.0 * np.real(np.conj(a @ a) * (gp @ v))
            if grad @ grad < gtol * gtol:
                break
            improved = False
            for _try in range(50):
                h = np.tensordot(eta * grad, neg_i_gens, axes=1)
                trial = (_expm_herm(h) @ psi.reshape(4, 2)).reshape(8)
                trial = trial / np.linalg.norm(trial)
                at = (quads @ trial) @ trial
                gt = float(np.abs(at @ at)) ** 2
                if gt > g:
                    psi, g, a = trial, gt, at
                    eta *= 1.3
                    improved = True
                    break
                eta *= 0.4
                if eta < 1e-16:
                    break
            if not improved:
                break
        best = max(best, g)
    return 4.0 * np.sqrt(best)


def _fs_inputs(seed, n=6):
    t1 = random_state(seed).reshape(2, 2, 2)
    t2 = random_state(seed + 100).reshape(2, 2, 2)
    inits = _random_su2_stack(np.random.default_rng(seed), n)
    return t1, t2, inits


def _overlap_of(t1, t2, us):
    w = np.einsum("ax,by,cz,xyz->abc", us[0], us[1], us[2], t2)
    return abs(np.vdot(t1, w))


def _polar_stack(rng, n=64):
    """(R, 4) rows of 2x2 matrices: random, rank 1, and four zero rows last."""
    def z(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rank1 = (z(n, 2)[:, :, None] * z(n, 2)[:, None, :]).reshape(n, 4)
    return np.concatenate([z(n, 4), rank1, np.zeros((4, 4))])


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150])
def test_polar_2x2_matches_svd(scale):
    m = scale * _polar_stack(np.random.default_rng(5))
    u, nuc = _kernels._polar_2x2(m)
    mats = m.reshape(-1, 2, 2)
    v, sv, wh = np.linalg.svd(mats)
    total = sv.sum(axis=1)
    assert np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(2)).max() < 1e-15
    # the maximum Re tr(U^T M) over unitaries U is the nuclear norm s1 + s2
    live = total > 0.0
    attained = np.einsum("rij,rij->r", u, mats).real
    assert np.abs(attained[live] / total[live] - 1.0).max() < 1e-15
    assert np.abs(nuc[live] / total[live] - 1.0).max() < 1e-15
    # a full-rank factor is unique: it is the SVD's conj(V W^H)
    assert np.abs(u[:64] - np.conj(v @ wh)[:64]).max() < 1e-14
    # a zero matrix gives the identity, as its SVD does
    assert not live[-4:].any() and (nuc[-4:] == 0.0).all()
    np.testing.assert_array_equal(u[-4:], np.broadcast_to(np.eye(2), (4, 2, 2)))


def test_fs_zero_overlap_restart_is_not_converged():
    # |000> and |111> are locally equivalent, but a restart at the identity
    # starts at a zero overlap, the minimum of |c|^2, where neither phase moves it
    zero, one = np.eye(8)[0], np.eye(8)[7]
    t1, t2 = zero.reshape(2, 2, 2), one.reshape(2, 2, 2)
    identity = np.broadcast_to(np.eye(2, dtype=complex), (1, 3, 2, 2))
    best, _, stats = _kernels.fs_best_overlap(t1, t2, identity, 5000)
    assert best == 0.0 and stats.converged == 0 and not stats.capped
    inits = np.concatenate([identity, _random_su2_stack(np.random.default_rng(0), 31)])
    best, _, stats = _kernels.fs_best_overlap(t1, t2, inits, 5000)
    assert abs(best - 1.0) < 1e-12 and stats.converged == 31 and not stats.capped
    # overlaps of unit states are at most 1, and so is their spread
    assert stats.spread <= 1.0
    # the search draws every restart at random, so none starts there
    for restarts in (1, 32):
        res = fubini_study_search(zero, one, restarts=restarts)
        assert res.angle_degrees < 1e-6
        assert res.converged == res.restarts and not res.capped
        assert res.overlap_spread < 1e-12


_W = make_asymmetric_w(np.arccos(1 / np.sqrt(3)), np.pi / 4)


@pytest.mark.parametrize("call, kwargs", [
    (fubini_study_search, {"restarts": 0}),
    (fubini_study_search, {"restarts": -3}),
    (fubini_study_search, {"max_sweeps": 0}),
    (fubini_study_search, {"seed": -1}),
    (fubini_study_search, {"max_sweeps": float("nan")}),
    (fubini_study_search, {"restarts": np.float64(4)}),
    (fubini_study_search, {"max_sweeps": np.bool_(True)}),
    (fubini_study_angle, {"restarts": 0}),
    (fubini_study_angle, {"max_sweeps": -1}),
    (fubini_study_angle, {"seed": -1}),
    (tangle_ascent_oracle, {"restarts": 0}),
    (tangle_ascent_oracle, {"max_iters": 0}),
    (tangle_ascent_oracle, {"seed": -2}),
    (tangle_ascent_oracle, {"max_iters": float("nan")}),
    (tangle_ascent_oracle, {"restarts": np.float64(4)}),
    (tangle_ascent_oracle, {"seed": None}),
    (tangle_ascent_search, {"restarts": -1}),
    (tangle_ascent_search, {"max_iters": 0}),
    (tangle_ascent_search, {"seed": -1}),
    (tangle_ascent_search, {"restarts": "4"}),
    (fubini_study_search, {"seed": 1.5}),
    (fubini_study_search, {"restarts": "4"}),
    (fubini_study_search, {"max_sweeps": 3.5}),
    (fubini_study_search, {"seed": None}),
    (tangle_ascent_search, {"seed": 1.5}),
    (tangle_ascent_search, {"max_iters": 2.5}),
    (fubini_study_angle, {"restarts": True}),
    (fubini_study_search, {"seed": False}),
    (fubini_study_search, {"max_sweeps": np.int64(0)}),
    (tangle_ascent_search, {"max_iters": True}),
    (tangle_ascent_oracle, {"max_iters": np.bool_(True)}),
])
def test_optimizer_options_are_refused(call, kwargs):
    args = (_W,) if call in (tangle_ascent_oracle, tangle_ascent_search) else (_W, make_ghz())
    with pytest.raises(ParseError, match=next(iter(kwargs))):
        call(*args, **kwargs)


def test_optimizer_options_at_their_least():
    res = fubini_study_search(_W, make_ghz(), restarts=1, seed=0, max_sweeps=1)
    assert (res.restarts, res.sweeps, res.polish_iterations) == (1, 1, 0)
    assert tangle_ascent_oracle(_W, restarts=1, seed=0, max_iters=1) >= 0.0
    # W has |A.A| = 0 at the identity, the minimum of the tangle, which no
    # Newton step leaves: its one restart is drawn at random, and one step
    # leaves it below the maximum 8/9
    res = tangle_ascent_search(_W, restarts=1, seed=0, max_iters=1)
    assert (res.restarts, res.iterations, res.converged) == (1, 1, 0)
    assert 0.0 < res.tangle < 8 / 9 and res.capped and res.tangle_spread == 0.0


_BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)


@pytest.mark.parametrize("s, pair", [
    (np.eye(8)[0], "ab"), (np.eye(8)[0], "bc"), (np.eye(8)[0], "ac"),
    (np.kron([0.6, 0.8j], _BELL), "bc"),
    (np.kron(_BELL, [0.8, -0.6]), "ab"),
], ids=["000-ab", "000-bc", "000-ac", "a-times-bell-bc", "bell-times-c-ab"])
def test_ascent_converges_where_the_spectator_tangle_is_zero(s, pair):
    # with the spectator unentangled, no point of the pair's orbit has a
    # three-tangle: every restart is at the maximum 0, even one that starts
    # where no Newton step moves it
    res = tangle_ascent_search(s, pair)
    # exactly 0 on the orbit of a basis state, rounding on the others
    assert res.tangle == 0.0 if np.count_nonzero(s) == 1 else res.tangle < 1e-30
    assert res.converged == res.restarts == 16 and not res.capped


@pytest.mark.parametrize("s, pair", [
    (_W, "ab"), (make_asymmetric_w(0.6, 0.3), "ab"), (make_asymmetric_w(0.6, 0.3), "bc"),
    (np.kron([1.0, 0.0], _BELL), "ab"), (np.kron([1.0, 0.0], _BELL), "ac"),
], ids=["w-ab", "asym-w-ab", "asym-w-bc", "0-times-bell-ab", "0-times-bell-ac"])
def test_ascent_from_a_zero_tangle_reaches_the_bound(s, pair):
    # at a zero three-tangle the identity is the tangle's minimum, where no
    # Newton step moves it, so the first restart is drawn at random too:
    # every restart reaches the spectator's bipartite tangle
    res = tangle_ascent_search(s, pair)
    bound = bipartite_tangle_from_density(s, {"ab": "c", "bc": "a", "ac": "b"}[pair])
    assert abs(res.tangle - bound) <= 1e-12
    assert res.converged == res.restarts == 16 and not res.capped
    assert res.tangle_spread <= 1e-12


def test_ascent_restarts_of_a_tangled_state_keep_their_draws():
    # with a nonzero three-tangle the first restart is still the identity and
    # the others keep their draws: the kernel on those starts, bit for bit
    s = random_state(8)
    inits = np.zeros((16, 15))
    inits[1:] = np.random.default_rng(3).uniform(-np.pi, np.pi, size=(15, 15))
    # the search's q0 and T: the pair's 6-vector and the spectator's tangle, both
    # from the state's one evaluation
    state = normalize(s)
    best, stats = _kernels.tangle_ascent_best(q_vector(state, 1).q, inits, 400,
                                              1e-10 * bipartite_tangles(state)[0] ** 2)
    res = tangle_ascent_search(s, "bc", seed=3)
    assert (res.tangle, res.iterations, res.converged, res.tangle_spread) == (
        best, stats.polish, stats.converged, stats.spread)


def _on_pair(u, psi, pq):
    """The 4x4 u applied to the ordered qubit pair pq of the amplitudes psi."""
    axes = ["abc".index(q) for q in pq]
    t = np.moveaxis(psi.reshape(2, 2, 2), axes, [0, 1])
    return np.moveaxis((u @ t.reshape(4, 2)).reshape(2, 2, 2), [0, 1], axes).reshape(8)


@pytest.mark.parametrize("pair", ["ab", "ba", "bc", "cb", "ac", "ca"])
def test_ascent_dual_starts_are_images_of_the_hilbert_starts(pair, monkeypatch):
    # the search starts each restart at exp(sum xi_k SO6_BASIS_k) q0 on the
    # pair's 6-vector q0: the 6-vector of the Hilbert start exp(sum xi_k
    # SU4_BASIS_k) psi, with the SU(4) on the partition's ordered pair
    starts = []
    real = _kernels._newton

    def recorded(model, solve, retract, x, budget, gtol):
        starts.append(x.copy())
        return real(model, solve, retract, x, budget, gtol)
    monkeypatch.setattr(_kernels, "_newton", recorded)
    s = normalize(random_state(12))
    tangle_ascent_search(s, pair, seed=4)
    inits = np.zeros((16, 15))
    inits[1:] = np.random.default_rng(4).uniform(-np.pi, np.pi, size=(15, 15))
    p = next(p for p, pq in PARTITION_PAIR.items() if set(pq) == set(pair))
    hilbert = [q_vector(_on_pair(u, s, PARTITION_PAIR[p]), p).q
               for u in expm(np.tensordot(inits, SU4_BASIS, axes=1))]
    assert len(starts) == 1
    assert np.abs(starts[0] - hilbert).max() <= 1e-14 * np.linalg.norm(q_vector(s, p).q)


@pytest.mark.parametrize("e", [1e-3, 1e-4, 1e-5])
def test_ascent_stationarity_is_relative_to_the_bound(e):
    # next to a product of a pair state with |0> on c, the bound tau_c(ab)
    # is 1.2e-6..1.2e-10; the gradient of |A.A|^2 scales as its square, so
    # an absolute gtol counted the random starts as stationary, 10.7 % short
    ab = random_state(3)[:4]
    s = normalize(np.kron(ab / np.linalg.norm(ab), [1, 0]) + e * random_state(4))
    bound = bipartite_tangle_from_density(s, "c")
    res = tangle_ascent_search(s)
    assert abs(res.tangle - bound) <= 1e-12 * bound
    assert res.iterations > 0 and res.converged == res.restarts and not res.capped


def test_fs_best_overlap_basic():
    t1, t2, inits = _fs_inputs(7)
    val, us, stats = _kernels.fs_best_overlap(t1, t2, inits, 500)
    assert 0.0 <= val <= 1.0
    for q in range(3):
        assert np.abs(us[q].conj().T @ us[q] - np.eye(2)).max() < 1e-10
    assert abs(_overlap_of(t1, t2, us) - val) < 1e-10
    assert 1 <= stats.sweeps + stats.polish <= 500
    assert stats.converged == inits.shape[0]


def test_fs_restarts_match_reference_loop():
    for seed in range(4):
        t1, t2, inits = _fs_inputs(seed, 8)
        # tol 0 never stops the reference early: it runs the same count
        for count in (1, _kernels._SWEEPS, 50):
            ref_vals, ref_us, _ = _fs_reference(t1, t2, inits, count, 0.0)
            vals, us = _kernels.fs_restarts(t1, t2, inits, count)
            assert np.abs(vals - ref_vals).max() < 1e-12
            assert np.abs(us - ref_us).max() < 1e-8
        ref_vals, _, _ = _fs_reference(t1, t2, inits, 2000, 1e-10)
        best, best_us, stats = _kernels.fs_best_overlap(t1, t2, inits, 2000)
        assert abs(best - min(ref_vals.max(), 1.0)) < 1e-12
        # the polish replaces the sweeps' tail: every restart ends stationary
        # after the short sweep phase, at unitaries that attain the overlap
        assert abs(_overlap_of(t1, t2, best_us) - best) < 1e-12
        assert (stats.sweeps, stats.converged, stats.capped) == (_kernels._SWEEPS, 8, False)


def test_fs_single_sweep_reports_no_convergence():
    t1, t2, inits = _fs_inputs(3)
    _, _, stats = _kernels.fs_best_overlap(t1, t2, inits, 1)
    assert (stats.sweeps, stats.polish) == (1, 0)
    assert stats.converged == 0
    assert stats.capped


def _ascent_inputs(seed, n=4):
    rng = np.random.default_rng(seed)
    inits = np.zeros((n, 15))
    inits[1:] = rng.uniform(-np.pi, np.pi, (n - 1, 15))
    return random_state(seed), inits


#: the second derivatives of f = Q_A.Q_A along the 9 couplings, as a product
#: with the (R, 36) rows of Re(conj(f) Q Q^T): 2 Re(conj(f) d2f), d2f = 2 (I3 x
#: Q_B Q_B^T - Q_A Q_A^T x I3)
_E6 = np.eye(6)
_D2F = 4.0 * (np.einsum("mi,pj,nq->ijnmqp", _E6[3:], _E6[3:], np.eye(3))
              - np.einsum("ni,qj,mp->ijnmqp", _E6[:3], _E6[:3], np.eye(3))).reshape(36, 81)


def _ascent_hessian_model(q):
    """The ascent's v and g with the full 9x9 Hessian of |f|^2, by outer products of Q.

    H = 2 Re(conj(df) df^T + conj(f) d2f), df_k = -2 (Q_A)_n (Q_B)_m: the
    eigh oracle for ``_ascent_step``.
    """
    qa = q[:, :3]
    f = np.einsum("ri,ri->r", qa, qa)
    qq = q[:, :, None] * q[:, None, :]
    df = -2.0 * qq[:, :3, 3:].reshape(-1, 9)
    w = np.real(np.conj(f)[:, None, None] * qq)
    dv = df.view(np.float64).reshape(-1, 9, 2)
    h = w.reshape(-1, 36) @ _D2F + 2.0 * (dv @ dv.transpose(0, 2, 1)).reshape(-1, 81)
    return np.abs(f), -4.0 * w[:, :3, 3:].reshape(-1, 9), h.reshape(-1, 9, 9)


@pytest.mark.parametrize("seed", range(3))
def test_ascent_model_matches_finite_differences(seed):
    # |A.A|^2 at exp(i sum_k x_k P_k / 2) psi over the 9 couplings P_k, by
    # central differences in x in the Hilbert picture, against the gradient
    # of the model at psi's 6-vector (A, -iB) in the SO(6) picture, and the
    # closed-form step against the floored eigh step of the difference Hessian
    psi = random_state(seed)
    dirs = PAIR_PAULIS[6:] / 2

    def value(x):
        moved = (expm(1j * np.tensordot(x, dirs, axes=1)) @ psi.reshape(4, 2)).reshape(8)
        a = (_A_QUADS @ moved) @ moved
        return abs(a @ a) ** 2
    vals, g, rec = _kernels._ascent_model(q_vector(psi, 3).q[None])
    assert abs(vals[0] ** 2 - value(np.zeros(9))) < 1e-15
    e, eye = 1e-4, np.eye(9)
    grad = [(value(e * eye[k]) - value(-e * eye[k])) / (2 * e) for k in range(9)]
    hess = [[(value(e * (eye[k] + eye[l])) - value(e * (eye[k] - eye[l]))
              - value(e * (eye[l] - eye[k])) + value(-e * (eye[k] + eye[l]))) / (4 * e * e)
             for l in range(9)] for k in range(9)]
    assert np.abs(g[0] - grad).max() < 1e-8
    step, norm, slope, curv = _kernels._ascent_step(g, rec)
    ref_step, ref_norm, ref_slope, ref_curv = _kernels._eigh_step(g, np.array(hess)[None])
    # the difference Hessian is good to 1e-7, and |H|^-1 amplifies that
    assert np.abs(step - ref_step).max() < 2e-5 * ref_norm[0]
    assert abs(norm[0] / ref_norm[0] - 1.0) < 1e-6
    assert abs(slope[0] / ref_slope[0] - 1.0) < 1e-6
    assert abs(curv[0] - ref_curv[0]) < 1e-6 * abs(slope[0])


def _frames(seed):
    """Two random orthonormal frames of R^3, as rows."""
    rng = np.random.default_rng(seed)
    return [np.linalg.qr(rng.standard_normal((3, 3)))[0].T for _ in range(2)]


def _six(p, q, r, phase=0.7, seed=0):
    """The (1, 6) 6-vector e^(i phase) (p x + i q y, r u + i s v), s^2 = p^2 - q^2 + r^2.

    x, y and u, v are the first two axes of the frames ``_frames(seed)``:
    every Q with Q.Q = 0 is one of these, with |A.A| = p^2 - q^2 at a gauge
    phase.
    """
    fa, fb = _frames(seed)
    s = np.sqrt(p * p - q * q + r * r)
    return (np.exp(1j * phase) * np.concatenate([p * fa[0] + 1j * q * fa[1],
                                                 r * fb[0] + 1j * s * fb[1]]))[None]


def _singular_block_r(p, q, lo, hi):
    """The r in (lo, hi) where the Hessian block that holds g is singular, by bisection.

    The block's determinant is taken from the eigh oracle's Hessian on the
    axes (x u^T, y v^T) of ``_six``.
    """
    fa, fb = _frames(0)
    axes = np.array([np.outer(fa[0], fb[0]).reshape(9), np.outer(fa[1], fb[1]).reshape(9)])

    def det(r):
        h = _ascent_hessian_model(_six(p, q, r))[2][0]
        return np.linalg.det(axes @ h @ axes.T)
    sign = np.sign(det(lo))
    assert np.sign(det(hi)) == -sign
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.sign(det(mid)) == sign else (lo, mid)
    return lo


def _degenerate_rows():
    """6-vectors where the closed form has no generic slack, by kind."""
    r0 = _singular_block_r(1.0, 0.3, 0.3, 0.8)
    return {
        # Q_A real up to the gauge phase: q = 0
        "real": [(1.0, 0.0, r) for r in (0.1, 0.5, 1.0, 3.0)],
        # Q_A's and Q_B's imaginary and real parts vanish at the maximum; at
        # q = 1e-5, r = 0, |g| would be at the eigh step's rounding
        "near-max": [(1.0, q, r) for q in (1e-2, 1e-3, 1e-5) for r in (1e-2, 1e-4, 0.0)
                     if q + r > 1e-5],
        # the block that holds g is singular at r0: its small eigenvalue is
        # floored; at the last two rows (small tangle, large r) the other
        # block's largest eigenvalue sets the floor
        "floor": [(1.0, 0.3, r0 * (1.0 + t)) for t in (0.0, 1e-8, -1e-6, 1e-5)]
        + [(1.0, 0.99, 1.0), (1.0, 0.98, 1.5)],
        # the block's two eigenvalues meet (h1 = 0) at q = r = 0, a stationary
        # point, and nearly so next to it
        "h1": [(1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 1e-4, 0.0), (1.0, 0.0, 1e-4),
               (1.0, 1e-4, 1e-4)],
    }


@pytest.mark.parametrize("kind", ["real", "near-max", "floor", "h1"])
def test_ascent_step_matches_eigh_on_degenerate_rows(kind):
    params = _degenerate_rows()[kind]
    q = np.concatenate([_six(*pqr, phase=0.3 * k, seed=k) for k, pqr in enumerate(params)])
    _, g, rec = _kernels._ascent_model(q)
    hess = _ascent_hessian_model(q)[2]
    step, norm, slope, curv = _kernels._ascent_step(g, rec)
    assert np.isfinite(step).all() and np.isfinite([norm, slope, curv]).all()
    ref_step, ref_norm, ref_slope, ref_curv = _kernels._eigh_step(g, hess)
    w = np.abs(np.linalg.eigvalsh(hess))
    if kind == "floor":
        # besides the exact 0, at least one eigenvalue of every row is below the floor
        assert ((w < _kernels._FLOOR * w.max(axis=1, keepdims=True)).sum(axis=1) >= 2).all()
    # near a stationary row the eigh step is rounding amplified along the
    # floored flat directions; the closed form is 0 at one
    gn = np.linalg.norm(g, axis=1)
    m = gn > 1e-5 * w.max(axis=1)
    assert (step[gn == 0.0] == 0.0).all() and (norm[gn == 0.0] == 0.0).all()
    # every row moves but the first two of the h1 kind, at q = r = 0
    assert list(m) == [kind != "h1" or k > 1 for k in range(len(params))]
    assert (np.abs(step[m] - ref_step[m]).max(axis=1) <= 1e-8 * ref_norm[m]).all()
    assert (np.abs(norm[m] / ref_norm[m] - 1.0) <= 1e-8).all()
    assert (np.abs(slope[m] / ref_slope[m] - 1.0) <= 1e-8).all()
    assert (np.abs(curv[m] - ref_curv[m]) <= 1e-8 * np.abs(slope[m])).all()


def test_ascent_search_takes_one_eigh(monkeypatch):
    # the starts' stacked so(6) exponential is the one eigendecomposition:
    # the Newton loop's steps are closed forms
    calls = []
    real = np.linalg.eigh

    def counted(h):
        calls.append(np.shape(h))
        return real(h)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    res = tangle_ascent_search(random_state(11), "bc")
    assert res.iterations > 0 and calls == [(16, 6, 6)]


def _ascent_batch():
    """W's 6-vector, at |A.A| = 0, then nine Haar states each moved by a random SU(4)."""
    rng = np.random.default_rng(3)
    qs = [q_vector(_W, 3).q]
    for k in range(9):
        u = expm(np.tensordot(rng.uniform(-np.pi, np.pi, 15), SU4_BASIS, axes=1))
        qs.append(q_vector((u @ random_state(k).reshape(4, 2)).reshape(8), 3).q)
    return np.array(qs)


def _fs_batch():
    """The identity, at a zero overlap of |000> and |111>, then nine random restarts."""
    identity = np.broadcast_to(np.eye(2, dtype=complex), (1, 3, 2, 2))
    return np.concatenate([identity, _random_su2_stack(np.random.default_rng(3), 9)])


#: the Pauli-insertion table of |111> that fs_polish builds for _fs_model
_FS_TABLE = np.einsum("iax,jby,kcz,xyz->abcijk", *[_kernels._PAULI] * 3,
                      np.eye(8)[7].reshape(2, 2, 2)).reshape(8, 64)
#: (model, solve, retraction), gtol and a batch for each of _newton's two
#: callers; the fs model is that of |000> against |111>
_NEWTON_CASES = {
    "ascent": ((_kernels._ascent_model, _kernels._ascent_step, _kernels._pair_cayley), 1e-10,
               _ascent_batch()),
    "fs": ((lambda us: _kernels._fs_model(np.eye(8)[0], _FS_TABLE, us), _kernels._eigh_step,
            lambda us, d: us @ _kernels._su2_exp(d)), 0.0, _fs_batch()),
}
#: the reference loop's (model, solve, retraction): it needs the full Hessian,
#: so the ascent runs the outer-product Hessian with eigh
_REFERENCE_KERNELS = {
    "ascent": (_ascent_hessian_model, _kernels._eigh_step, _kernels._pair_cayley),
    "fs": _NEWTON_CASES["fs"][0],
}
#: rows 1, 5 and 8 are cut at budget 3 (the fs row 5 at a rejected step)
_BUDGET = np.array([400, 3, 400, 400, 400, 3, 400, 400, 3, 400])


@pytest.mark.parametrize("case", _NEWTON_CASES)
def test_newton_restarts_in_a_batch_are_independent(case):
    # the first row starts at v = 0, three are cut, and the rest converge at
    # different steps: each ends as it ends alone, at a point that has the
    # value it reports
    kernel, gtol, x = _NEWTON_CASES[case]
    vals, out, steps, converged = _kernels._newton(*kernel, x, _BUDGET, gtol)
    assert np.abs(kernel[0](out)[0] - vals).max() < 1e-12
    assert vals[0] == 0.0 and steps[0] == 0 and not converged[0]
    cut = _BUDGET == 3
    assert (steps[cut] == 3).all() and not converged[cut].any()
    assert converged[1:][~cut[1:]].all() and len(set(steps[~cut][1:])) > 1
    for r in range(len(x)):
        v1, x1, s1, c1 = _kernels._newton(*kernel, x[r:r + 1], _BUDGET[r:r + 1], gtol)
        assert abs(vals[r] - v1[0]) < 1e-12 and np.abs(out[r] - x1[0]).max() < 1e-12
        assert (steps[r], converged[r]) == (s1[0], c1[0])


def _newton_reference(model, solve, retract, x, budget, gtol):
    """_newton's rules one restart at a time, in plain per-restart arithmetic.

    ``model`` gives the full Hessian; ``solve`` gives only the uncut step, and
    its norm and predicted gain are taken here from the Hessian.
    """
    eps, rows = np.finfo(float).eps, []
    for r in range(len(x)):
        p = x[r:r + 1]
        (v,), (g,), (h,) = model(p)
        gn, steps, radius, moved = np.linalg.norm(g), 0, 0.5, True
        conv = v > 0.0 and gn <= max(gtol, 64 * eps * v)
        while v > 0.0 and not conv and steps < budget[r]:
            if moved:
                full = solve(g[None], h[None])[0][0]
            cut = min(1.0, radius / np.linalg.norm(full))
            d = cut * full
            pred = g @ d + 0.5 * d @ h @ d
            trial = retract(p, d[None])
            (vt,), (gt,), (ht,) = model(trial)
            gtn, gain, steps = np.linalg.norm(gt), vt * vt - v * v, steps + 1
            rounding = pred <= 8 * eps * v * v
            moved = gtn < gn if rounding else gain >= 0.25 * pred
            if moved:
                if cut < 1.0 and gain > 0.75 * pred:
                    radius = min(2.0 * radius, 1.0)
                p, v, g, h, gn = trial, vt, gt, ht, gtn
                conv = gn <= max(gtol, 64 * eps * v)
            elif rounding:
                conv = gn <= np.sqrt(eps) * v
                break
            else:
                radius = 0.25 * cut * np.linalg.norm(full)
        rows.append((v, p[0], steps, conv))
    return rows


@pytest.mark.parametrize("case", _NEWTON_CASES)
def test_newton_matches_reference_loop(case):
    kernel, gtol, x = _NEWTON_CASES[case]
    _assert_matches_reference(kernel, _REFERENCE_KERNELS[case], x, _BUDGET, gtol)


def _assert_matches_reference(kernel, reference, x, budget, gtol):
    vals, out, steps, converged = _kernels._newton(*kernel, x, budget, gtol)
    for r, (v, p, s, c) in enumerate(_newton_reference(*reference, x, budget, gtol)):
        assert abs(vals[r] - v) < 1e-12 and np.abs(out[r] - p).max() < 1e-12
        assert (steps[r], converged[r]) == (s, c)


def test_ascent_matches_reference_loop():
    for seed in range(3):
        psi, inits = _ascent_inputs(seed)
        # the closed-form steps against eigh steps of the full Hessian, step by
        # step from the 6-vectors of the kernel's starts
        starts = expm(np.tensordot(inits, SU4_BASIS, axes=1))
        moved = (starts @ psi.reshape(4, 2)).reshape(-1, 8)
        q = np.array([q_vector(m, 3).q for m in moved])
        _assert_matches_reference(_NEWTON_CASES["ascent"][0], _REFERENCE_KERNELS["ascent"], q,
                                  np.full(len(q), 300), 1e-10)
        ref = _ascent_reference(psi, SU4_BASIS, _A_QUADS, inits, 300, 1e-10)
        best, stats = _kernels.tangle_ascent_best(q_vector(psi, 3).q, inits, 300, 1e-10)
        assert abs(best - ref) < 1e-9
        assert 1 <= stats.polish < 300
        assert stats.converged == inits.shape[0]


def test_ascent_cap_is_reported():
    # three Newton steps are too few for any restart: each is cut at the
    # cap, above its start and below the converged maximum
    psi, inits = _ascent_inputs(5)
    best, stats = _kernels.tangle_ascent_best(q_vector(psi, 3).q, inits, 3, 1e-10)
    assert (stats.polish, stats.converged, stats.capped) == (3, 0, True)
    # an infinite gtol stops every restart at its start, before any step
    start, _ = _kernels.tangle_ascent_best(q_vector(psi, 3).q, inits, 1, np.inf)
    full, stats = _kernels.tangle_ascent_best(q_vector(psi, 3).q, inits, 400, 1e-10)
    assert stats.converged == inits.shape[0] and not stats.capped
    assert start < best < full


def test_ascent_ends_when_trials_fall_below_rounding(monkeypatch):
    # every restart stops once stationary or at rounding; the kernel
    # evaluates the model once at the start and once per Newton step
    calls = []
    real = _kernels._ascent_model

    def counted(psi):
        calls.append(1)
        return real(psi)
    monkeypatch.setattr(_kernels, "_ascent_model", counted)
    evals = []
    for seed in range(20):
        psi, inits = _ascent_inputs(seed, 16)
        calls.clear()
        _kernels.tangle_ascent_best(q_vector(psi, 3).q, inits, 400, 1e-10)
        evals.append(len(calls))
    assert np.mean(evals) < 20


def test_ascent_rounding_stop_keeps_the_best_tangle():
    # the reference loop has no rounding stop: it runs every line search out
    for seed in range(20):
        psi, inits = _ascent_inputs(seed, 16)
        ref = _ascent_reference(psi, SU4_BASIS, _A_QUADS, inits, 400, 1e-10)
        best, _ = _kernels.tangle_ascent_best(q_vector(psi, 3).q, inits, 400, 1e-10)
        assert abs(best - ref) < 1e-12


def _milestone_pairs():
    """The four W-class states against GHZ, each side under random locals."""
    w = make_asymmetric_w(np.arccos(1 / np.sqrt(3)), np.pi / 4)
    amd = np.array([0.2175, 0.7778, 0.5895])
    w_md = make_asymmetric_w(np.arccos(amd[2] / np.linalg.norm(amd)), np.arctan2(amd[1], amd[0]))
    w1 = apply(w_to_ghz_sequence(np.arccos(1 / np.sqrt(3)), np.pi / 4).sequence[:1], w)
    rng = np.random.default_rng(21)
    pairs = []
    for s in (w, make_asymmetric_w(np.pi / 4, 0.0), w_md, w1):
        locs = [LocalStep(q, rng.uniform(-np.pi, np.pi, 3)) for q in "abcabc"]
        pairs.append((apply(locs[:3], s), apply(locs[3:], make_ghz())))
    return pairs


def _polish_cases():
    rng = np.random.default_rng(17)
    haar = [(random_state(int(rng.integers(2**31))), random_state(int(rng.integers(2**31))))
            for _ in range(30)]
    return [(a.reshape(2, 2, 2), b.reshape(2, 2, 2)) for a, b in haar + _milestone_pairs()]


def test_fs_polish_reaches_the_swept_optimum():
    # the reference sweeps every restart to its step tolerance; the polish
    # takes over after a few sweeps and may not end below that optimum
    for k, (t1, t2) in enumerate(_polish_cases()):
        inits = _random_su2_stack(np.random.default_rng(k), 1)
        ref_vals, _, _ = _fs_reference(t1, t2, inits, 5000, 1e-10)
        best, us, stats = _kernels.fs_best_overlap(t1, t2, inits, 5000)
        assert best >= min(ref_vals.max(), 1.0) - 1e-12
        assert abs(_overlap_of(t1, t2, us) - best) < 1e-12
        assert stats.converged == 1 and not stats.capped


def _riemannian_gradient(t1, t2, us):
    """d|c|^2 / dx_qk at U_q exp(i x_q . sigma), by one Pauli insertion at a time."""
    def overlap(mats):
        return np.vdot(t1, np.einsum("ax,by,cz,xyz->abc", *mats, t2))
    c = overlap(us)
    grad = []
    for q in range(3):
        for sigma in PAULIS:
            mats = list(us)
            mats[q] = us[q] @ sigma
            grad.append(2.0 * np.real(np.conj(c) * 1j * overlap(mats)))
    return np.array(grad)


def test_fs_polish_ends_stationary_or_unconverged():
    # a budget below what some restarts need: those are reported, the rest
    # end with a gradient at rounding level
    capped = 0
    for k, (t1, t2) in enumerate(_polish_cases()[::4]):
        inits = _random_su2_stack(np.random.default_rng(k), 8)
        _, us = _kernels.fs_restarts(t1, t2, inits, _kernels._SWEEPS)
        for budget in (3, 5000):
            vals, out, steps, converged = _kernels.fs_polish(t1, t2, us, np.full(8, budget))
            for r in range(8):
                grad = _riemannian_gradient(t1, t2, out[r])
                assert abs(_overlap_of(t1, t2, out[r]) - vals[r]) < 1e-12
                if converged[r]:
                    assert np.linalg.norm(grad) < 1e-12
                else:
                    assert steps[r] == budget
            if budget == 3:
                capped += 8 - converged.sum()
            else:
                assert converged.all()
    assert capped > 0


def test_fs_ghz_against_itself_is_finite_and_exact():
    # GHZ's local stabilizer makes the Hessian singular at every optimum
    ghz = make_ghz()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, other in enumerate([ghz, apply([LocalStep("b", (0.3, -1.2, 0.5))], ghz)]):
            res = fubini_study_search(ghz, other, seed=seed)
            assert np.isfinite(res.angle_degrees) and res.angle_degrees < 1e-9
            assert res.converged == res.restarts == 32 and not res.capped
            assert 0.0 <= res.overlap_spread < 1e-12


def test_fs_search_reports_a_capped_run():
    w = make_asymmetric_w(np.arccos(1 / np.sqrt(3)), np.pi / 4)
    res = fubini_study_search(w, make_ghz(), seed=2, max_sweeps=1)
    assert (res.sweeps, res.polish_iterations, res.converged) == (1, 0, 0)
    assert res.capped
    # every restart takes the same number of sweeps, min(4, max_sweeps)
    for cap in (1, 3, 4, 5000):
        assert fubini_study_search(w, make_ghz(), seed=2, max_sweeps=cap).sweeps == min(4, cap)
    full = fubini_study_search(w, make_ghz(), seed=2)
    assert full.converged == full.restarts and not full.capped
    assert abs(full.angle_degrees - 30.0) < 1e-9
    assert full.angle_degrees == fubini_study_angle(w, make_ghz(), seed=2)


def test_fs_restart_the_polish_cannot_move_ends_unconverged(monkeypatch):
    # a model with the gradient's sign flipped proposes only downhill steps,
    # so the polish cannot move: each restart ends where its sweeps left it
    t1, t2 = _polish_cases()[0]
    inits = _random_su2_stack(np.random.default_rng(0), 4)
    ref_vals, _, _ = _fs_reference(t1, t2, inits, _kernels._SWEEPS, 0.0)
    real = _kernels._fs_model

    def downhill(t1c, table, us):
        vals, g, h = real(t1c, table, us)
        return vals, -g, h
    monkeypatch.setattr(_kernels, "_fs_model", downhill)
    best, us, stats = _kernels.fs_best_overlap(t1, t2, inits, 5000)
    assert abs(best - ref_vals.max()) < 1e-12
    assert abs(_overlap_of(t1, t2, us) - best) < 1e-12
    assert stats.converged == 0 and stats.sweeps == _kernels._SWEEPS and not stats.capped
