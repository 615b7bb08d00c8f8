"""The batched optimizer kernels against plain per-restart reference loops."""
import warnings

import numpy as np
import pytest

from tanglevec import (LocalStep, ParseError, _kernels, apply, bipartite_tangle_from_density,
                       fubini_study_angle, fubini_study_search, make_asymmetric_w, make_ghz,
                       normalize, random_state, tangle_ascent_oracle, tangle_ascent_search,
                       w_to_ghz_sequence)
from tanglevec.gates import PAIR_PAULIS, expi_hermitian
from tanglevec.gates import SIGMA as PAULIS
from tanglevec.so6 import SU4_BASIS
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
    # |000> and |111> are locally equivalent, but the identity restart starts
    # at a zero overlap, the minimum of |c|^2, where neither phase moves it
    zero, one = np.eye(8)[0], np.eye(8)[7]
    res = fubini_study_search(zero, one, restarts=1)
    assert abs(res.angle_degrees - 90.0) < 1e-12
    assert res.converged == 0 and not res.capped
    res = fubini_study_search(zero, one)
    assert res.angle_degrees < 1e-6
    assert res.converged == res.restarts - 1 and not res.capped
    # overlaps of unit states are at most 1, and so is their spread
    assert res.overlap_spread <= 1.0


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
    (tangle_ascent_oracle, {"gtol": float("nan")}),
    (tangle_ascent_oracle, {"gtol": float("-inf")}),
    (tangle_ascent_oracle, {"gtol": -1.0}),
    (tangle_ascent_search, {"restarts": -1}),
    (tangle_ascent_search, {"max_iters": 0}),
    (tangle_ascent_search, {"seed": -1}),
    (tangle_ascent_search, {"gtol": float("inf")}),
    (fubini_study_search, {"seed": 1.5}),
    (fubini_study_search, {"restarts": "4"}),
    (fubini_study_search, {"max_sweeps": 3.5}),
    (fubini_study_search, {"seed": None}),
    (tangle_ascent_search, {"gtol": None}),
    (tangle_ascent_search, {"max_iters": 2.5}),
    (fubini_study_angle, {"restarts": True}),
    (fubini_study_search, {"seed": False}),
    (fubini_study_search, {"max_sweeps": np.int64(0)}),
    (tangle_ascent_search, {"max_iters": True}),
    (tangle_ascent_oracle, {"gtol": False}),
])
def test_optimizer_options_are_refused(call, kwargs):
    args = (_W,) if call in (tangle_ascent_oracle, tangle_ascent_search) else (_W, make_ghz())
    with pytest.raises(ParseError, match=next(iter(kwargs))):
        call(*args, **kwargs)


def test_optimizer_options_at_their_least():
    res = fubini_study_search(_W, make_ghz(), restarts=1, seed=0, max_sweeps=1)
    assert (res.restarts, res.sweeps, res.polish_iterations) == (1, 1, 0)
    assert tangle_ascent_oracle(_W, restarts=1, seed=0, max_iters=1, gtol=0.0) >= 0.0
    # the one restart is the identity, where W has |A.A| = 0: the minimum
    # of the tangle, which no Newton step leaves and which is not converged
    res = tangle_ascent_search(_W, restarts=1, seed=0, max_iters=1, gtol=0.0)
    assert (res.tangle, res.restarts, res.iterations, res.converged) == (0.0, 1, 0, 0)
    assert not res.capped and res.tangle_spread == 0.0


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


@pytest.mark.parametrize("seed", range(3))
def test_ascent_model_matches_finite_differences(seed):
    # |A.A|^2 at exp(i sum_k x_k P_k / 2) psi over the 9 couplings P_k, by
    # central differences in x, against the model's gradient and Hessian
    psi = random_state(seed)
    dirs = PAIR_PAULIS[6:] / 2

    def value(x):
        moved = (expi_hermitian(np.tensordot(x, dirs, axes=1)) @ psi.reshape(4, 2)).reshape(8)
        a = (_A_QUADS @ moved) @ moved
        return abs(a @ a) ** 2
    vals, g, h = _kernels._ascent_model(psi[None])
    assert abs(vals[0] ** 2 - value(np.zeros(9))) < 1e-15
    e, eye = 1e-4, np.eye(9)
    grad = [(value(e * eye[k]) - value(-e * eye[k])) / (2 * e) for k in range(9)]
    hess = [[(value(e * (eye[k] + eye[l])) - value(e * (eye[k] - eye[l]))
              - value(e * (eye[l] - eye[k])) + value(-e * (eye[k] + eye[l]))) / (4 * e * e)
             for l in range(9)] for k in range(9)]
    assert np.abs(g[0] - grad).max() < 1e-8
    assert np.abs(h[0] - hess).max() < 1e-7


def test_ascent_matches_reference_loop():
    for seed in range(3):
        psi, inits = _ascent_inputs(seed)
        ref = _ascent_reference(psi, SU4_BASIS, _A_QUADS, inits, 300, 1e-10)
        best, stats = _kernels.tangle_ascent_best(psi, SU4_BASIS, inits, 300, 1e-10)
        assert abs(best - ref) < 1e-9
        assert 1 <= stats.polish < 300
        assert stats.converged == inits.shape[0]


def test_ascent_cap_is_reported():
    # three Newton steps are too few for any restart: each is cut at the
    # cap, above its start and below the converged maximum
    psi, inits = _ascent_inputs(5)
    best, stats = _kernels.tangle_ascent_best(psi, SU4_BASIS, inits, 3, 1e-10)
    assert (stats.polish, stats.converged, stats.capped) == (3, 0, True)
    # an infinite gtol stops every restart at its start, before any step
    start, _ = _kernels.tangle_ascent_best(psi, SU4_BASIS, inits, 1, np.inf)
    full, stats = _kernels.tangle_ascent_best(psi, SU4_BASIS, inits, 400, 1e-10)
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
        _kernels.tangle_ascent_best(psi, SU4_BASIS, inits, 400, 1e-10)
        evals.append(len(calls))
    assert np.mean(evals) < 20


def test_ascent_rounding_stop_keeps_the_best_tangle():
    # the reference loop has no rounding stop: it runs every line search out
    for seed in range(20):
        psi, inits = _ascent_inputs(seed, 16)
        ref = _ascent_reference(psi, SU4_BASIS, _A_QUADS, inits, 400, 1e-10)
        best, _ = _kernels.tangle_ascent_best(psi, SU4_BASIS, inits, 400, 1e-10)
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
        inits = _random_su2_stack(np.random.default_rng(k), 2)[1:]
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
